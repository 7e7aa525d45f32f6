#pragma once
// ChunkRing: cooperative, chunked memcpy for large migrations.
//
// The paper's §IV-C migration recipe moves a block with one memcpy on
// one IO thread.  For multi-megabyte blocks that serializes the whole
// transfer behind a single core even when other IO threads are idle —
// on KNL one core cannot saturate either MCDRAM or DDR4 bandwidth.
// ChunkRing splits a copy above a threshold into fixed-size chunks
// published in a small ring of job slots; any idle thread (an IO
// thread, or a PE with nothing to run) can walk in and claim chunks
// (assist) until the job drains, so one large block is streamed by
// several cores cooperatively.
//
// Protocol per job slot (lock-free, no allocation on the copy path):
//   owner:   claim an Empty slot (CAS Empty->Setup), fill src/dst/
//            geometry, publish (Setup->Active), then claim and copy
//            chunks like any helper; when no chunk is left (or the
//            cancel flag trips) it parks the slot (Active->Draining),
//            waits for helpers to leave, and recycles it (->Empty).
//   helper:  assist() scans the slots; on an Active slot it announces
//            itself (helpers.fetch_add), re-checks the state (the slot
//            may have drained in between — then it backs straight
//            out), claims chunks via next.fetch_add up to its bound,
//            and leaves.
//
// Chunks are claimed in index order, so the copied region of a
// cancelled transfer is a prefix of fully-copied chunks plus at most
// (#participants) chunks that were already claimed when the flag
// tripped — every *claimed* chunk is always copied, which is what lets
// the owner reuse the slot immediately after helpers drain.
//
// Thread safety: fully concurrent.  Multiple owners can run different
// jobs through the same ring; helpers may assist any of them.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "mem/copy_kernel.hpp"

namespace hmr::mem {

/// Outcome of one cooperative copy.
struct CopyOutcome {
  std::uint32_t chunks = 0;          // chunks copied (all, on success)
  std::uint32_t assisted_chunks = 0; // copied by helpers, not the owner
  bool cancelled = false;            // flag tripped before completion
  bool ring_fallback = false;        // all slots busy: un-assisted copy
};

class ChunkRing {
public:
  static constexpr std::size_t kSlots = 8;
  static constexpr std::uint64_t kDefaultChunkBytes = 256 * 1024;

  explicit ChunkRing(std::uint64_t chunk_bytes = kDefaultChunkBytes);

  ChunkRing(const ChunkRing&) = delete;
  ChunkRing& operator=(const ChunkRing&) = delete;

  std::uint64_t chunk_bytes() const { return chunk_bytes_; }

  /// Reconfigure the chunk size.  Only valid while no job is in
  /// flight (configure before the executor starts moving data).
  void set_chunk_bytes(std::uint64_t chunk_bytes);

  /// Copy `bytes` from `src` to `dst`, cooperatively.  Blocks until
  /// the copy is complete (or cancelled); the calling thread does the
  /// bulk of the work itself, helpers only add bandwidth.  Copies at
  /// or under one chunk (or when all slots are busy) degrade to a
  /// plain memcpy.  `cancel` (may be null) is polled between chunks;
  /// once it reads true no further chunk is claimed and the
  /// destination contents are indeterminate.
  CopyOutcome run(void* dst, const void* src, std::uint64_t bytes,
                  const std::atomic<bool>* cancel = nullptr);

  /// Called by idle threads: claim and copy up to `max_chunks` chunks
  /// of any active jobs.  Returns the number of chunks this call copied
  /// (0 = nothing to assist with).  A thread that must stay responsive
  /// to its own queue passes a small bound and calls again.
  std::size_t assist(std::size_t max_chunks = SIZE_MAX);

  /// True when some job has unclaimed chunks — cheap enough for an IO
  /// thread's idle loop.
  bool assist_pending() const;

  // ---- counters (monotonic, for benches and tests) ----
  std::uint64_t jobs() const {
    return jobs_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_copied() const {
    return chunks_copied_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_assisted() const {
    return chunks_assisted_.load(std::memory_order_relaxed);
  }
  /// Large copies that found every slot busy and degraded to a single
  /// un-assisted copy (still correct, but no helper bandwidth).  A
  /// nonzero value means the ring is undersized for the migration
  /// concurrency — exported as hmr_copy_ring_fallbacks and flagged in
  /// hmr_trace summaries.
  std::uint64_t ring_fallbacks() const {
    return ring_fallbacks_.load(std::memory_order_relaxed);
  }

private:
  enum : std::uint32_t { kEmpty = 0, kSetup = 1, kActive = 2, kDraining = 3 };

  struct alignas(64) Job {
    std::atomic<std::uint32_t> state{kEmpty};
    std::atomic<std::uint32_t> next{0};    // next chunk index to claim
    std::atomic<std::uint32_t> done{0};    // chunks fully copied
    std::atomic<std::uint32_t> helpers{0}; // helpers currently inside
    std::atomic<std::uint32_t> assisted{0};
    std::byte* dst = nullptr;
    const std::byte* src = nullptr;
    std::uint64_t bytes = 0;
    // Atomic only for assist_pending(), which polls it without
    // announcing itself while an owner may be refilling the slot.
    std::atomic<std::uint32_t> n_chunks{0};
    Stream stream = Stream::Never; // decided by run() from the job size
    const std::atomic<bool>* cancel = nullptr;
  };

  /// Claim-and-copy loop shared by owner and helpers: claims at most
  /// `max_chunks` chunks.  Returns the number this thread copied.
  std::uint32_t work_on(Job& job, std::size_t max_chunks = SIZE_MAX);

  std::uint64_t chunk_bytes_;
  Job slots_[kSlots];
  std::atomic<std::uint64_t> jobs_{0};
  std::atomic<std::uint64_t> chunks_copied_{0};
  std::atomic<std::uint64_t> chunks_assisted_{0};
  std::atomic<std::uint64_t> ring_fallbacks_{0};
};

} // namespace hmr::mem
