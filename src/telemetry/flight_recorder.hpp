#pragma once
// BlockFlightRecorder: last-N residency transitions per block.
//
// When a cascade demotion or an eviction decision looks wrong, the
// question is always "how did this block get here?" — and by the time
// anyone asks, the full trace (if one was even recorded) is millions
// of intervals.  The flight recorder keeps a tiny bounded ring of the
// most recent transitions *per block*, always on, so post-mortem
// debugging can replay exactly the path one block took through the
// hierarchy.
//
// Writers are the executors' migration completion paths — on the
// threaded runtime every PE records a batch of swaps at the same
// moments — so record() takes no mutex and computes no hash.  Block
// ids are dense per executor and never reused, so each block's ring
// hangs off a table indexed by id: a fixed 2 KiB directory of pages,
// each page 256 chunk pointers, each chunk 256 ring pointers (the
// chunked-table idiom of ShardedEngine's block table, one level
// deeper).  record() installs a missing page, chunk or ring with one
// compare-and-swap and writes under the ring's own guard, a spin flag
// only a reader of that block can contend.  The readers (forget,
// history, total_recorded, dump) serialize on one mutex record() never
// takes, so a reader never sees a ring forget() is freeing.
//
// Memory grows with the blocks recorded and shrinks as they are
// forgotten: a block's ring of N slots lives from its first transition
// to its forget(), and a 2 KiB chunk from the first record (or forget)
// of one of its 256 ids until all 256 are forgotten.  forget() is for
// freed blocks, whose ids the executors never reuse: recording a block
// during or after its forget() is a caller error (while its chunk
// lives, such a record is dropped).  Ids from kMaxBlocks up are not
// recorded and have no history.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

#include "ooc/types.hpp"

namespace hmr::telemetry {

/// Flight-recorder depth from the environment: HMR_FLIGHT_DEPTH
/// overrides `fallback` (the executor's Config value), clamped to
/// [0, 1024] — 0 disables the recorder entirely.  Unset, or anything
/// but plain decimal digits that fit 64 bits (no sign, no blanks),
/// `fallback` stands.  Lets operators deepen (or silence) the ring on
/// a deployed binary without a rebuild.
std::size_t flight_depth_from_env(std::size_t fallback);

class BlockFlightRecorder {
public:
  struct Transition {
    double time = 0; // executor clock (virtual or wall seconds)
    ooc::TaskId task = 0; // causing task; 0 = none recorded
    std::uint32_t src_tier = 0;
    std::uint32_t dst_tier = 0;
    std::uint64_t bytes = 0;
    bool fetch = false; // promotion (fetch) vs demotion (evict)
  };

  /// Block ids the table covers (the sharded engine's id space too).
  static constexpr std::uint64_t kMaxBlocks = 1ull << 24;

  /// Keep the last `depth` transitions per block.
  explicit BlockFlightRecorder(std::size_t depth = 8);
  ~BlockFlightRecorder();

  BlockFlightRecorder(const BlockFlightRecorder&) = delete;
  BlockFlightRecorder& operator=(const BlockFlightRecorder&) = delete;

  std::size_t depth() const { return depth_; }

  /// No-op for ids >= kMaxBlocks.
  void record(ooc::BlockId b, const Transition& t);

  /// Drop the block's history (it was freed, and its id is not
  /// reused): afterwards history(b) is empty and total_recorded(b) 0.
  void forget(ooc::BlockId b);

  /// Blocks with a retained history.
  std::size_t tracked_blocks() const {
    return tracked_.load(std::memory_order_relaxed);
  }

  /// The block's retained transitions, oldest first; and how many were
  /// recorded in total (>= history().size() once the ring wrapped).
  std::vector<Transition> history(ooc::BlockId b) const;
  std::uint64_t total_recorded(ooc::BlockId b) const;

  /// Text dump of one block / of every tracked block (post-mortems).
  void dump_block(std::ostream& os, ooc::BlockId b) const;
  void dump(std::ostream& os) const;

private:
  struct Ring {
    explicit Ring(std::size_t depth) : slots(new Transition[depth]) {}
    /// Guard between record() and a reader of this block.
    std::atomic<bool> busy{false};
    std::uint32_t next = 0; // slot the next record writes
    std::uint64_t n = 0;    // total recorded
    std::unique_ptr<Transition[]> slots;
  };
  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kPageShift = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;
  static constexpr std::size_t kPages =
      kMaxBlocks >> (kChunkShift + kPageShift);
  struct Chunk {
    /// nullptr = no history yet, retired() = forgotten.
    std::atomic<Ring*> rings[kChunkSize] = {};
    std::size_t forgotten = 0; // retired slots; guarded by readers_mu_
  };
  struct Page {
    std::atomic<Chunk*> chunks[kPageSize] = {};
  };
  struct Snapshot {
    std::uint64_t total = 0;
    std::vector<Transition> hist; // oldest first
  };

  /// Marks a forgotten block's slot (never dereferenced).
  static Ring* retired() { return reinterpret_cast<Ring*>(alignof(Ring)); }
  /// b's ring slot, or nullptr when its chunk is not allocated.
  std::atomic<Ring*>* find(ooc::BlockId b) const;
  /// Ring and total of b, read under one hold of its guard.  Caller
  /// holds readers_mu_.
  Snapshot snapshot(ooc::BlockId b) const;
  static void write_block(std::ostream& os, ooc::BlockId b,
                          const Snapshot& s);

  std::size_t depth_;
  std::array<std::atomic<Page*>, kPages> pages_ = {};
  std::atomic<std::size_t> tracked_{0};
  mutable std::mutex readers_mu_;
};

} // namespace hmr::telemetry
