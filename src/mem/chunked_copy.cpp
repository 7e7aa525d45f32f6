#include "mem/chunked_copy.hpp"

#include <thread>

#include "mem/copy_kernel.hpp"
#include "util/check.hpp"

namespace hmr::mem {

ChunkRing::ChunkRing(std::uint64_t chunk_bytes)
    : chunk_bytes_(chunk_bytes) {
  HMR_CHECK_MSG(chunk_bytes_ > 0, "chunk size must be positive");
}

void ChunkRing::set_chunk_bytes(std::uint64_t chunk_bytes) {
  HMR_CHECK_MSG(chunk_bytes > 0, "chunk size must be positive");
  for (const auto& slot : slots_) {
    HMR_CHECK_MSG(slot.state.load(std::memory_order_acquire) == kEmpty,
                  "resizing chunks while a copy is in flight");
  }
  chunk_bytes_ = chunk_bytes;
}

std::uint32_t ChunkRing::work_on(Job& job, std::size_t max_chunks) {
  std::uint32_t copied = 0;
  while (copied < max_chunks) {
    if (job.cancel != nullptr &&
        job.cancel->load(std::memory_order_acquire)) {
      break;
    }
    const std::uint32_t i =
        job.next.fetch_add(1, std::memory_order_acq_rel);
    if (i >= job.n_chunks.load(std::memory_order_relaxed)) break;
    const std::uint64_t off = static_cast<std::uint64_t>(i) * chunk_bytes_;
    const std::uint64_t len =
        off + chunk_bytes_ <= job.bytes ? chunk_bytes_ : job.bytes - off;
    copy(job.dst + off, job.src + off, len, job.stream);
    job.done.fetch_add(1, std::memory_order_release);
    ++copied;
  }
  return copied;
}

CopyOutcome ChunkRing::run(void* dst, const void* src, std::uint64_t bytes,
                           const std::atomic<bool>* cancel) {
  CopyOutcome out;
  if (bytes == 0) return out;
  if (bytes <= chunk_bytes_) {
    copy(dst, src, bytes);
    out.chunks = 1;
    chunks_copied_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  // Claim a slot.  Contention here means kSlots large copies are
  // already in flight; an extra ring buys nothing at that point, so
  // degrade to a plain (still correct, just un-assisted) memcpy.
  Job* job = nullptr;
  for (auto& slot : slots_) {
    std::uint32_t expect = kEmpty;
    if (slot.state.compare_exchange_strong(expect, kSetup,
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      job = &slot;
      break;
    }
  }
  if (job == nullptr) {
    if (cancel != nullptr && cancel->load(std::memory_order_acquire)) {
      out.cancelled = true;
      return out;
    }
    out.ring_fallback = true;
    ring_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    copy(dst, src, bytes);
    out.chunks = 1;
    chunks_copied_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }

  job->dst = static_cast<std::byte*>(dst);
  job->src = static_cast<const std::byte*>(src);
  job->bytes = bytes;
  const auto n_chunks =
      static_cast<std::uint32_t>((bytes + chunk_bytes_ - 1) / chunk_bytes_);
  job->n_chunks.store(n_chunks, std::memory_order_relaxed);
  // NT policy is decided once, by the *job* size, not the chunk size:
  // a 16 MiB migration streams even though each 256 KiB slice sits
  // below the threshold.
  const std::uint64_t nt_threshold = copy_nt_threshold();
  job->stream = nt_threshold != 0 && bytes >= nt_threshold ? Stream::Always
                                                           : Stream::Never;
  job->next.store(0, std::memory_order_relaxed);
  job->done.store(0, std::memory_order_relaxed);
  job->assisted.store(0, std::memory_order_relaxed);
  job->cancel = cancel;
  HMR_DCHECK(job->helpers.load(std::memory_order_relaxed) == 0);
  jobs_.fetch_add(1, std::memory_order_relaxed);
  job->state.store(kActive, std::memory_order_release); // publish

  const std::uint32_t own = work_on(*job);

  // Park the slot so no new helper walks in, then wait for the ones
  // already inside: each claimed chunk is always copied (cancel is
  // checked before claiming, never after), so helpers==0 implies
  // done == #claimed and the buffers can be released.
  job->state.store(kDraining, std::memory_order_release);
  while (job->helpers.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }

  out.chunks = job->done.load(std::memory_order_acquire);
  out.assisted_chunks = job->assisted.load(std::memory_order_relaxed);
  out.cancelled = out.chunks < n_chunks;
  HMR_DCHECK(out.cancelled <= (cancel != nullptr));
  chunks_copied_.fetch_add(own, std::memory_order_relaxed);

  job->src = nullptr;
  job->dst = nullptr;
  job->cancel = nullptr;
  job->state.store(kEmpty, std::memory_order_release); // recycle
  return out;
}

std::size_t ChunkRing::assist(std::size_t max_chunks) {
  std::size_t copied = 0;
  for (auto& slot : slots_) {
    if (copied >= max_chunks) break;
    if (slot.state.load(std::memory_order_acquire) != kActive) continue;
    // Announce first, then re-check: the owner may have parked the
    // slot between our load and the fetch_add, in which case it is
    // already waiting for helpers to reach 0 — back out immediately.
    slot.helpers.fetch_add(1, std::memory_order_acq_rel);
    if (slot.state.load(std::memory_order_acquire) == kActive) {
      const std::uint32_t n = work_on(slot, max_chunks - copied);
      if (n > 0) {
        slot.assisted.fetch_add(n, std::memory_order_relaxed);
        chunks_copied_.fetch_add(n, std::memory_order_relaxed);
        chunks_assisted_.fetch_add(n, std::memory_order_relaxed);
        copied += n;
      }
    }
    slot.helpers.fetch_sub(1, std::memory_order_acq_rel);
  }
  return copied;
}

bool ChunkRing::assist_pending() const {
  for (const auto& slot : slots_) {
    if (slot.state.load(std::memory_order_acquire) != kActive) continue;
    if (slot.next.load(std::memory_order_relaxed) <
        slot.n_chunks.load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

} // namespace hmr::mem
