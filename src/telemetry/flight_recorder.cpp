#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr::telemetry {

namespace {

/// Spin guard over a ring's busy flag.  Held for one slot write or one
/// ring copy; yields rather than burning a vCPU another thread needs.
class SpinGuard {
public:
  explicit SpinGuard(std::atomic<bool>& busy) : busy_(busy) {
    while (busy_.exchange(true, std::memory_order_acquire)) {
      while (busy_.load(std::memory_order_relaxed)) std::this_thread::yield();
    }
  }
  ~SpinGuard() { busy_.store(false, std::memory_order_release); }
  SpinGuard(const SpinGuard&) = delete;
  SpinGuard& operator=(const SpinGuard&) = delete;

private:
  std::atomic<bool>& busy_;
};

/// The object in `slot`, installing a fresh one if it is empty.
template <class T>
T* install(std::atomic<T*>& slot) {
  T* p = slot.load(std::memory_order_acquire);
  if (p != nullptr) return p;
  T* fresh = new T();
  if (slot.compare_exchange_strong(p, fresh, std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh; // another writer installed one first
  return p;
}

} // namespace

std::size_t flight_depth_from_env(std::size_t fallback) {
  const char* env = std::getenv("HMR_FLIGHT_DEPTH");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = parse_u64(env);
  if (!v) return fallback; // not a plain unsigned number
  return static_cast<std::size_t>(std::min<std::uint64_t>(*v, 1024));
}

BlockFlightRecorder::BlockFlightRecorder(std::size_t depth)
    : depth_(depth) {
  HMR_CHECK(depth_ > 0 && depth_ <= UINT32_MAX);
}

BlockFlightRecorder::~BlockFlightRecorder() {
  for (auto& page_slot : pages_) {
    Page* page = page_slot.load(std::memory_order_relaxed);
    if (page == nullptr) continue;
    for (auto& chunk_slot : page->chunks) {
      Chunk* chunk = chunk_slot.load(std::memory_order_relaxed);
      if (chunk == nullptr) continue;
      for (auto& slot : chunk->rings) {
        Ring* r = slot.load(std::memory_order_relaxed);
        if (r != retired()) delete r;
      }
      delete chunk;
    }
    delete page;
  }
}

std::atomic<BlockFlightRecorder::Ring*>* BlockFlightRecorder::find(
    ooc::BlockId b) const {
  if (b >= kMaxBlocks) return nullptr;
  const Page* page =
      pages_[b >> (kChunkShift + kPageShift)].load(std::memory_order_acquire);
  if (page == nullptr) return nullptr;
  Chunk* chunk = page->chunks[(b >> kChunkShift) & (kPageSize - 1)].load(
      std::memory_order_acquire);
  return chunk == nullptr ? nullptr : &chunk->rings[b & (kChunkSize - 1)];
}

void BlockFlightRecorder::record(ooc::BlockId b, const Transition& t) {
  if (b >= kMaxBlocks) return;
  Page* page = install(pages_[b >> (kChunkShift + kPageShift)]);
  Chunk* chunk = install(page->chunks[(b >> kChunkShift) & (kPageSize - 1)]);
  std::atomic<Ring*>& slot = chunk->rings[b & (kChunkSize - 1)];
  Ring* r = slot.load(std::memory_order_acquire);
  if (r == retired()) return; // a freed block
  if (r == nullptr) { // the block's first transition
    auto* fresh = new Ring(depth_);
    if (slot.compare_exchange_strong(r, fresh, std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      r = fresh;
      tracked_.fetch_add(1, std::memory_order_relaxed);
    } else {
      delete fresh;
    }
  }
  SpinGuard g(r->busy);
  r->slots[r->next] = t;
  if (++r->next == depth_) r->next = 0;
  ++r->n;
}

void BlockFlightRecorder::forget(ooc::BlockId b) {
  if (b >= kMaxBlocks) return;
  std::lock_guard lk(readers_mu_);
  // Installed even for a block never recorded, so that its chunk can
  // count all 256 of its ids retired.
  std::atomic<Page*>& page_slot = pages_[b >> (kChunkShift + kPageShift)];
  std::atomic<Chunk*>& chunk_slot =
      install(page_slot)->chunks[(b >> kChunkShift) & (kPageSize - 1)];
  Chunk* chunk = install(chunk_slot);
  Ring* r = chunk->rings[b & (kChunkSize - 1)].exchange(
      retired(), std::memory_order_acq_rel);
  if (r == retired()) return; // forgotten before
  if (r != nullptr) {
    tracked_.fetch_sub(1, std::memory_order_relaxed);
    delete r;
  }
  if (++chunk->forgotten < kChunkSize) return;
  // Every id of the chunk is retired, so no writer will look it up
  // again.
  chunk_slot.store(nullptr, std::memory_order_release);
  delete chunk;
}

BlockFlightRecorder::Snapshot BlockFlightRecorder::snapshot(
    ooc::BlockId b) const {
  Snapshot s;
  const std::atomic<Ring*>* slot = find(b);
  Ring* r = slot == nullptr ? nullptr : slot->load(std::memory_order_acquire);
  if (r == nullptr || r == retired()) return s;
  SpinGuard g(r->busy);
  const Transition* slots = r->slots.get();
  s.total = r->n;
  if (r->n <= depth_) {
    s.hist.assign(slots, slots + r->n);
  } else {
    // The ring wrapped: the oldest entry sits at the next write slot.
    s.hist.reserve(depth_);
    s.hist.insert(s.hist.end(), slots + r->next, slots + depth_);
    s.hist.insert(s.hist.end(), slots, slots + r->next);
  }
  return s;
}

std::vector<BlockFlightRecorder::Transition> BlockFlightRecorder::history(
    ooc::BlockId b) const {
  std::lock_guard lk(readers_mu_);
  return snapshot(b).hist;
}

std::uint64_t BlockFlightRecorder::total_recorded(ooc::BlockId b) const {
  std::lock_guard lk(readers_mu_);
  return snapshot(b).total;
}

void BlockFlightRecorder::write_block(std::ostream& os, ooc::BlockId b,
                                      const Snapshot& s) {
  os << "block " << b << " (" << s.total << " transitions, last "
     << s.hist.size() << "):\n";
  for (const auto& t : s.hist) {
    os << "  t=" << t.time << " " << (t.fetch ? "fetch" : "evict") << " "
       << t.src_tier << "->" << t.dst_tier << " bytes=" << t.bytes;
    if (t.task != 0) os << " task=" << t.task;
    os << "\n";
  }
}

void BlockFlightRecorder::dump_block(std::ostream& os,
                                     ooc::BlockId b) const {
  std::lock_guard lk(readers_mu_);
  write_block(os, b, snapshot(b));
}

void BlockFlightRecorder::dump(std::ostream& os) const {
  std::lock_guard lk(readers_mu_);
  // Table order is id order.
  for (std::size_t p = 0; p < kPages; ++p) {
    const Page* page = pages_[p].load(std::memory_order_acquire);
    if (page == nullptr) continue;
    for (std::size_t c = 0; c < kPageSize; ++c) {
      if (page->chunks[c].load(std::memory_order_acquire) == nullptr) {
        continue;
      }
      const ooc::BlockId base = ((p << kPageShift) | c) << kChunkShift;
      for (std::size_t i = 0; i < kChunkSize; ++i) {
        const Snapshot s = snapshot(base + i);
        if (s.total > 0) write_block(os, base + i, s);
      }
    }
  }
}

} // namespace hmr::telemetry
