#pragma once
// EventRing / LaneRings: the lock-free recording substrate under
// trace::Tracer.
//
// The paper's evaluation is read off per-PE timelines, which means the
// tracer sits directly on the scheduling hot path PR 2 de-serialized —
// a mutex-guarded vector there reintroduces exactly the serialization
// the sharded engine removed.  Instead each lane (worker PE or IO
// pseudo-PE) records into its own fixed-capacity ring:
//
//   * power-of-two capacity, one cache line per counter, so the fast
//     path is claim-slot / write / publish with no lock and no
//     allocation;
//   * bounded: when a ring is full between drains the event is counted
//     in a monotonic per-ring drop counter and discarded — recording
//     is wait-free in that case (one acquire load + one relaxed
//     fetch_add), never blocking the PE;
//   * drained by a single consumer (the Tracer, under its mutex) into
//     the classic Interval log, so every existing summary / render /
//     CSV view is unchanged.
//
// Although each lane is *almost* single-producer, the runtime does
// push to a worker's lane from two threads in places (e.g. the
// governor performs inline transfers on lane 0 from the user thread
// while PE 0's own thread is tracing compute), so the slot protocol is
// the bounded MPMC design of Vyukov's queue — per-slot sequence
// numbers, CAS to claim — rather than strict SPSC.  Uncontended it
// costs the same two atomics as SPSC.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/check.hpp"

namespace hmr::telemetry {

/// Bounded lock-free ring of trivially copyable events.
template <class T>
class EventRing {
public:
  explicit EventRing(std::size_t capacity) {
    std::size_t cap = 8;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
    for (std::size_t i = 0; i < cap; ++i) {
      slots_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  std::size_t capacity() const { return mask_ + 1; }

  /// Events discarded because the ring was full.  Monotonic.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Publish one event.  Lock-free; wait-free when the ring is full
  /// (the event is dropped and counted).  Returns false on drop.
  bool try_push(const T& v) {
    std::uint64_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      const auto dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          s.value = v;
          s.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
        // CAS failure reloaded pos; retry with the fresher slot.
      } else if (dif < 0) {
        // The slot one lap back has not been drained: ring full.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return false;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Move every published event into `out` (append).  Single consumer:
  /// callers must serialize drains externally.  Returns events moved.
  std::size_t drain(std::vector<T>& out) {
    std::size_t n = 0;
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Slot& s = slots_[pos & mask_];
      const std::uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (static_cast<std::int64_t>(seq) -
              static_cast<std::int64_t>(pos + 1) <
          0) {
        break; // slot not yet published
      }
      out.push_back(s.value);
      // Free the slot for the producer one lap ahead.
      s.seq.store(pos + mask_ + 1, std::memory_order_release);
      ++pos;
      ++n;
    }
    tail_.store(pos, std::memory_order_relaxed);
    return n;
  }

private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::size_t mask_ = 0;
  std::unique_ptr<Slot[]> slots_;
  alignas(64) std::atomic<std::uint64_t> head_{0};
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  alignas(64) std::atomic<std::uint64_t> dropped_{0};
};

/// Lazily-created per-lane rings.  Lane creation is a one-time CAS on
/// the lane's pointer slot; lanes beyond kMaxLanes get nullptr and the
/// caller records them under its own consumer mutex instead.
template <class T>
class LaneRings {
public:
  static constexpr std::int32_t kMaxLanes = 1024;

  explicit LaneRings(std::size_t ring_capacity) : cap_(ring_capacity) {
    for (auto& s : rings_) s.store(nullptr, std::memory_order_relaxed);
  }

  ~LaneRings() {
    for (auto& s : rings_) delete s.load(std::memory_order_relaxed);
  }

  LaneRings(const LaneRings&) = delete;
  LaneRings& operator=(const LaneRings&) = delete;

  /// The lane's ring, created on first use; nullptr when out of range.
  EventRing<T>* lane(std::int32_t lane) {
    if (lane < 0 || lane >= kMaxLanes) return nullptr;
    auto& slot = rings_[static_cast<std::size_t>(lane)];
    EventRing<T>* r = slot.load(std::memory_order_acquire);
    if (r != nullptr) return r;
    auto* fresh = new EventRing<T>(cap_);
    EventRing<T>* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fresh,
                                     std::memory_order_acq_rel)) {
      return fresh;
    }
    delete fresh; // another producer won the install race
    return expected;
  }

  /// The lane's ring if it exists (no creation); safe concurrently.
  EventRing<T>* peek(std::int32_t lane) const {
    if (lane < 0 || lane >= kMaxLanes) return nullptr;
    return rings_[static_cast<std::size_t>(lane)].load(
        std::memory_order_acquire);
  }

  /// Drain every lane into `out`.  Single consumer, like
  /// EventRing::drain.
  std::size_t drain_all(std::vector<T>& out) {
    std::size_t n = 0;
    for (std::int32_t l = 0; l < kMaxLanes; ++l) {
      if (EventRing<T>* r = peek(l)) n += r->drain(out);
    }
    return n;
  }

  /// Total events dropped across all lanes.  Monotonic.
  std::uint64_t dropped() const {
    std::uint64_t n = 0;
    for (std::int32_t l = 0; l < kMaxLanes; ++l) {
      if (const EventRing<T>* r = peek(l)) n += r->dropped();
    }
    return n;
  }

private:
  std::size_t cap_;
  std::array<std::atomic<EventRing<T>*>, kMaxLanes> rings_;
};

} // namespace hmr::telemetry
