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
// Writers are the executors' migration completion paths (rare relative
// to task execution); a small striped-mutex map keeps them from
// contending without the complexity of a lock-free multimap.
//
// Memory is bounded by the blocks that are live: a block's ring is
// allocated once, at full depth, on its first transition, and
// forget() drops it when the block is freed.

#include <cstdint>
#include <mutex>
#include <ostream>
#include <unordered_map>
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

  /// Keep the last `depth` transitions per block.
  explicit BlockFlightRecorder(std::size_t depth = 8);

  std::size_t depth() const { return depth_; }

  void record(ooc::BlockId b, const Transition& t);

  /// Drop the block's history (it was freed): afterwards history(b)
  /// is empty and total_recorded(b) is 0.
  void forget(ooc::BlockId b);

  /// Blocks with a retained history.
  std::size_t tracked_blocks() const;

  /// The block's retained transitions, oldest first; and how many were
  /// recorded in total (>= history().size() once the ring wrapped).
  std::vector<Transition> history(ooc::BlockId b) const;
  std::uint64_t total_recorded(ooc::BlockId b) const;

  /// Text dump of one block / of every tracked block (post-mortems).
  void dump_block(std::ostream& os, ooc::BlockId b) const;
  void dump(std::ostream& os) const;

private:
  struct Ring {
    std::vector<Transition> slots;
    std::uint64_t n = 0; // total recorded; slots[n % depth] is next
  };
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<ooc::BlockId, Ring> blocks;
  };
  static constexpr std::size_t kStripes = 16;

  Stripe& stripe(ooc::BlockId b) { return stripes_[b % kStripes]; }
  const Stripe& stripe(ooc::BlockId b) const {
    return stripes_[b % kStripes];
  }

  std::size_t depth_;
  Stripe stripes_[kStripes];
};

} // namespace hmr::telemetry
