#pragma once
// PlacementAdvisor: turns BlockProfiler profiles into per-block advice
// the ooc::PolicyEngine consults at admission and eviction time
// (docs/ADAPTIVE.md).  Three calls it can make:
//
//  * pin — hot, high-reuse, read-mostly blocks stay resident when
//    their refcount drops to zero even under eager eviction (they are
//    parked warm instead of evicted, saving the round trip the next
//    consumer would otherwise pay);
//  * demote_first — cold blocks (or blocks the top-K sketch is not
//    even tracking) are preferred reclaim victims, ahead of plain LRU
//    order;
//  * bypass_fetch — stream-once blocks whose measured reuse never
//    amortises the migration cost run straight from the slow tier.
//
// On hierarchies deeper than two levels the advisor also sets
// BlockAdvice::demote_level: cold and streaming blocks are sent
// straight to the bottom level (ooc::kLevelFar) instead of being
// caught by a middle tier, which keeps middle-tier capacity for blocks
// with a re-promotion future.  Two-level engines ignore the field.
//
// The bypass break-even test comes from hw::MachineModel: migrating a
// block costs a fetch and (under eager eviction) an evict through the
// loaded migration channel, while each access from the fast tier saves
// the per-PE bandwidth-share difference between the tiers.  A block
// pays its way only if
//     expected accesses >= migration_cost / per_access_saving,
// the `bytes / (fast_bw - slow_bw)`-style test of the issue.  Because
// asynchronous prefetch hides migration cost while the channel has
// headroom, bypass only activates when the governor reports the fetch
// channel saturated (set_streaming_bypass) — with headroom, moving
// even single-use blocks wins, which is the paper's whole point.
//
// Pure state machine: no clock, no threads, no sim/rt dependency.

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "adapt/block_profiler.hpp"
#include "adapt/decision_sink.hpp"
#include "hw/machine_model.hpp"
#include "ooc/types.hpp"

namespace hmr::adapt {

struct AdvisorConfig {
  bool enable_pin = true;
  bool enable_demote = true;
  bool enable_bypass = true;

  /// Pin rule: EWMA hotness at least this many accesses/phase...
  double pin_min_hotness = 3.0;
  /// ...mostly read-only (pinning a heavily written block would keep
  /// dirty state in the fast tier for no sharing payoff)...
  double pin_min_readonly_frac = 0.75;
  /// ...and re-touched within this many global accesses.
  double pin_max_reuse_distance = 1 << 16;

  /// Demote rule: tracked blocks at or below this hotness (plus all
  /// untracked blocks) are preferred reclaim victims.
  double demote_max_hotness = 1.0;

  // Machine-derived break-even inputs (from_model fills these).
  /// Seconds one access saves per byte when the block sits in the fast
  /// tier instead of the slow one, at full PE concurrency.
  double saved_seconds_per_byte_access = 0;
  /// Seconds per byte of a fetch when all PEs contend for the channel.
  double fetch_seconds_per_byte_loaded = 0;
  /// Same for the evict direction (eager eviction pays it too).
  double evict_seconds_per_byte_loaded = 0;
  /// Fixed per-migration cost (numa_alloc/free pair), seconds.
  double migration_fixed_seconds = 0;

  /// Thresholds keep their defaults; the bandwidth/channel fields are
  /// derived from the model's tier shapes at full concurrency.
  static AdvisorConfig from_model(const hw::MachineModel& m);

  /// Remote-backend costing: when the hierarchy's backing store is a
  /// disaggregated pool (ooc::TierBackendKind::Remote), migrations pay
  /// the network instead of the local copy channel.  Raises the
  /// migration cost fields to at least the network path's
  /// seconds-per-byte and adds its per-transfer latency to the fixed
  /// cost, so break_even_accesses demands more reuse before moving a
  /// block across the wire.  Plain numbers keep adapt sim-free; the
  /// caller derives them from its network model (executors pass
  /// 1/bandwidth and the message latency of the remote tier's
  /// ooc::RemoteTierParams).
  void apply_remote(double seconds_per_byte, double fixed_seconds) {
    if (seconds_per_byte > fetch_seconds_per_byte_loaded) {
      fetch_seconds_per_byte_loaded = seconds_per_byte;
    }
    if (seconds_per_byte > evict_seconds_per_byte_loaded) {
      evict_seconds_per_byte_loaded = seconds_per_byte;
    }
    migration_fixed_seconds += fixed_seconds;
  }
};

class PlacementAdvisor final : public ooc::AdviceProvider {
public:
  PlacementAdvisor(const BlockProfiler& profiler, AdvisorConfig cfg);

  const AdvisorConfig& config() const { return cfg_; }

  ooc::BlockAdvice advise(ooc::BlockId b,
                          std::uint64_t bytes) const override;

  /// No block gets bypass advice while the governor has not armed it:
  /// lets the engine skip the advise() lookup on its admission scans.
  bool may_bypass() const override {
    return cfg_.enable_bypass && streaming_bypass_;
  }

  /// Governor hook: bypass only fires while the fetch channel is
  /// reported saturated (see header comment).
  void set_streaming_bypass(bool on) { streaming_bypass_ = on; }

  /// Accesses per phase a block of `bytes` must sustain before
  /// migrating it beats reading it from the slow tier, under a loaded
  /// channel.  +inf when the model fields make fast placement free.
  double break_even_accesses(std::uint64_t bytes) const;

  /// Mirror advice *changes* into a provenance sink (decision_sink.hpp;
  /// nullptr = off, the default).  advise() runs on the engine's
  /// admission path, so identical repeat advice for a block is
  /// deduplicated — the sink sees each block's advice only when it
  /// differs from the last advice recorded for that block.
  void set_decision_sink(DecisionSink* sink) { sink_ = sink; }
  DecisionSink* decision_sink() const { return sink_; }

private:
  void record_advice(ooc::BlockId b, std::uint64_t bytes,
                     const BlockProfile* p,
                     const ooc::BlockAdvice& a) const;

  const BlockProfiler* profiler_;
  AdvisorConfig cfg_;
  bool streaming_bypass_ = false;
  DecisionSink* sink_ = nullptr;
  /// Last advice recorded per block, encoded flat for the dedup test.
  /// Guarded by dedup_mu_; touched only when a sink is installed.
  mutable std::mutex dedup_mu_;
  mutable std::unordered_map<ooc::BlockId, std::uint64_t> last_advice_;
};

} // namespace hmr::adapt
