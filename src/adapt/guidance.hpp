#pragma once
// Guidance: the adaptive phase loop both executors drive
// (docs/ADAPTIVE.md §6).
//
// The three state machines of this subsystem are pure; something has
// to feed them engine events, turn the engine's cumulative stats into
// one phase's PhaseObservation and apply the governor's Decision back
// onto the engine.  Guidance does that once, for hmr::sim and hmr::rt
// alike.  The advisor's migration costs come from the machine model,
// raised to the network's price when the hierarchy has a Remote level.
// Each executor keeps what really differs: where its phase boundaries
// are, how it measures the wait fraction and how it drains the flush.
//
// No clock, no threads, no dependency on sim/ or rt/; callers
// serialize (both executors hold the engine lock, or run one thread).

#include <cstdint>
#include <vector>

#include "adapt/block_profiler.hpp"
#include "adapt/decision_sink.hpp"
#include "adapt/placement_advisor.hpp"
#include "adapt/strategy_governor.hpp"
#include "hw/machine_model.hpp"
#include "ooc/policy_engine.hpp"

namespace hmr::adapt {

class Guidance {
public:
  /// `tiers` is the engine's placement hierarchy; `strategy` and
  /// `eager_evict` are the starting configuration (a movement strategy
  /// is required); `sink` receives every advisor and governor decision
  /// (nullptr = none).
  Guidance(const hw::MachineModel& model,
           const std::vector<ooc::TierDesc>& tiers,
           const ProfilerConfig& profiler_cfg, ooc::Strategy strategy,
           bool eager_evict, int num_pes, DecisionSink* sink);

  Guidance(const Guidance&) = delete;
  Guidance& operator=(const Guidance&) = delete;

  const BlockProfiler& profiler() const { return profiler_; }
  /// Install on the engine with PolicyEngine::set_advisor.
  const PlacementAdvisor& advisor() const { return advisor_; }
  const StrategyGovernor& governor() const { return governor_; }

  /// A task arrived: each dependence is one profiled access.
  template <typename BytesFn>
  void on_arrival(const ooc::TaskDesc& desc, BytesFn&& bytes_of) {
    profiler_.on_task_arrived(desc, bytes_of);
  }

  /// The engine just returned `cmds`: profile its fetches and sample
  /// the phase's in-flight and contention signals.
  template <typename BytesFn>
  void observe(const std::vector<ooc::Command>& cmds,
               const ooc::PolicyEngine& engine, BytesFn&& bytes_of) {
    for (const auto& c : cmds) {
      if (c.kind == ooc::Command::Kind::Fetch) {
        profiler_.on_fetch(c.block, bytes_of(c.block));
      }
    }
    sample(engine);
  }

  /// Phase boundary (the engine is quiescent): one governor step.
  /// Returns the evictions the new settings flush; the caller must
  /// execute them before the next phase starts.
  std::vector<ooc::Command> end_phase(ooc::PolicyEngine& engine,
                                      double phase_seconds,
                                      double wait_fraction);

private:
  void sample(const ooc::PolicyEngine& engine);

  BlockProfiler profiler_;
  PlacementAdvisor advisor_;
  StrategyGovernor governor_;
  /// Engine stats at the last phase boundary, and the phase's peaks.
  ooc::PolicyEngine::Stats phase_base_;
  std::size_t peak_inflight_ = 0;
  bool phase_contended_ = false;
};

} // namespace hmr::adapt
