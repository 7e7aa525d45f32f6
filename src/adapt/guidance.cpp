#include "adapt/guidance.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hmr::adapt {

namespace {

/// Model-derived break-even inputs.  When the backing store is a
/// remote pool, re-fetching a bypassed block pays the network, which
/// raises the bypass break-even.  The loaded basis matches from_model:
/// every PE's flow sharing the NIC leaves each pes/bandwidth seconds
/// per byte.
AdvisorConfig advisor_config(const hw::MachineModel& m,
                             const std::vector<ooc::TierDesc>& tiers) {
  AdvisorConfig c = AdvisorConfig::from_model(m);
  for (const auto& t : tiers) {
    if (t.backend != ooc::TierBackendKind::Remote) continue;
    c.apply_remote(static_cast<double>(m.num_pes) / t.remote.bandwidth,
                   t.remote.latency);
    break;
  }
  return c;
}

GovernorConfig governor_config(const hw::MachineModel& m,
                               ooc::Strategy strategy, bool eager_evict,
                               int num_pes) {
  HMR_CHECK_MSG(ooc::strategy_moves_data(strategy),
                "adaptive guidance requires a movement strategy");
  GovernorConfig c;
  c.initial_strategy = strategy;
  c.initial_eager_evict = eager_evict;
  c.num_pes = num_pes;
  c.channel_bytes_per_second = m.channel_capacity(m.slow, m.fast);
  return c;
}

void append(std::vector<ooc::Command>& out, std::vector<ooc::Command> cmds) {
  out.insert(out.end(), cmds.begin(), cmds.end());
}

} // namespace

Guidance::Guidance(const hw::MachineModel& model,
                   const std::vector<ooc::TierDesc>& tiers,
                   const ProfilerConfig& profiler_cfg,
                   ooc::Strategy strategy, bool eager_evict, int num_pes,
                   DecisionSink* sink)
    : profiler_(profiler_cfg),
      advisor_(profiler_, advisor_config(model, tiers)),
      governor_(governor_config(model, strategy, eager_evict, num_pes)) {
  advisor_.set_decision_sink(sink);
  governor_.set_decision_sink(sink);
}

void Guidance::sample(const ooc::PolicyEngine& engine) {
  peak_inflight_ = std::max(peak_inflight_, engine.inflight_fetches());
  if (engine.total_waiting() > 0) phase_contended_ = true;
}

std::vector<ooc::Command> Guidance::end_phase(ooc::PolicyEngine& engine,
                                              double phase_seconds,
                                              double wait_fraction) {
  PhaseObservation obs;
  obs.phase_seconds = phase_seconds;
  obs.wait_fraction = wait_fraction;
  const ooc::PolicyEngine::Stats& st = engine.stats();
  obs.tasks = st.tasks_run - phase_base_.tasks_run;
  obs.fetches = st.fetches - phase_base_.fetches;
  obs.fetch_bytes = st.fetch_bytes - phase_base_.fetch_bytes;
  obs.evict_bytes = st.evict_bytes - phase_base_.evict_bytes;
  obs.fetch_dedup_hits = st.fetch_dedup_hits - phase_base_.fetch_dedup_hits;
  obs.lru_reclaims = st.lru_reclaims - phase_base_.lru_reclaims;
  obs.peak_inflight_fetches = peak_inflight_;
  obs.admission_contended = phase_contended_;
  obs.unique_bytes = profiler_.end_phase().unique_bytes;
  phase_base_ = st;
  peak_inflight_ = 0;
  phase_contended_ = false;

  const Decision d = governor_.on_phase_end(obs);
  advisor_.set_streaming_bypass(d.bypass_streaming);
  engine.set_fair_admission(d.fair_admission);
  engine.set_strategy(d.strategy);
  std::vector<ooc::Command> flush = engine.set_eager_evict(d.eager_evict);
  append(flush, engine.set_lru_watermark(d.lru_watermark));
  return flush;
}

} // namespace hmr::adapt
