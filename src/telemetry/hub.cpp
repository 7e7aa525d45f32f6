#include "telemetry/hub.hpp"

#include <string>

#include "telemetry/bridge.hpp"

namespace hmr::telemetry {

Hub::Hub(Options opt)
    : reg_(opt.registry), audit_(telemetry::audit_enabled(opt.audit)) {
  if (reg_) {
    // Values are on the executor's clock: wall ns in hmr::rt, virtual
    // ns in hmr::sim.
    hist_.fetch_ns = &reg_->histogram("hmr_fetch_latency_ns", "",
                                      "Fetch migration time (ns)");
    hist_.evict_ns = &reg_->histogram("hmr_evict_latency_ns", "",
                                      "Evict migration time (ns)");
    hist_.task_wait_ns =
        &reg_->histogram("hmr_task_wait_ns", "",
                         "Arrival-to-execution wait per prefetch task (ns)");
    hist_.run_q_depth = &reg_->histogram(
        "hmr_run_queue_depth", "", "Ready-queue depth observed per dequeue");
    if (opt.history_depth > 0) {
      history_ = std::make_unique<HistoryBuffer>(*reg_, opt.history_depth);
      history_->set_clock(opt.clock);
    }
  }
  if (const std::size_t depth = flight_depth_from_env(opt.flight_depth);
      depth > 0) {
    flight_ = std::make_unique<BlockFlightRecorder>(depth);
  }
  if (opt.decision_log) {
    decisions_ = std::make_unique<DecisionLog>(kDecisionLogDepth);
    decisions_->set_clock(opt.clock);
  }
  if (opt.attrib) {
    AttributionTable::Options ao;
    ao.shards = opt.attrib_shards;
    ao.keep_tasks = opt.attrib_keep_tasks;
    attrib_ = std::make_unique<AttributionTable>(ao);
  }
}

void Hub::export_metrics(const ooc::Engine& engine,
                         const trace::Tracer& tracer) const {
  if (!reg_) return;
  export_policy_stats(*reg_, engine.engine_stats());
  if (attrib_) attrib_->export_metrics(*reg_);
  reg_->counter("hmr_trace_events_dropped_total", "",
                "Trace intervals lost to ring overflow")
      .set(tracer.dropped());
  const auto& tiers = engine.tiers();
  for (std::size_t k = 0; k < tiers.size(); ++k) {
    const std::string labels = prom_label("level", std::to_string(k));
    reg_->gauge("hmr_tier_used_bytes", labels,
                "Bytes claimed on the hierarchy level")
        .set(static_cast<double>(
            engine.tier_used(static_cast<std::int32_t>(k))));
    reg_->gauge("hmr_tier_capacity_bytes", labels,
                "Level budget (0 = unbounded bottom)")
        .set(static_cast<double>(tiers[k].capacity));
  }
}

void Hub::on_quiescence(const ooc::Engine& engine,
                        const trace::Tracer& tracer) const {
  if (!reg_) return;
  export_metrics(engine, tracer);
  if (history_) history_->sample();
}

AuditReport Hub::audit(const ooc::Engine& engine, double now,
                       bool at_quiescence) const {
  AuditReport r;
  r.time = now;
  r.at_quiescence = at_quiescence;
  r.violations = engine.audit_invariants(at_quiescence);
  if (attrib_) {
    const AttributionTable::Rollup roll = attrib_->rollup();
    if (roll.sum_violations > 0) {
      r.violations.push_back(
          "attribution buckets fail to sum to wall time on " +
          std::to_string(roll.sum_violations) + " tasks (worst rel err " +
          std::to_string(roll.worst_rel_err) + ")");
    }
  }
  return r;
}

} // namespace hmr::telemetry
