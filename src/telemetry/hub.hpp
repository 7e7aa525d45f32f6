#pragma once
// Hub: the telemetry planes both executors carry, built, exported and
// audited in one place (docs/OBSERVABILITY.md §11).
//
// hmr::sim and hmr::rt record the same things about the same protocol:
// four histograms, the block flight recorder, the metrics history ring,
// the decision provenance log and the per-task stall attribution
// table.  The hub builds them from one Options struct (HMR_FLIGHT_DEPTH
// and HMR_AUDIT are resolved once, here), hands hot paths plain
// pointers (a disabled plane costs one pointer test), and exports and
// audits them through the ooc::Engine interface.
//
// What only one executor has stays in that executor: the runtime's
// per-shard stats, lock contention, chunk ring, data movement and
// tenancy exports, and its rule that an off-quiescence sharded audit
// reports nothing; the simulator's tenancy export.

#include <cstdint>
#include <functional>
#include <memory>

#include "ooc/engine.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/decision_log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "trace/tracer.hpp"

namespace hmr::telemetry {

class Hub {
public:
  struct Options {
    /// Registry the histograms and exports go to (caller-owned;
    /// nullptr = no metrics, no history).
    MetricsRegistry* registry = nullptr;
    /// Flight recorder depth (0 = off); HMR_FLIGHT_DEPTH overrides.
    std::size_t flight_depth = 0;
    /// History ring depth (0 = off; needs a registry).
    std::size_t history_depth = 0;
    /// Per-task stall attribution: writers pass a shard index in
    /// [0, attrib_shards) to record().
    bool attrib = false;
    std::size_t attrib_shards = 1;
    bool attrib_keep_tasks = false;
    /// Decision provenance log of kDecisionLogDepth records.
    bool decision_log = false;
    /// Invariant audits: -1 = auto, 0 = off, 1 = on (audit_enabled()).
    int audit = -1;
    /// Executor clock in seconds (wall or virtual) for history and
    /// decision timestamps.
    std::function<double()> clock;
  };

  /// Hot-path instruments (all null without a registry).
  struct Histograms {
    Histogram* fetch_ns = nullptr;
    Histogram* evict_ns = nullptr;
    Histogram* task_wait_ns = nullptr;
    Histogram* run_q_depth = nullptr;
  };

  static constexpr std::size_t kDecisionLogDepth = 1024;

  explicit Hub(Options opt);

  Hub(const Hub&) = delete;
  Hub& operator=(const Hub&) = delete;

  MetricsRegistry* registry() const { return reg_; }
  const Histograms& histograms() const { return hist_; }
  BlockFlightRecorder* flight_recorder() const { return flight_.get(); }
  HistoryBuffer* history() const { return history_.get(); }
  DecisionLog* decisions() const { return decisions_.get(); }
  AttributionTable* attribution() const { return attrib_.get(); }
  /// Whether audits run (the Options::audit / HMR_AUDIT verdict taken
  /// at construction).
  bool audit_enabled() const { return audit_; }

  /// One finished migration over [t0, t1] that moved `bytes`: its
  /// trace interval on `lane`, latency histogram and flight record.
  void record_migration(trace::Tracer& tracer, std::int32_t lane,
                        const ooc::Command& cmd, double t0, double t1,
                        std::uint64_t bytes) const {
    const bool fetch = cmd.kind == ooc::Command::Kind::Fetch;
    // Interval.task == 0 means "not task-bound"; the engines use
    // kInvalidTask for untriggered evictions.
    const ooc::TaskId cause = cmd.task == ooc::kInvalidTask ? 0 : cmd.task;
    tracer.record_migration(
        lane, fetch ? trace::Category::Prefetch : trace::Category::Evict, t0,
        t1, cause, cmd.src_tier, cmd.dst_tier, bytes);
    if (Histogram* h = fetch ? hist_.fetch_ns : hist_.evict_ns) {
      h->observe(static_cast<std::uint64_t>((t1 - t0) * 1e9));
    }
    if (flight_) {
      flight_->record(cmd.block,
                      {t1, cause, cmd.src_tier, cmd.dst_tier, bytes, fetch});
    }
  }

  /// Mirror engine stats, attribution, trace drops and per-level tier
  /// occupancy into the registry (no-op without one).
  void export_metrics(const ooc::Engine& engine,
                      const trace::Tracer& tracer) const;
  /// export_metrics(), then one history sample.
  void on_quiescence(const ooc::Engine& engine,
                     const trace::Tracer& tracer) const;

  /// The engine's invariant audit plus the attribution sum check.
  AuditReport audit(const ooc::Engine& engine, double now,
                    bool at_quiescence) const;

private:
  MetricsRegistry* reg_;
  Histograms hist_;
  bool audit_;
  std::unique_ptr<BlockFlightRecorder> flight_;
  std::unique_ptr<HistoryBuffer> history_;
  std::unique_ptr<DecisionLog> decisions_;
  std::unique_ptr<AttributionTable> attrib_;
};

} // namespace hmr::telemetry
