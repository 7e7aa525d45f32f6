#pragma once
// SimExecutor: discrete-event execution of a Workload under one
// scheduling Strategy on a modeled heterogeneous-memory node.
//
// This is the paper-scale executor: it runs the PolicyEngine protocol
// on a virtual KNL (64 PEs, 16 GB MCDRAM, 96 GB DDR4) with virtual
// time, so the figure benches can sweep working sets of tens of GB on
// any host.  Timing comes from hw::MachineModel:
//   * task execution: bandwidth-shared roofline (compute_time) over
//     the tier each dependence is resident on,
//   * migrations: one fluid TransferChannel per ordered tier pair
//     (created on first use), each capped per-flow and in aggregate —
//     a two-tier model gets exactly the classic fetch (slow->fast) and
//     evict (fast->slow) channels,
//   * fixed overheads for scheduling and numa_alloc/free.
//
// Lanes: worker PEs are trace lanes [0, num_pes); IO agents are lanes
// [num_pes, num_pes + num_agents).  Worker-inline transfers (SyncNoIo,
// or evict_by_worker) block and are traced on the worker's own lane —
// that *is* the synchronous overhead of the paper's Fig 6a.
//
// Shared with hmr::rt: adaptive runs drive one adapt::Guidance (the
// simulator measures each phase's wait fraction from the tracer or its
// compute-seconds delta, and drains the governor's eviction flush by
// running the event queue dry), and the telemetry planes live in one
// telemetry::Hub, on virtual time.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "adapt/guidance.hpp"
#include "hw/machine_model.hpp"
#include "ooc/policy_engine.hpp"
#include "serve/tenant_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/transfer_channel.hpp"
#include "sim/workload.hpp"
#include "telemetry/hub.hpp"
#include "trace/tracer.hpp"
#include "util/stats.hpp"

namespace hmr::sim {

struct SimConfig {
  hw::MachineModel model;
  ooc::Strategy strategy = ooc::Strategy::MultiIo;

  // PolicyEngine knobs (see ooc::PolicyEngine::Config).
  bool eager_evict = true;
  bool evict_by_worker = false;
  bool writeonly_nocopy = false;

  /// Fast-tier budget override in bytes; 0 = the model's fast tier
  /// capacity (16 GB on KNL).  Applies to the top hierarchy level.
  std::uint64_t fast_capacity = 0;

  /// Placement hierarchy override, fastest level first (contract of
  /// ooc::PolicyEngine::Config::tiers).  Empty = derive from `model`:
  /// its tiers in bandwidth order, bottom unbounded — so a two-tier
  /// model behaves exactly like the classic fast/slow simulator and a
  /// three-tier model gets a genuine three-level hierarchy.
  std::vector<ooc::TierDesc> tiers;
  /// Demotion cascade on >2-level hierarchies (see
  /// ooc::PolicyEngine::Config::demote_cascade).
  bool demote_cascade = true;

  /// Physical IO threads.  0 = strategy default (SingleIo: 1,
  /// MultiIo: one per PE).  For MultiIo, k < num_pes assigns each a
  /// subgroup of wait queues (engine agent a -> thread a % k) — the
  /// paper's §IV-B future-work knob, measured by bench/abl_iothreads.
  int io_threads = 0;

  /// Record a full interval trace (needed for figs 5/6 and timelines).
  bool trace = false;

  /// Caller-owned metrics registry (optional).  When set, the executor
  /// maintains latency/wait/queue-depth histograms in *virtual*
  /// nanoseconds and mirrors engine stats, tier occupancy and trace
  /// drops into it at the end of run().
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Block flight recorder depth (0 = off; the DES can run millions of
  /// virtual migrations, so this is opt-in unlike the rt executor).
  /// The HMR_FLIGHT_DEPTH environment variable overrides a non-zero
  /// value at construction (clamped to [0, 1024]).
  std::size_t flight_depth = 0;
  /// Metrics history ring: with `metrics` set, sample the registry at
  /// every iteration boundary (virtual timestamps) into a bounded ring
  /// readable through history() (0 disables).
  std::size_t history_depth = 240;

  /// Per-task stall attribution (telemetry::AttributionTable): every
  /// retired task's wall time decomposed into compute / fetch-wait /
  /// queue-wait / remote-serialization / eviction-stall buckets with
  /// per-phase, per-tenant, per-tier-pair and per-block rollups.  On
  /// automatically whenever `metrics` is set (rollups are O(1) per
  /// task); set this to force it on without a registry.
  bool attrib = false;
  /// Retain each task's full TaskAttribution record (bytes-by-tier
  /// included) so the what-if estimator can re-cost individual tasks.
  bool attrib_keep_tasks = false;

  /// Engine invariant audit (plus the attribution sum check) at the
  /// end of run(): -1 = auto (on in debug / sanitizer builds, HMR_AUDIT
  /// env overrides), 0 = off, 1 = on.  A violation aborts
  /// (telemetry::check_audit).
  int audit = -1;

  /// Model KNL *cache mode* instead of flat mode (paper §III-B; the
  /// comparison the paper defers to future work).  All blocks live in
  /// DDR4 and the hardware transparently caches them in MCDRAM; task
  /// time follows hw::MachineModel::cache_mode_compute_time with the
  /// node-wide working set.  Requires a non-moving strategy (forced to
  /// DdrOnly placement internally).
  bool cache_mode = false;

  /// Node-level run queue (paper §IV-B future work: "we plan to use a
  /// node-level run queue").  Ready tasks go to one shared queue and
  /// any idle PE picks them up, smoothing the load imbalance the
  /// per-PE run queues leave when chare counts do not divide evenly.
  bool node_run_queue = false;

  /// KNL *hybrid mode* (paper §III-B): this fraction of MCDRAM is flat
  /// (the runtime's prefetch budget); the rest serves as a hardware
  /// cache in front of DDR4, so slow-resident accesses run at the
  /// cache-mode effective bandwidth instead of raw DDR4.  0 disables
  /// (pure flat mode); combine with any strategy.
  double hybrid_cache_fraction = 0.0;

  /// Multi-tenant serving (src/serve/): when tenants are registered,
  /// the engine is wrapped in a serve::TenantEngine keyed on
  /// TaskDesc::tenant — QoS-aware admission (token buckets, queue
  /// backpressure, quota gate, starvation aging), per-tenant placement
  /// quotas with quota-aware demotion advice, and priority dispatch
  /// (an SLO tenant's fetch displaces a best-effort tenant's queued
  /// prefetch on the IO agent lanes).  Token buckets and latency
  /// percentiles run on virtual time.  Incompatible with `adaptive`
  /// (both want the engine's advisor slot).
  serve::ServeConfig serve;

  /// Online adaptive guidance (src/adapt/): profile block accesses,
  /// install a PlacementAdvisor on the engine, and let a
  /// StrategyGovernor retune strategy / eviction / fair admission at
  /// every iteration boundary.  `strategy` and `eager_evict` above are
  /// the *starting* configuration.  Requires a movement strategy.
  /// Every decision lands in a provenance log (decision_log()),
  /// timestamped in virtual seconds.
  bool adaptive = false;
  adapt::ProfilerConfig profiler_cfg;
};

struct SimResult {
  double total_time = 0;
  std::vector<double> iteration_times;
  std::uint64_t tasks_completed = 0;
  ooc::PolicyEngine::Stats policy;

  /// Per-task latency from message arrival to kernel start (queueing +
  /// fetch wait; the paper's pre-step delay in Fig 6).
  RunningStats task_wait;
  /// Per-task kernel execution time.
  RunningStats task_exec;
  /// Seconds each worker lane spent blocked on synchronous fetch/evict
  /// (zero under fully asynchronous strategies).
  double worker_transfer_seconds = 0;
  /// Total compute lane-seconds (for utilization figures).
  double compute_lane_seconds = 0;
  /// Network messages the remote-tier migrations decomposed into
  /// (zero on all-local hierarchies; deterministic, so CI gates on it).
  std::uint64_t remote_messages = 0;

  // Adaptive runs only (SimConfig::adaptive):
  /// Strategy / evict-policy changes the governor made.
  std::uint64_t governor_switches = 0;
  /// Configuration the run ended on.
  ooc::Strategy final_strategy = ooc::Strategy::MultiIo;
  bool final_eager_evict = true;

  /// Fraction of worker lane-time that is not compute over the run
  /// span (the "red" of the paper's projections figures).
  double worker_overhead_fraction(int num_pes) const {
    const double span_total = total_time * num_pes;
    if (span_total <= 0) return 0;
    return 1.0 - compute_lane_seconds / span_total;
  }
};

class SimExecutor {
public:
  explicit SimExecutor(SimConfig cfg);

  // Clocks, the tenancy decorator and active_ point into this object.
  SimExecutor(const SimExecutor&) = delete;
  SimExecutor& operator=(const SimExecutor&) = delete;

  /// Run the workload to quiescence; returns timing and stats.
  /// May be called once per executor instance.
  SimResult run(const Workload& w);

  /// Valid after run() when cfg.trace was set.
  const trace::Tracer& tracer() const { return tracer_; }
  trace::Tracer& tracer() { return tracer_; }

  int num_agents() const { return num_agents_; }

  /// Adaptive runs: the guidance loop and its components (nullptr
  /// otherwise).
  const adapt::Guidance* guidance() const { return guidance_.get(); }
  const adapt::BlockProfiler* profiler() const {
    return guidance_ ? &guidance_->profiler() : nullptr;
  }
  const adapt::StrategyGovernor* governor() const {
    return guidance_ ? &guidance_->governor() : nullptr;
  }

  /// Block flight recorder (nullptr when SimConfig::flight_depth == 0).
  const telemetry::BlockFlightRecorder* flight_recorder() const {
    return hub_.flight_recorder();
  }

  /// Metrics history ring sampled at iteration boundaries (nullptr
  /// unless SimConfig::metrics and history_depth > 0).
  const telemetry::HistoryBuffer* history() const { return hub_.history(); }

  /// Decision provenance log (nullptr unless SimConfig::adaptive).
  const telemetry::DecisionLog* decision_log() const {
    return hub_.decisions();
  }

  /// Per-task stall attribution (nullptr unless SimConfig::attrib or
  /// SimConfig::metrics).
  const telemetry::AttributionTable* attribution() const {
    return hub_.attribution();
  }

  /// Multi-tenant serving decorator (nullptr unless SimConfig::serve
  /// registered tenants).
  const serve::TenantEngine* tenancy() const { return tenancy_.get(); }

  /// The engine's ledgers after run() — cluster BlockStores reconcile
  /// per-level residency against the PlacementCoordinator with this.
  const ooc::PolicyEngine& engine() const { return engine_; }

private:
  struct Job {
    bool is_task = false;
    ooc::TaskId task = ooc::kInvalidTask;
    ooc::Command cmd; // transfer jobs
  };

  struct Lane {
    bool busy = false;
    std::deque<Job> q;
  };

  struct FlowCtx {
    ooc::Command cmd;
    std::int32_t trace_lane = 0;
    bool on_worker = false;
    std::size_t lane_index = 0; // index into pes_ or agents_
    double t0 = 0;
  };

  void process(std::vector<ooc::Command> cmds);
  /// Route one arrival (profiled first on adaptive runs): straight to
  /// the engine, or through tenancy admission (Reject drops the task;
  /// Defer parks it for release on a later engine event).
  void dispatch_arrival(const ooc::TaskDesc& desc);
  /// Queue an IO command on its agent lane — QoS-priority insertion
  /// when tenancy's priority dispatch is on, FIFO otherwise.
  void enqueue_agent(const ooc::Command& c);
  bool engine_quiescent() const { return active_->quiescent(); }
  /// Close the run: final stats, idle fill, audit, registry export.
  SimResult finish();
  void pump_pe(std::size_t pe);
  void pump_node_queue();
  void pump_agent(std::size_t a);
  void start_transfer(const ooc::Command& cmd, std::size_t lane_index,
                      bool on_worker);
  void finish_transfer(std::uint64_t flow_id);
  void finish_task(ooc::TaskId id, std::size_t pe, double t_start,
                   double duration);
  void inject_task(const ooc::TaskDesc& desc);
  void governor_phase_end(double t_iter);
  double exec_duration(const ooc::TaskDesc& desc) const;
  /// Fluid channel for migrations src -> dst (created on first use
  /// from the model's copy_rate / channel_capacity for that pair, or
  /// from the remote tier's network path when either end is Remote).
  TransferChannel& channel_for(ooc::TierId src, ooc::TierId dst);
  /// Network parameters when either endpoint is a Remote-backed tier
  /// (nullptr for local-to-local migrations).
  const ooc::RemoteTierParams* remote_path(ooc::TierId src,
                                           ooc::TierId dst) const;
  void schedule_tick(std::uint64_t pair_key);
  void drain_channel(std::uint64_t pair_key);

  static std::uint64_t pair_key(ooc::TierId src, ooc::TierId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }

  SimConfig cfg_;
  ooc::PolicyEngine engine_;
  /// Tenancy decorator over engine_ (null = single-tenant: events go
  /// straight to engine_, byte-identical to the pre-tenancy executor).
  std::unique_ptr<serve::TenantEngine> tenancy_;
  /// The engine every completion event, audit and quiescence check
  /// goes through: tenancy_ if tenants are registered, else engine_.
  ooc::Engine* active_ = &engine_;
  EventQueue eq_;
  double now_ = 0;
  int num_agents_ = 0;

  std::vector<Lane> pes_;
  std::vector<Lane> agents_;
  std::deque<ooc::TaskId> node_q_; // shared run queue (optional)

  /// Migration channels keyed by pair_key(src, dst); lazily created.
  std::unordered_map<std::uint64_t, std::unique_ptr<TransferChannel>>
      channels_;
  /// Network path per Remote-backed tier id (from the engine's
  /// TierDesc::remote params at construction).
  std::unordered_map<ooc::TierId, ooc::RemoteTierParams> remote_params_;
  std::uint64_t next_flow_ = 1;
  std::unordered_map<std::uint64_t, FlowCtx> flows_;

  const Workload* wl_ = nullptr;
  std::uint64_t wss_ = 0;        // node-wide working set
  // Dependency-DAG delivery (tasks with TaskDesc::predecessors).
  std::unordered_map<ooc::TaskId, std::vector<ooc::TaskId>> dependents_;
  std::unordered_map<ooc::TaskId, std::size_t> pending_preds_;
  std::uint64_t dag_injected_ = 0;
  std::uint64_t hybrid_cache_ = 0; // bytes of MCDRAM serving as cache
  double hybrid_slow_bw_ = 0;      // effective bw of cached slow access
  std::unordered_map<ooc::TaskId, ooc::TaskDesc> descs_;
  std::unordered_map<ooc::TaskId, double> arrive_;

  // Adaptive guidance (owned; engine holds a raw advisor pointer).
  std::unique_ptr<adapt::Guidance> guidance_;
  double phase_compute_base_ = 0; // compute lane-seconds at phase start

  // Telemetry planes, on virtual time, recording into the caller's
  // registry (SimConfig::metrics).
  telemetry::Hub hub_;
  // Stall attribution: migrations a task caused, keyed by that task,
  // consumed (decomposed into buckets) when the task retires.
  std::unordered_map<ooc::TaskId, std::vector<telemetry::WaitSegment>>
      waits_;
  std::int64_t attrib_phase_ = 0;
  void note_wait(ooc::TaskId cause, double t0, const ooc::Command& cmd);
  /// Registry exports only the simulator has (tenancy).
  void export_sim_metrics();

  trace::Tracer tracer_;
  SimResult result_;
  bool ran_ = false;
};

} // namespace hmr::sim
