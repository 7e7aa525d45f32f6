#pragma once
// Runtime: a charm-lite threaded runtime with memory-heterogeneity
// aware scheduling — the real-execution counterpart of hmr::sim.
//
// Shape (paper §III-A / §IV):
//   * work is over-decomposed into chares, block-mapped onto PE worker
//     threads; chares never migrate;
//   * entry methods are delivered as messages through a per-PE
//     converse-style scheduler loop;
//   * entry methods annotated `prefetch` are *intercepted*: instead of
//     executing, the runtime registers an OOCTask with the policy
//     engine, whose commands drive real block migrations between two
//     host-memory tier arenas (MemoryManager) before the method is
//     queued on the PE's run queue;
//   * IO threads (0, 1 or one per PE, by strategy) perform the
//     asynchronous fetches and evictions; synchronous strategies run
//     them inline on the worker, exactly like the paper's
//     pre/post-processing steps.  A migration back onto a block's
//     clean shadow copy is a pointer swap and completes inline on
//     whichever thread receives the command (docs/PERF.md §4).
//
// Scheduling: every engine visit goes through one ooc::Engine.  The
// default MultiIo + eager-eviction configuration drives a ShardedEngine
// — one engine shard per PE, striped block locks and a work-stealing
// HBM budget — so admission and completion on different PEs never
// serialize.  Every other configuration (SingleIo, SyncNoIo, lazy
// eviction, adaptive) drives the serial ooc::PolicyEngine under one
// mutex, held across each batch of events a PE or IO thread drains.
// Both engines take the one engine Config the constructor builds and
// share their protocol steps (ooc/protocol.hpp); ShardedEngine::covers
// picks between them.  Registered tenants wrap either engine in a
// serve::TenantEngine.  The paths differ only in locking; hmr::sim
// always uses the serial engine.
//
// Shared with hmr::sim: adaptive runs drive one adapt::Guidance (the
// runtime measures each phase's wait fraction from the tracer and
// drains the governor's eviction flush by waiting for idle), and the
// telemetry planes — histograms, flight recorder, history, decision
// log, attribution, audits — live in one telemetry::Hub.  What stays
// here is only the runtime's own: per-shard, lock, chunk-ring, data
// movement and tenancy exports, the status server, the watchdog.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "adapt/guidance.hpp"
#include "hw/machine_model.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "rt/sharded_engine.hpp"
#include "serve/tenant_engine.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/serve.hpp"
#include "telemetry/watchdog.hpp"
#include "trace/contention.hpp"
#include "trace/tracer.hpp"

namespace hmr::rt {

class Runtime {
public:
  struct Config {
    /// Node model: tier shapes and roles (capacities get scaled).
    hw::MachineModel model = hw::knl_flat_all_to_all();
    /// Scale factor applied to tier capacities (1/1024 turns the
    /// 16 GB/96 GB KNL into a 16 MiB/96 MiB testbed).
    double mem_scale = 1.0 / 1024;
    ooc::Strategy strategy = ooc::Strategy::MultiIo;
    int num_pes = 4;
    bool eager_evict = true;
    bool evict_by_worker = false;
    bool writeonly_nocopy = false;
    /// Record per-PE execution intervals.
    bool trace = false;
    /// Tracer knobs (per-lane ring capacity).
    trace::Tracer::Options trace_opts;
    /// Maintain a MetricsRegistry: latency/wait/queue-depth histograms
    /// updated inline, engine/lock/chunk counters mirrored at each
    /// wait_idle() (and on demand via sample_metrics()).  Read it
    /// through metrics().
    bool metrics = false;
    /// Block flight recorder depth: keep the last N residency
    /// transitions per live block for post-mortem debugging (0
    /// disables).  One table lookup and one uncontended ring guard per
    /// migration, no mutex; one ring of N slots per live block,
    /// dropped by free_block().  HMR_FLIGHT_DEPTH=0 cuts perfbench
    /// cg_fine step_p50_ms by 2.3% (6 of 6 same-binary pairs, 4-vCPU
    /// x86-64 guest; docs/OBSERVABILITY.md §5), so it is on by default.
    /// The HMR_FLIGHT_DEPTH environment variable overrides this at
    /// construction (clamped to [0, 1024]).
    std::size_t flight_depth = 8;
    /// Metrics history ring: keep the last N registry snapshots, one
    /// sampled at every wait_idle() quiescence tick, served via
    /// /history and tools/hmr_top (0 disables; needs `metrics`).
    std::size_t history_depth = 240;
    /// Pin threads to cores (Linux): PE i on core i, its IO thread on
    /// the SMT sibling when one exists — the paper's placement ("the
    /// IO threads are scheduled on the hyperthread cores corresponding
    /// to the worker threads, so as to not increase the usage of the
    /// number of physical cores").  No-op when cores are scarce.
    bool pin_threads = false;
    /// Online adaptive guidance (src/adapt/): the adapt::Guidance loop
    /// hmr::sim drives too, here under the engine lock.  Phase
    /// boundaries are wait_idle() calls (one governor step per call).
    /// Requires a movement strategy; `strategy` / `eager_evict` above
    /// are the starting point.  Wait fraction is read from the tracer
    /// when tracing is on (0 otherwise — the thresholds that depend on
    /// it simply never fire).  Every decision lands in a provenance
    /// log, served via /decisions and hmr_trace --decisions.
    bool adaptive = false;
    adapt::ProfilerConfig profiler_cfg;

    /// Chunked cooperative migration: block copies of at least
    /// `chunk_threshold` bytes stream through the MemoryManager's
    /// ChunkRing in `chunk_bytes` pieces so idle IO threads and PEs
    /// with nothing to run can assist on one large transfer (a PE
    /// takes one chunk at a time, so a task that becomes ready waits
    /// for at most one chunk copy).  0 disables chunking.
    /// `chunk_bytes` also bounds the copies a PE makes itself: a
    /// migration of at most one chunk that is below the threshold (and
    /// has no copy-free path) is copied by the thread that handles its
    /// command, without a round trip through an IO thread.
    std::uint64_t chunk_threshold = 1ull << 20;
    std::uint64_t chunk_bytes = 256ull << 10;
    /// Collect scheduler lock-contention counters (bench/rt_contention
    /// reads them via lock_stats()).
    bool lock_stats = false;

    /// Placement hierarchy override, fastest level first (same contract
    /// as ooc::PolicyEngine::Config::tiers, with capacities in
    /// *post-mem_scale* bytes).  Empty = derive from `model`: levels in
    /// bandwidth order, non-bottom budgets equal to the scaled arenas,
    /// bottom unbounded.  A two-tier model therefore behaves exactly
    /// like the classic fast/slow runtime.
    std::vector<ooc::TierDesc> tiers;
    /// Demotion cascade on >2-level hierarchies: evicted blocks land on
    /// the first lower level with room instead of going straight to the
    /// bottom.  No effect on two-level hierarchies.
    bool demote_cascade = true;

    // ---- live introspection & self-diagnosis (src/telemetry/) ----

    /// Status server port: -1 = off (default), 0 = any free loopback
    /// port (read it back with serve_port()), >0 = that port.  The
    /// server binds 127.0.0.1 only and serves /healthz, /metrics,
    /// /status, /tenants, /attrib, /blocks?id=N, /history and
    /// /decisions.  Enabling it forces `metrics` on so /metrics has
    /// something to say.
    int serve_port = -1;
    /// Stall watchdog: a monitor thread that trips when outstanding
    /// work stops retiring (see telemetry::Watchdog).  Off by default
    /// so tests and benches stay byte-identical in output.
    bool watchdog = false;
    telemetry::Watchdog::Config watchdog_cfg;
    /// Engine invariant audits at every wait_idle(): -1 = auto (on in
    /// debug / sanitizer builds, HMR_AUDIT env overrides), 0 = off,
    /// 1 = on.  A failed audit aborts (telemetry::check_audit).
    int audit = -1;

    /// Multi-tenant serving (src/serve/): registering tenants wraps
    /// the active engine (serial or sharded) in a serve::TenantEngine
    /// — QoS-aware admission, per-tenant placement quotas, priority
    /// dispatch on the IO queues, a /tenants status route and
    /// tenant-labeled metrics.  Tag work via send_prefetch's tenant
    /// argument.  Note the decorator serializes engine events, so the
    /// sharded path loses shard concurrency while tenancy is on
    /// (docs/SERVING.md).  Incompatible with `adaptive` (both claim
    /// the engine's advisor slot).  With no tenants registered the
    /// runtime is byte-identical to the pre-tenancy build.
    serve::ServeConfig serve;
  };

  explicit Runtime(Config cfg);
  ~Runtime(); // drains and joins all threads

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  const Config& config() const { return cfg_; }
  int num_pes() const { return cfg_.num_pes; }
  int num_io_threads() const { return static_cast<int>(io_.size()); }

  mem::MemoryManager& memory() { return *mm_; }
  trace::Tracer& tracer() { return tracer_; }

  /// Metrics registry (nullptr unless Config::metrics).  Histograms
  /// are live; mirrored counters are refreshed by sample_metrics().
  telemetry::MetricsRegistry* metrics() { return metrics_.get(); }
  /// Refresh every bridged counter/gauge (engine stats, per-shard
  /// stats, lock contention, chunk ring, tier occupancy, trace drops)
  /// into the registry.  Called from wait_idle(); also usable as a
  /// SnapshotSampler pre-sample callback.  No-op when metrics are off.
  void sample_metrics();

  /// Block flight recorder (nullptr when Config::flight_depth == 0).
  const telemetry::BlockFlightRecorder* flight_recorder() const {
    return hub_.flight_recorder();
  }

  /// Metrics history ring (nullptr unless metrics + history_depth).
  /// One sample per wait_idle() quiescence tick.
  const telemetry::HistoryBuffer* history() const { return hub_.history(); }
  /// Decision provenance log (nullptr unless adaptive).  Snapshot
  /// reads are safe from any thread.
  const telemetry::DecisionLog* decisions() const {
    return hub_.decisions();
  }

  /// Per-task stall attribution (nullptr unless Config::metrics):
  /// fetch-wait / queue-wait / compute per retired prefetch task,
  /// rolled up per tenant and served via /attrib.  Sharded per PE;
  /// read rollup() at quiescence for exact totals.
  const telemetry::AttributionTable* attribution() const {
    return hub_.attribution();
  }

  // ---- data blocks ----

  /// Allocate a migratable data block of `bytes`.  Placement follows
  /// the strategy (movement strategies: the bottom hierarchy level;
  /// Naive: fastest level with room).  Dies if the placement tier
  /// cannot hold it.
  mem::BlockId alloc_block(std::uint64_t bytes);

  /// Current storage of a block (moves as the runtime migrates it).
  /// Migrated blocks keep clean shadow copies (docs/PERF.md §4), so a
  /// write through this pointer outside a ReadWrite/WriteOnly
  /// dependency must be followed by memory().mark_dirty(b); audited
  /// runs abort on the first stale swap.
  void* block_ptr(mem::BlockId b) { return mm_->block_ptr(b); }

  /// Release a block.  It must be idle: no outstanding task depends on
  /// it and no migration is in flight (call at quiescence).  Its
  /// flight-recorder history is dropped with it.
  void free_block(mem::BlockId b);

  // ---- messaging ----

  using Body = std::function<void()>;
  using DepList = std::vector<ooc::Dep>;

  /// Deliver a plain (non-prefetch) entry method invocation to `pe`.
  void send(int pe, Body body);

  /// Deliver a [prefetch]-annotated entry method invocation: the
  /// converse scheduler on `pe` will intercept it, ensure `deps` are
  /// resident in the fast tier under the configured strategy, and only
  /// then execute `body`.
  /// `tenant` keys tenancy admission/quotas/stats when Config::serve
  /// registered tenants (ignored — and must stay 0 — otherwise).
  void send_prefetch(int pe, DepList deps, Body body,
                     double work_factor = 1.0, std::uint32_t tenant = 0);

  struct PrefetchMsg {
    DepList deps;
    Body body;
    double work_factor = 1.0;
    std::uint32_t tenant = 0;
  };
  /// Batched send_prefetch: one outstanding-work update, one queue lock
  /// and one wakeup for the whole vector.
  void send_prefetch_batch(int pe, std::vector<PrefetchMsg> msgs);

  /// Block until every delivered message has executed and all
  /// fetch/evict traffic has drained (quiescence detection).
  void wait_idle();

  /// Seconds since runtime start (the tracer's clock).
  double now() const;

  // ---- introspection ----

  ooc::PolicyEngine::Stats policy_stats();
  std::uint64_t tasks_executed() const;

  /// True when this configuration runs the sharded engine.
  bool sharded() const { return sharded_ != nullptr; }
  /// Shards of the active engine (1 on the serial path).
  int engine_shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }
  /// TierBudget work-stealing rebalances (sharded path; 0 otherwise).
  std::uint64_t budget_steals() const {
    return sharded_ ? sharded_->budget_steals() : 0;
  }
  /// Scheduler-lock contention counters; nullptr unless
  /// Config::lock_stats.  Slot i = engine shard i (serial path: one
  /// slot for the global engine mutex).
  const trace::ContentionStats* lock_stats() const {
    return lock_stats_.get();
  }

  /// Adaptive runs: the guidance loop and its components (nullptr
  /// otherwise).  Read only at quiescence — the PE/IO threads feed them.
  const adapt::Guidance* guidance() const { return guidance_.get(); }
  const adapt::BlockProfiler* profiler() const {
    return guidance_ ? &guidance_->profiler() : nullptr;
  }
  const adapt::StrategyGovernor* governor() const {
    return guidance_ ? &guidance_->governor() : nullptr;
  }

  /// Multi-tenant serving decorator (nullptr unless Config::serve
  /// registered tenants).  Snapshot/JSON reads are safe from any
  /// thread.
  const serve::TenantEngine* tenancy() const { return tenancy_.get(); }

  // ---- live introspection & self-diagnosis ----

  /// Bound status-server port (0 when Config::serve_port was -1 or the
  /// bind failed; the failure is a one-line stderr warning, not fatal).
  std::uint16_t serve_port() const {
    return server_ ? server_->port() : 0;
  }
  /// Stall watchdog (nullptr unless Config::watchdog).
  const telemetry::Watchdog* watchdog() const { return watchdog_.get(); }

  /// Run the engine invariant audit (plus the attribution sum check)
  /// now.  The serial engine audits at any time (under its lock); the
  /// sharded engine's ledgers are only exact at quiescence, so
  /// off-quiescence sharded calls return an empty report with
  /// at_quiescence=false rather than false-positive.
  telemetry::AuditReport audit_now();
  /// wait_idle() audits completed so far (0 when audits are disabled).
  std::uint64_t audit_runs() const;

  /// The /status document: one JSON object with queue depths,
  /// heartbeat ages, tier occupancy, governor and watchdog state and
  /// the last audit report.  Safe from any thread.
  std::string status_json();
  /// Full diagnostic bundle: status + metrics snapshot + flight
  /// recorder + trace summary.  Written on watchdog trips; operators
  /// can call it any time.
  void write_diagnostics(std::ostream& os);

private:
  struct Msg {
    Body body;
    DepList deps;
    double work_factor = 1.0;
    bool prefetch = false;
    std::uint32_t tenant = 0;
  };

  struct ReadyTask {
    ooc::TaskId id;
    Body body;
    double t_arrive = 0; // interception time (metrics runs only)
    double t_ready = 0;  // Run-command time: deps resident, queued
    std::uint32_t tenant = 0;
    // Blocks this task declared writable: their shadows are
    // invalidated right after the body executes.
    std::vector<mem::BlockId> writes;
  };

  struct PeWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Msg> msgs;          // converse message queue
    std::deque<ReadyTask> run_q;   // tasks with resident data
    std::thread thread;
  };

  struct IoWorker {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<ooc::Command> cmds;
    std::thread thread;
  };

  /// Pending (intercepted, not yet runnable) task bodies, sharded per
  /// PE: a task is inserted by its home PE and removed when its Run
  /// command (always targeted at the same PE) arrives, so two PEs
  /// never contend on one map.
  struct alignas(64) PendingShard {
    std::mutex mu;
    std::unordered_map<ooc::TaskId, ReadyTask> map;
  };

  struct alignas(64) PadCounter {
    std::atomic<std::uint64_t> v{0};
  };

  void pe_loop(int pe);
  void io_loop(int io);
  /// The one delivery path of every send: one work_add, one queue lock
  /// and one wakeup for the messages.
  void deliver(int pe, std::span<Msg> msgs);
  void run_ready_batch(int pe, std::vector<ReadyTask>& tasks);
  void intercept_batch(int pe, std::vector<Msg>& msgs);
  /// IO loop: execute a batch of queued migrations (step 1-3), hand
  /// their completions to the engine in one visit and retire them.
  void perform_transfers(std::span<const ooc::Command> cmds,
                         int trace_lane);
  /// A migration of `bytes` that found no copy-free path is copied by
  /// the thread that holds its command: it fits in one ChunkRing chunk
  /// (`chunk_bytes`) and is below the chunking threshold.
  bool copies_inline(std::uint64_t bytes) const;
  /// Execute one migration (step 1-3) and record it.
  void do_migrate(const ooc::Command& cmd, int trace_lane);
  /// Hub record (trace interval, latency histogram, flight record) and
  /// fetch bookkeeping of one finished migration.
  void record_migration(const ooc::Command& cmd, bool copied, double ts,
                        double te, int trace_lane);
  /// Dispatch engine commands.  Every Fetch/Evict of a batch first
  /// tries the copy-free path, all together under one hold of the
  /// MemoryManager's block lock (try_swap_batch).  One that does not
  /// swap is copied right here when it is worker-inline or fits in one
  /// chunk (copies_inline), and goes to its IO queue otherwise.  The
  /// batch's swaps and copies complete in one ev_transfers visit, whose
  /// commands are dispatched the same way until none completes here.
  void process(std::vector<ooc::Command> cmds, int context_lane);
  /// Hold the engine lock for a visit to engine_: engine_mu_ (counted
  /// in lock_stats slot 0) when the innermost engine is serial_, no
  /// lock otherwise (the sharded engine is thread-safe).
  std::unique_lock<std::mutex> lock_engine();
  /// Batch of arrival events, one engine visit each under one lock.
  std::vector<ooc::Command> ev_arrivals(
      const std::vector<ooc::TaskDesc>& descs);
  /// Batch of fetch/evict completion events for finished migrations.
  std::vector<ooc::Command> ev_transfers(
      std::span<const ooc::Command> done);
  /// `outstanding_` += n: messages at their send, transfers at their
  /// dispatch.
  void work_add(std::uint64_t n);
  /// `outstanding_` -= n, waking idle waiters on the final one: a
  /// message once its task's post-processing has been dispatched, a
  /// transfer once its completion cascade has.
  void work_done(std::uint64_t n);
  /// Block until no work is outstanding and the engine is quiescent
  /// (wait_idle and the governor's flush).
  void wait_quiescent();
  /// Wake every IO thread and PE so idle ones can assist a chunked
  /// copy (a PE with nothing to run copies one chunk per check of its
  /// queues).
  void poke_for_assist();
  /// Called under lock_engine() after an engine event (adaptive runs,
  /// serial engine only): hand the commands to the guidance loop.
  void observe_locked(const std::vector<ooc::Command>& cmds);
  /// One governor step; called from wait_idle at quiescence.
  void governor_phase_end();
  /// Registry exports only the runtime has: per-shard stats, tenancy,
  /// lock contention, chunk ring, data movement.
  void export_runtime_metrics();
  /// Steady-clock ns since t0_ (heartbeat / fetch-age timebase).
  std::uint64_t now_ns() const;
  /// Fetch-latency p99 in seconds from the metrics histogram (<= 0 =
  /// unknown: metrics off or no fetches observed yet).
  double fetch_p99_seconds() const;
  /// Start status server / watchdog (constructor tail, after the
  /// worker threads exist) and stop them (destructor head, while the
  /// workers are still alive to answer hooks).
  void start_introspection();
  void stop_introspection();
  /// wait_idle() audit step: run, record for /status, fail-stop.
  void run_wait_idle_audit();

  Config cfg_;
  std::unique_ptr<mem::MemoryManager> mm_;

  /// The one engine every visit goes through, under lock_engine():
  /// tenancy_ if tenants are registered, else sharded_, else serial_.
  ooc::Engine* engine_ = nullptr;

  /// Serial engine (every configuration the ShardedEngine does not
  /// cover; null on the sharded path).  All access under engine_mu_.
  std::mutex engine_mu_;
  std::unique_ptr<ooc::PolicyEngine> serial_;

  /// Sharded engine (MultiIo + eager eviction, not adaptive).
  std::unique_ptr<trace::ContentionStats> lock_stats_;
  std::unique_ptr<ShardedEngine> sharded_;

  /// Tenancy decorator over serial_ or sharded_ (null = single-tenant).
  /// Over serial_, visits still hold engine_mu_ (lock order engine_mu_
  /// -> TenantEngine's mutex; the decorator never locks back).
  std::unique_ptr<serve::TenantEngine> tenancy_;

  /// Serializes block id allocation across the engine and the
  /// MemoryManager so their dense id spaces stay aligned.
  std::mutex alloc_mu_;
  std::uint64_t blocks_created_ = 0; // guarded by alloc_mu_

  // Adaptive guidance (serial engine only); guarded by engine_mu_
  // (the advisor is only read by the engine, which is itself driven
  // under that lock).
  std::unique_ptr<adapt::Guidance> guidance_;
  double phase_start_ = 0;

  std::vector<std::unique_ptr<PeWorker>> pes_;
  std::vector<std::unique_ptr<IoWorker>> io_;

  std::vector<PendingShard> pending_;
  std::atomic<ooc::TaskId> next_task_{1};

  // Quiescence detection: one contention-free count of outstanding
  // messages and transfers; the condvar is only touched on its final
  // decrement.
  std::mutex idle_mu_;
  std::condition_variable idle_cv_;
  PadCounter outstanding_;

  std::vector<PadCounter> tasks_done_; // per PE, padded
  std::atomic<bool> stop_{false};

  trace::Tracer tracer_;
  std::chrono::steady_clock::time_point t0_;

  // Telemetry (src/telemetry/): the runtime owns its registry; the
  // hub owns every plane recorded into it and hands out the hot-path
  // instrument pointers.  All thread-safe by construction.
  std::unique_ptr<telemetry::MetricsRegistry> metrics_;
  telemetry::Hub hub_;

  // Live introspection: per-thread heartbeats (stamped each loop
  // wakeup; parked threads do not beat, the watchdog only reads them
  // under load), a monotonic retirement counter as the watchdog's
  // progress signal, fetch-age tracking (dispatch/complete counts +
  // last-activity stamp, kept only when Config::watchdog is set), and
  // the server / watchdog / audit state.
  std::vector<telemetry::Heartbeat> pe_beats_;
  std::vector<telemetry::Heartbeat> io_beats_;
  alignas(64) std::atomic<std::uint64_t> retired_{0};
  alignas(64) std::atomic<std::uint64_t> fetch_dispatched_{0};
  alignas(64) std::atomic<std::uint64_t> fetch_completed_{0};
  std::atomic<std::uint64_t> fetch_last_ns_{0};
  std::unique_ptr<telemetry::Watchdog> watchdog_;
  std::unique_ptr<telemetry::StatusServer> server_;
  mutable std::mutex audit_mu_; // guards the two fields below
  telemetry::AuditReport last_audit_;
  std::uint64_t audit_runs_ = 0;
};

} // namespace hmr::rt
