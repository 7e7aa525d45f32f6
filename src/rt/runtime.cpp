#include "rt/runtime.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "telemetry/bridge.hpp"
#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr::rt {

namespace {

/// Per-wakeup drain depth of the PE and IO loops: at most this many
/// ready tasks, messages or migrations per wakeup.  A batch of
/// arrivals or of finished migrations is one engine visit (one
/// engine-lock acquisition on the serial engine); ready tasks are
/// post-processed one by one, each right after its body, so its
/// evictions overlap the next task's compute.
constexpr std::size_t kIoBatch = 16;

Runtime::Config normalized(Runtime::Config cfg) {
  if (cfg.serve_port >= 0) cfg.metrics = true; // /metrics needs them
  return cfg;
}

telemetry::Hub::Options hub_options(const Runtime::Config& cfg,
                                    telemetry::MetricsRegistry* reg,
                                    std::function<double()> clock) {
  telemetry::Hub::Options o;
  o.registry = reg;
  o.flight_depth = cfg.flight_depth;
  o.history_depth = cfg.history_depth;
  o.attrib = reg != nullptr;
  o.attrib_shards = static_cast<std::size_t>(std::max(1, cfg.num_pes));
  o.decision_log = cfg.adaptive;
  o.audit = cfg.audit;
  o.clock = std::move(clock);
  return o;
}

/// The runtime's placement hierarchy: the Config override verbatim, or
/// the model's tiers in bandwidth order with non-bottom budgets equal
/// to the *scaled* arenas (the engine must not admit bytes the
/// MemoryManager cannot physically hold) and the bottom unbounded.
std::vector<ooc::TierDesc> resolve_tiers(const Runtime::Config& cfg,
                                         const mem::MemoryManager& mm) {
  std::vector<ooc::TierDesc> tiers = cfg.tiers;
  if (tiers.empty()) {
    tiers = ooc::tiers_from_model(cfg.model);
    for (std::size_t k = 0; k + 1 < tiers.size(); ++k) {
      tiers[k].capacity = mm.usage(tiers[k].id).capacity;
    }
  }
  tiers.back().capacity = 0;
  return tiers;
}

/// The one engine Config, whichever engine runs it (the advisor slot
/// is filled by the constructor for adaptive runs).
ooc::PolicyEngine::Config engine_config(const Runtime::Config& cfg,
                                        const mem::MemoryManager& mm) {
  ooc::PolicyEngine::Config ec;
  ec.strategy = cfg.strategy;
  ec.num_pes = cfg.num_pes;
  ec.tiers = resolve_tiers(cfg, mm);
  ec.eager_evict = cfg.eager_evict;
  ec.evict_by_worker = cfg.evict_by_worker;
  ec.writeonly_nocopy = cfg.writeonly_nocopy;
  ec.demote_cascade = cfg.demote_cascade;
  return ec;
}

void append(std::vector<ooc::Command>& out, std::vector<ooc::Command> cmds) {
  out.insert(out.end(), cmds.begin(), cmds.end());
}

int io_thread_count(const Runtime::Config& cfg) {
  // Adaptive runs may switch to MultiIo mid-run: give them the full
  // complement (commands route via agent % io_.size()).
  if (cfg.adaptive) return cfg.num_pes;
  switch (cfg.strategy) {
    case ooc::Strategy::SingleIo:
      return 1;
    case ooc::Strategy::MultiIo:
      return cfg.num_pes;
    default:
      return 0;
  }
}

/// Best-effort CPU pinning; silently ignored off-Linux or when the
/// machine has fewer cores than threads.
void pin_to_core(std::thread& t, int core) {
#ifdef __linux__
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0 || core >= n) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core), &set);
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)core;
#endif
}

} // namespace

Runtime::Runtime(Config cfg)
    : cfg_(normalized(std::move(cfg))),
      mm_(std::make_unique<mem::MemoryManager>(
          mem::MemoryManager::specs_from_model(cfg_.model, cfg_.mem_scale))),
      pending_(static_cast<std::size_t>(std::max(1, cfg_.num_pes))),
      tasks_done_(static_cast<std::size_t>(std::max(1, cfg_.num_pes))),
      tracer_(cfg_.trace, cfg_.trace_opts),
      t0_(std::chrono::steady_clock::now()),
      metrics_(cfg_.metrics ? std::make_unique<telemetry::MetricsRegistry>()
                            : nullptr),
      hub_(hub_options(cfg_, metrics_.get(), [this] { return now(); })) {
  HMR_CHECK(cfg_.num_pes > 0);
  if (cfg_.chunk_threshold > 0) {
    mm_->set_chunked_copy(cfg_.chunk_threshold, cfg_.chunk_bytes);
  }
  // Shadow residency is the runtime's only migration path: clean
  // blocks move back and forth as pointer swaps, and dirty evictions
  // into the bottom tier defer their copy until the space is needed
  // (docs/PERF.md §4).
  mm_->set_zero_copy(true);
  mm_->set_shadow_audit(hub_.audit_enabled());
  ooc::PolicyEngine::Config ec = engine_config(cfg_, *mm_);
  mm_->set_write_back_tier(ec.tiers.back().id);
  if (cfg_.adaptive) {
    guidance_ = std::make_unique<adapt::Guidance>(
        cfg_.model, ec.tiers, cfg_.profiler_cfg, cfg_.strategy,
        cfg_.eager_evict, cfg_.num_pes, hub_.decisions());
    ec.advisor = &guidance_->advisor(); // an advisor keeps it serial
  }
  const bool sharded = ShardedEngine::covers(ec);
  if (cfg_.lock_stats) {
    // One slot per engine shard; the serial engine's mutex is slot 0.
    lock_stats_ = std::make_unique<trace::ContentionStats>(
        static_cast<std::size_t>(sharded ? cfg_.num_pes : 1));
  }
  if (sharded) {
    sharded_ = std::make_unique<ShardedEngine>(ec, lock_stats_.get());
    engine_ = sharded_.get();
  } else {
    serial_ = std::make_unique<ooc::PolicyEngine>(ec);
    engine_ = serial_.get();
  }
  if (cfg_.serve.enabled()) {
    HMR_CHECK_MSG(!cfg_.adaptive,
                  "multi-tenant serving and adaptive guidance both claim "
                  "the engine's advisor slot; enable one");
    tenancy_ =
        std::make_unique<serve::TenantEngine>(*engine_, cfg_.serve, now());
    tenancy_->set_clock([this] { return now(); });
    // Quota-aware victim selection; the sharded engine takes no
    // advisor, its tenancy lever is priority dispatch alone.
    auto* adv = tenancy_->advisor();
    if (serial_ && adv) serial_->set_advisor(adv);
    engine_ = tenancy_.get();
  }
  pes_.reserve(static_cast<std::size_t>(cfg_.num_pes));
  for (int pe = 0; pe < cfg_.num_pes; ++pe) {
    pes_.push_back(std::make_unique<PeWorker>());
  }
  const int n_io = io_thread_count(cfg_);
  io_.reserve(static_cast<std::size_t>(n_io));
  for (int i = 0; i < n_io; ++i) {
    io_.push_back(std::make_unique<IoWorker>());
  }
  pe_beats_ =
      std::vector<telemetry::Heartbeat>(static_cast<std::size_t>(cfg_.num_pes));
  io_beats_ =
      std::vector<telemetry::Heartbeat>(static_cast<std::size_t>(n_io));
  // Launch only after all structures exist.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  for (int pe = 0; pe < cfg_.num_pes; ++pe) {
    auto& th = pes_[static_cast<std::size_t>(pe)]->thread;
    th = std::thread([this, pe] { pe_loop(pe); });
    if (cfg_.pin_threads) pin_to_core(th, pe);
  }
  for (int i = 0; i < n_io; ++i) {
    auto& th = io_[static_cast<std::size_t>(i)]->thread;
    th = std::thread([this, i] { io_loop(i); });
    // The SMT sibling of worker i sits num_pes cores later in the
    // common Linux enumeration; fall back to sharing the core.
    if (cfg_.pin_threads) {
      const int sibling = i + cfg_.num_pes < hw ? i + cfg_.num_pes : i;
      pin_to_core(th, sibling);
    }
  }
  start_introspection();
}

Runtime::~Runtime() {
  stop_introspection();
  wait_idle();
  stop_.store(true);
  for (auto& w : pes_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : io_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : pes_) w->thread.join();
  for (auto& w : io_) w->thread.join();
}

double Runtime::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

mem::BlockId Runtime::alloc_block(std::uint64_t bytes) {
  // One small lock keeps the engine's and the MemoryManager's dense
  // sequential id spaces aligned under concurrent allocation.
  std::lock_guard alk(alloc_mu_);
  const mem::BlockId expected = blocks_created_++;
  hw::TierId tier;
  {
    auto elk = lock_engine();
    tier = engine_->add_block(expected, bytes);
  }
  const mem::BlockId b = mm_->register_block(bytes, tier);
  HMR_CHECK_MSG(b != mem::kInvalidBlock,
                "tier out of memory while allocating a block");
  HMR_CHECK_MSG(b == expected, "block id spaces diverged");
  return b;
}

void Runtime::free_block(mem::BlockId b) {
  {
    std::lock_guard alk(alloc_mu_);
    auto elk = lock_engine();
    engine_->remove_block(b);
  }
  mm_->unregister_block(b);
  if (telemetry::BlockFlightRecorder* flight = hub_.flight_recorder()) {
    flight->forget(b);
  }
}

void Runtime::deliver(int pe, std::span<Msg> msgs) {
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  if (msgs.empty()) return;
  work_add(msgs.size());
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::lock_guard lk(w.mu);
  for (auto& m : msgs) w.msgs.push_back(std::move(m));
  w.cv.notify_one();
}

void Runtime::send(int pe, Body body) {
  Msg m;
  m.body = std::move(body);
  deliver(pe, std::span(&m, 1));
}

void Runtime::send_prefetch(int pe, DepList deps, Body body,
                            double work_factor, std::uint32_t tenant) {
  Msg m{std::move(body), std::move(deps), work_factor, true, tenant};
  deliver(pe, std::span(&m, 1));
}

void Runtime::send_prefetch_batch(int pe, std::vector<PrefetchMsg> msgs) {
  std::vector<Msg> ms;
  ms.reserve(msgs.size());
  for (auto& pm : msgs) {
    ms.push_back(Msg{std::move(pm.body), std::move(pm.deps), pm.work_factor,
                     true, pm.tenant});
  }
  deliver(pe, ms);
}

void Runtime::pe_loop(int pe) {
  PeWorker& w = *pes_[static_cast<std::size_t>(pe)];
  std::vector<ReadyTask> tasks;
  std::vector<Msg> msgs;
  telemetry::Heartbeat& hb = pe_beats_[static_cast<std::size_t>(pe)];
  for (;;) {
    // Liveness stamp for /status and the watchdog.  A parked thread
    // stops beating — that is the signal, not a bug: the watchdog only
    // reads heartbeats while work is outstanding.
    hb.beat(now_ns());
    tasks.clear();
    msgs.clear();
    {
      std::unique_lock lk(w.mu);
      while (!stop_.load() && w.run_q.empty() && w.msgs.empty()) {
        if (mm_->copy_assist_pending()) {
          // Nothing to run, but a chunked copy is in flight: copy one
          // chunk of it, then look at the queues again, so a task that
          // becomes ready waits for at most one chunk.
          lk.unlock();
          mm_->assist_copies(1);
          lk.lock();
        } else {
          w.cv.wait(lk);
        }
      }
      // Ready tasks (data resident) run before new messages are
      // intercepted, keeping the PE's pipeline full.  Draining a
      // batch amortizes the queue lock over it; a message batch also
      // shares one engine visit (one lock on the serial engine), while
      // each ready task is post-processed as soon as its body returns.
      while (!w.run_q.empty() && tasks.size() < kIoBatch) {
        tasks.push_back(std::move(w.run_q.front()));
        w.run_q.pop_front();
      }
      if (metrics_ && !tasks.empty()) {
        hub_.histograms().run_q_depth->observe(tasks.size() + w.run_q.size());
      }
      if (tasks.empty()) {
        while (!w.msgs.empty() && msgs.size() < kIoBatch) {
          msgs.push_back(std::move(w.msgs.front()));
          w.msgs.pop_front();
        }
      }
      if (tasks.empty() && msgs.empty()) {
        return; // stop requested and nothing left to do
      }
    }
    if (!tasks.empty()) {
      run_ready_batch(pe, tasks);
    } else {
      intercept_batch(pe, msgs);
    }
  }
}

void Runtime::io_loop(int io) {
  IoWorker& w = *io_[static_cast<std::size_t>(io)];
  const int lane = cfg_.num_pes + io;
  std::vector<ooc::Command> batch;
  telemetry::Heartbeat& hb = io_beats_[static_cast<std::size_t>(io)];
  for (;;) {
    hb.beat(now_ns());
    batch.clear();
    {
      std::unique_lock lk(w.mu);
      for (;;) {
        if (!w.cmds.empty() || stop_.load()) break;
        if (mm_->copy_assist_pending()) {
          // Idle with a large chunked copy in flight somewhere: lend
          // this core to it instead of sleeping.
          lk.unlock();
          mm_->assist_copies();
          lk.lock();
          continue;
        }
        w.cv.wait(lk, [&] {
          return stop_.load() || !w.cmds.empty() ||
                 mm_->copy_assist_pending();
        });
      }
      if (w.cmds.empty()) return; // stop requested, queue drained
      while (!w.cmds.empty() && batch.size() < kIoBatch) {
        batch.push_back(w.cmds.front());
        w.cmds.pop_front();
      }
    }
    perform_transfers(batch, lane);
  }
}

void Runtime::intercept_batch(int pe, std::vector<Msg>& msgs) {
  std::vector<ooc::TaskDesc> arrivals;
  arrivals.reserve(msgs.size());
  auto flush = [&] {
    if (arrivals.empty()) return;
    process(ev_arrivals(arrivals), pe);
    arrivals.clear();
  };
  for (auto& msg : msgs) {
    if (!msg.prefetch) {
      // Plain entry method: the converse scheduler delivers it
      // directly.  Flush queued arrivals first to keep delivery order.
      flush();
      const double ts = now();
      msg.body();
      tracer_.record(pe, trace::Category::Compute, ts, now());
      work_done(1);
      continue;
    }
    // Pre-processing step of a [prefetch] entry method: wrap it as an
    // OOCTask and hand it to the policy engine.
    const ooc::TaskId id = next_task_.fetch_add(1);
    std::vector<mem::BlockId> writes;
    for (const auto& d : msg.deps) {
      if (d.mode != ooc::AccessMode::ReadOnly) writes.push_back(d.block);
    }
    {
      ReadyTask rt;
      rt.id = id;
      rt.body = std::move(msg.body);
      rt.t_arrive = metrics_ ? now() : 0;
      rt.tenant = msg.tenant;
      rt.writes = std::move(writes);
      PendingShard& ps = pending_[static_cast<std::size_t>(pe)];
      std::lock_guard lk(ps.mu);
      ps.map.emplace(id, std::move(rt));
    }
    ooc::TaskDesc desc;
    desc.id = id;
    desc.pe = pe;
    desc.deps = std::move(msg.deps);
    desc.work_factor = msg.work_factor;
    desc.tenant = msg.tenant;
    arrivals.push_back(std::move(desc));
  }
  flush();
}

void Runtime::run_ready_batch(int pe, std::vector<ReadyTask>& tasks) {
  for (const auto& task : tasks) {
    const double ts = now();
    if (metrics_) {
      hub_.histograms().task_wait_ns->observe(
          static_cast<std::uint64_t>((ts - task.t_arrive) * 1e9));
    }
    task.body();
    // Written blocks' shadows are stale now.  Safe here — the engine
    // still holds this task's claims, so none of these blocks can be
    // mid-migration until the completion event below releases them.
    for (const mem::BlockId b : task.writes) mm_->mark_dirty(b);
    const double te = now();
    tracer_.record(pe, trace::Category::Compute, ts, te, task.id);
    if (telemetry::AttributionTable* attrib = hub_.attribution()) {
      telemetry::TaskAttribution a;
      a.task = task.id;
      a.pe = pe;
      a.tenant = task.tenant;
      a.arrive = task.t_arrive;
      a.start = ts;
      a.end = te;
      const double window = std::max(0.0, ts - a.arrive);
      const double fetch =
          std::clamp(task.t_ready - a.arrive, 0.0, window);
      a.seconds[static_cast<int>(telemetry::Bucket::Compute)] = te - ts;
      a.seconds[static_cast<int>(telemetry::Bucket::FetchWait)] = fetch;
      a.seconds[static_cast<int>(telemetry::Bucket::QueueWait)] =
          window - fetch;
      attrib->record(static_cast<std::size_t>(pe), a);
    }
    tasks_done_[static_cast<std::size_t>(pe)].v.fetch_add(
        1, std::memory_order_relaxed);
    // Post-processing step, right after the body: release its claims
    // and hand its evictions to the IO threads now, so they copy while
    // the next task of the batch computes.
    std::vector<ooc::Command> cmds;
    {
      auto elk = lock_engine();
      cmds = engine_->on_task_complete(task.id, pe);
      observe_locked(cmds);
    }
    process(std::move(cmds), pe);
    work_done(1);
  }
}

std::unique_lock<std::mutex> Runtime::lock_engine() {
  if (!serial_) return {};
  trace::lock_counted(engine_mu_, lock_stats_.get(), 0);
  return std::unique_lock(engine_mu_, std::adopt_lock);
}

std::vector<ooc::Command> Runtime::ev_arrivals(
    const std::vector<ooc::TaskDesc>& descs) {
  std::vector<ooc::Command> cmds;
  auto elk = lock_engine();
  if (guidance_) {
    for (const auto& d : descs) {
      guidance_->on_arrival(
          d, [this](mem::BlockId b) { return mm_->block_bytes(b); });
    }
  }
  for (const auto& d : descs) append(cmds, engine_->on_task_arrived(d));
  observe_locked(cmds);
  return cmds;
}

void Runtime::do_migrate(const ooc::Command& cmd, int trace_lane) {
  const double ts = now();
  // A write-only dependence's old contents are dead: skip the memcpy
  // (the paper's migration always copies; this is the optional
  // writeonly_nocopy extension).
  if (mm_->chunked_copy_enabled() && !cmd.nocopy &&
      mm_->block_bytes(cmd.block) >= mm_->chunk_threshold()) {
    poke_for_assist(); // idle IO threads and parked PEs join the copy
  }
  const auto res = mm_->migrate(cmd.block, cmd.dst_tier,
                                /*copy_contents=*/!cmd.nocopy);
  if (!res.ok) {
    // The engine's byte budget admitted this migration, so failing it
    // is fragmentation or an accounting/race bug; the numbers tell
    // which.
    const mem::TierUsage u = mm_->usage(cmd.dst_tier);
    char msg[352];
    std::snprintf(
        msg, sizeof msg,
        "migration of block %llu (%llu bytes) to tier %u failed: used "
        "%llu, shadow %llu, deferred %llu, largest free range %llu of "
        "capacity %llu (tier fragmentation exceeded the policy engine's "
        "byte budget)",
        static_cast<unsigned long long>(cmd.block),
        static_cast<unsigned long long>(mm_->block_bytes(cmd.block)),
        static_cast<unsigned>(cmd.dst_tier),
        static_cast<unsigned long long>(u.used),
        static_cast<unsigned long long>(u.shadow),
        static_cast<unsigned long long>(u.deferred),
        static_cast<unsigned long long>(u.largest_free),
        static_cast<unsigned long long>(u.capacity));
    ::hmr::detail::check_failed("res.ok", __FILE__, __LINE__, msg);
  }
  // Traced traffic is *physical* bytes: nocopy skips the copy by
  // contract, zero-copy admissions skip it (shadow swap or deferral).
  record_migration(cmd, !cmd.nocopy && !res.zero_copy, ts, now(),
                   trace_lane);
}

void Runtime::record_migration(const ooc::Command& cmd, bool copied,
                               double ts, double te, int trace_lane) {
  hub_.record_migration(tracer_, trace_lane, cmd, ts, te,
                        copied ? mm_->block_bytes(cmd.block) : 0);
  // Fetch-age bookkeeping has one reader, the watchdog's hook.
  if (cfg_.watchdog && cmd.kind == ooc::Command::Kind::Fetch) {
    fetch_last_ns_.store(now_ns(), std::memory_order_relaxed);
    fetch_completed_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<ooc::Command> Runtime::ev_transfers(
    std::span<const ooc::Command> done) {
  std::vector<ooc::Command> cmds;
  auto elk = lock_engine();
  for (const auto& c : done) {
    append(cmds, c.kind == ooc::Command::Kind::Fetch
                     ? engine_->on_fetch_complete(c.block)
                     : engine_->on_evict_complete(c.block));
  }
  observe_locked(cmds);
  return cmds;
}

bool Runtime::copies_inline(std::uint64_t bytes) const {
  return bytes <= cfg_.chunk_bytes &&
         (!mm_->chunked_copy_enabled() || bytes < mm_->chunk_threshold());
}

void Runtime::perform_transfers(std::span<const ooc::Command> cmds,
                                int trace_lane) {
  for (const auto& cmd : cmds) do_migrate(cmd, trace_lane);
  process(ev_transfers(cmds), trace_lane);
  work_done(cmds.size());
}

void Runtime::process(std::vector<ooc::Command> cmds, int context_lane) {
  // Every transfer stays counted until the whole cascade has been
  // dispatched, so wait_idle() cannot observe quiescence mid-way.
  const bool timed = tracer_.enabled() || metrics_ != nullptr;
  const bool stamped = timed || hub_.flight_recorder() != nullptr;
  // Swap requests live on the stack for the usual batch size: a heap
  // buffer per batch on every PE and IO thread raised perfbench
  // cg_fine's peak RSS by about 1% (glibc's per-thread arenas).
  std::array<mem::SwapRequest, kIoBatch * 4> local_reqs;
  std::vector<mem::SwapRequest> spilled_reqs;
  std::vector<ooc::Command> done;
  std::uint64_t completed = 0;
  while (!cmds.empty()) {
    std::uint64_t transfers = 0, fetches = 0;
    for (const auto& c : cmds) {
      if (c.kind == ooc::Command::Kind::Run) continue;
      ++transfers;
      fetches += c.kind == ooc::Command::Kind::Fetch;
    }
    std::span<mem::SwapRequest> reqs;
    if (transfers <= local_reqs.size()) {
      reqs = {local_reqs.data(), transfers};
    } else {
      spilled_reqs.resize(transfers);
      reqs = spilled_reqs;
    }
    std::size_t k = 0;
    for (const auto& c : cmds) {
      if (c.kind != ooc::Command::Kind::Run) {
        reqs[k++] = {c.block, c.dst_tier, !c.nocopy, false, 0};
      }
    }
    if (transfers > 0) work_add(transfers);
    if (cfg_.watchdog && fetches > 0) {
      fetch_last_ns_.store(now_ns(), std::memory_order_relaxed);
      fetch_dispatched_.fetch_add(fetches, std::memory_order_relaxed);
    }
    // One clock read on each side of the swap attempt: the swaps split
    // that span between their trace intervals and latency samples, and
    // the flight recorder stamps each with its interval's end.  No clock
    // is read when nothing consumes it.
    double t0 = 0, t1 = 0, dt = 0;
    std::size_t n_swapped = 0;
    if (!reqs.empty()) {
      if (timed) t0 = now();
      n_swapped = mm_->try_swap_batch(reqs);
      if (stamped && n_swapped > 0) {
        t1 = now();
        if (!timed) t0 = t1;
        dt = (t1 - t0) / static_cast<double>(n_swapped);
      }
    }
    std::size_t next_req = 0, swaps = 0;
    for (auto& c : cmds) {
      if (c.kind == ooc::Command::Kind::Run) {
        ReadyTask task;
        {
          PendingShard& ps = pending_[static_cast<std::size_t>(c.pe)];
          std::lock_guard lk(ps.mu);
          auto it = ps.map.find(c.task);
          HMR_CHECK_MSG(it != ps.map.end(), "run of unknown task");
          task = std::move(it->second);
          ps.map.erase(it);
        }
        // Deps are resident from here; start - t_ready is pure run
        // queue wait, t_ready - t_arrive is the fetch wait.
        if (hub_.attribution()) task.t_ready = now();
        PeWorker& w = *pes_[static_cast<std::size_t>(c.pe)];
        std::lock_guard lk(w.mu);
        w.run_q.push_back(std::move(task));
        w.cv.notify_one();
        continue;
      }
      const mem::SwapRequest& q = reqs[next_req++];
      if (q.ok) {
        const double ts = t0 + dt * static_cast<double>(swaps++);
        record_migration(c, /*copied=*/false, ts, ts + dt, context_lane);
        done.push_back(c);
      } else if (c.agent == ooc::kWorkerInline || copies_inline(q.bytes)) {
        // Synchronous pre/post-processing on the current thread, or a
        // one-chunk copy, which costs less than the two thread wake-ups
        // of the IO round trip.
        do_migrate(c, context_lane);
        done.push_back(c);
      } else {
        HMR_CHECK(!io_.empty());
        IoWorker& w = *io_[static_cast<std::size_t>(c.agent) % io_.size()];
        std::lock_guard lk(w.mu);
        if (tenancy_) {
          tenancy_->enqueue(w.cmds, c);
        } else {
          w.cmds.push_back(c);
        }
        w.cv.notify_one();
      }
    }
    if (done.empty()) break;
    completed += done.size();
    cmds = ev_transfers(done);
    done.clear();
  }
  if (completed > 0) work_done(completed);
}

void Runtime::observe_locked(const std::vector<ooc::Command>& cmds) {
  if (!guidance_) return;
  guidance_->observe(cmds, *serial_,
                     [this](mem::BlockId b) { return mm_->block_bytes(b); });
}

void Runtime::governor_phase_end() {
  const double t_now = now();
  std::vector<ooc::Command> cmds;
  {
    auto elk = lock_engine();
    const double phase_seconds = t_now - phase_start_;
    double wait_fraction = 0;
    if (tracer_.enabled() && phase_seconds > 0) {
      const double compute =
          tracer_.summarize(cfg_.num_pes, phase_start_, t_now)
              .total_of(trace::Category::Compute);
      wait_fraction = std::clamp(
          1.0 - compute / (phase_seconds * cfg_.num_pes), 0.0, 1.0);
    }
    cmds = guidance_->end_phase(*serial_, phase_seconds, wait_fraction);
  }
  phase_start_ = t_now;
  if (cmds.empty()) return;
  // Any LRU-flush evictions count as outstanding work; push them and
  // wait for the node to settle again before the next phase starts.
  process(std::move(cmds), /*context_lane=*/0);
  wait_quiescent();
}

void Runtime::work_add(std::uint64_t n) {
  outstanding_.v.fetch_add(n, std::memory_order_acq_rel);
}

void Runtime::work_done(std::uint64_t n) {
  retired_.fetch_add(n, std::memory_order_relaxed);
  // Wake idle waiters only on the transition to zero, which is a real
  // quiescence point: the hot path never touches idle_mu_.  Taking the
  // mutex before notifying closes the race with a waiter that just
  // evaluated its predicate.
  if (outstanding_.v.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard lk(idle_mu_);
    idle_cv_.notify_all();
  }
}

void Runtime::poke_for_assist() {
  for (auto& w : io_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
  for (auto& w : pes_) {
    std::lock_guard lk(w->mu);
    w->cv.notify_all();
  }
}

void Runtime::wait_quiescent() {
  std::unique_lock lk(idle_mu_);
  idle_cv_.wait(lk, [&] {
    if (outstanding_.v.load(std::memory_order_acquire) != 0) return false;
    // Under tenancy, deferred submissions parked in the decorator count
    // as pending work; its quiescent() folds them in.
    auto elk = lock_engine();
    return engine_->quiescent();
  });
}

void Runtime::wait_idle() {
  wait_quiescent();
  // Each wait_idle barrier is a phase boundary for the governor.
  if (guidance_) governor_phase_end();
  // ...and a history tick: the hub refreshes the bridged counters
  // before sampling, so the snapshot that lands in the ring is
  // coherent.
  if (metrics_) {
    export_runtime_metrics();
    auto elk = lock_engine();
    hub_.on_quiescence(*engine_, tracer_);
  }
  // Quiescence is the one point where every ledger must reconcile
  // exactly — audit here.
  if (hub_.audit_enabled()) run_wait_idle_audit();
}

void Runtime::sample_metrics() {
  if (!metrics_) return;
  export_runtime_metrics();
  auto elk = lock_engine();
  hub_.export_metrics(*engine_, tracer_);
}

void Runtime::export_runtime_metrics() {
  if (sharded_) {
    for (std::int32_t s = 0; s < sharded_->num_shards(); ++s) {
      telemetry::export_policy_stats(
          *metrics_, sharded_->shard_stats(s),
          telemetry::prom_label("shard", std::to_string(s)));
    }
  }
  if (tenancy_) tenancy_->export_metrics(*metrics_);
  if (lock_stats_) telemetry::export_contention(*metrics_, *lock_stats_);
  if (mm_->chunked_copy_enabled()) {
    telemetry::export_chunk_ring(*metrics_, mm_->chunk_ring());
    // Mirror the cumulative fallback count onto the tracer so trace
    // summaries / CSV dumps carry it next to the timing data.
    tracer_.note_copy_fallbacks(mm_->chunk_ring().ring_fallbacks());
  }
  telemetry::export_data_movement(*metrics_, *mm_);
}

ooc::PolicyEngine::Stats Runtime::policy_stats() {
  auto elk = lock_engine();
  return engine_->engine_stats();
}

std::uint64_t Runtime::tasks_executed() const {
  std::uint64_t n = 0;
  for (const auto& c : tasks_done_) {
    n += c.v.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t Runtime::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0_)
          .count());
}

double Runtime::fetch_p99_seconds() const {
  if (!metrics_) return 0;
  const telemetry::Histogram& h = *hub_.histograms().fetch_ns;
  const std::uint64_t n = h.count();
  if (n == 0) return 0;
  const std::uint64_t rank = n - n / 100; // the p99 sample, 1-based
  std::uint64_t cum = 0;
  for (int i = 0; i < telemetry::Histogram::kBuckets; ++i) {
    cum += h.bucket_count(i);
    if (cum >= rank) {
      return static_cast<double>(telemetry::Histogram::bucket_upper(i)) *
             1e-9;
    }
  }
  return 0;
}

telemetry::AuditReport Runtime::audit_now() {
  const double t = now();
  auto elk = lock_engine();
  const bool at_quiescence = engine_->quiescent();
  // The sharded ledgers only reconcile exactly at quiescence (budget
  // releases commit outside the stripe critical sections), so
  // off-quiescence calls report nothing rather than guess.  Under
  // tenancy the audit adds quota-ledger conservation and
  // admitted/completed bookkeeping to the inner engine's.
  if (!at_quiescence && !serial_) {
    telemetry::AuditReport r;
    r.time = t;
    return r;
  }
  return hub_.audit(*engine_, t, at_quiescence);
}

std::uint64_t Runtime::audit_runs() const {
  std::lock_guard lk(audit_mu_);
  return audit_runs_;
}

void Runtime::run_wait_idle_audit() {
  telemetry::AuditReport r = audit_now();
  // No migration is in flight here, so the MemoryManager's residence
  // ledger must reconcile with its arenas as well.
  for (auto& v : mm_->audit_ledger()) {
    r.violations.push_back("memory ledger: " + std::move(v));
  }
  {
    std::lock_guard lk(audit_mu_);
    last_audit_ = r;
    ++audit_runs_;
  }
  telemetry::check_audit(r); // aborts on violations
}

std::string Runtime::status_json() {
  std::ostringstream os;
  const auto num = [&os](double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    os << buf;
  };
  const std::uint64_t t = now_ns();
  os << "{\"time_s\":";
  num(static_cast<double>(t) * 1e-9);
  os << ",\"strategy\":\"" << ooc::strategy_name(cfg_.strategy) << "\""
     << ",\"sharded\":" << (sharded_ ? "true" : "false")
     << ",\"engine_shards\":" << engine_shards()
     << ",\"num_pes\":" << cfg_.num_pes
     << ",\"num_io_threads\":" << io_.size() << ",\"outstanding\":"
     << outstanding_.v.load(std::memory_order_acquire)
     << ",\"tasks_executed\":" << tasks_executed()
     << ",\"retired\":" << retired_.load(std::memory_order_relaxed);

  const auto beat_json = [&](const telemetry::Heartbeat& hb) {
    const std::uint64_t beats = hb.beats.load(std::memory_order_relaxed);
    const std::uint64_t last = hb.last_ns.load(std::memory_order_relaxed);
    os << "\"beats\":" << beats << ",\"beat_age_s\":";
    if (beats == 0) {
      os << "-1"; // never woke up (or just launched)
    } else {
      num(t > last ? static_cast<double>(t - last) * 1e-9 : 0.0);
    }
  };
  os << ",\"pes\":[";
  for (std::size_t pe = 0; pe < pes_.size(); ++pe) {
    if (pe) os << ",";
    std::size_t msgs = 0, run_q = 0;
    {
      std::lock_guard lk(pes_[pe]->mu);
      msgs = pes_[pe]->msgs.size();
      run_q = pes_[pe]->run_q.size();
    }
    os << "{\"msgs\":" << msgs << ",\"run_q\":" << run_q << ",";
    beat_json(pe_beats_[pe]);
    os << "}";
  }
  os << "],\"io_threads\":[";
  for (std::size_t i = 0; i < io_.size(); ++i) {
    if (i) os << ",";
    std::size_t cmds = 0;
    {
      std::lock_guard lk(io_[i]->mu);
      cmds = io_[i]->cmds.size();
    }
    os << "{\"cmds\":" << cmds << ",";
    beat_json(io_beats_[i]);
    os << "}";
  }
  os << "],\"tiers\":[";
  {
    // Claimed bytes and budget of each hierarchy level, fastest first.
    auto elk = lock_engine();
    const auto& tiers = engine_->tiers();
    for (std::size_t k = 0; k < tiers.size(); ++k) {
      if (k) os << ",";
      os << "{\"level\":" << k << ",\"used_bytes\":"
         << engine_->tier_used(static_cast<std::int32_t>(k))
         << ",\"capacity_bytes\":" << tiers[k].capacity << "}";
    }
  }
  os << "]";

  // Top-N hottest tracked blocks (adaptive runs; [] otherwise) — the
  // hmr_top dashboard's hot-block panel.
  os << ",\"hot_blocks\":[";
  if (guidance_) {
    auto elk = lock_engine();
    std::vector<adapt::BlockProfile> profs = guidance_->profiler().profiles();
    std::sort(profs.begin(), profs.end(),
              [](const adapt::BlockProfile& a, const adapt::BlockProfile& b) {
                return a.expected_accesses_per_phase() >
                       b.expected_accesses_per_phase();
              });
    const std::size_t n = std::min<std::size_t>(profs.size(), 8);
    for (std::size_t i = 0; i < n; ++i) {
      const adapt::BlockProfile& p = profs[i];
      if (i) os << ",";
      os << "{\"block\":" << p.block << ",\"bytes\":" << p.bytes
         << ",\"hotness\":";
      num(p.expected_accesses_per_phase());
      os << ",\"readonly_frac\":";
      num(p.readonly_fraction());
      os << ",\"reuse_distance\":";
      num(p.reuse_distance);
      os << "}";
    }
  }
  os << "]";

  os << ",\"governor\":";
  if (guidance_) {
    // The governor only mutates under engine_mu_ (phase boundaries).
    auto elk = lock_engine();
    const adapt::StrategyGovernor& gov = guidance_->governor();
    const adapt::Decision& d = gov.current();
    os << "{\"strategy\":\"" << ooc::strategy_name(d.strategy) << "\""
       << ",\"eager_evict\":" << (d.eager_evict ? "true" : "false")
       << ",\"fair_admission\":" << (d.fair_admission ? "true" : "false")
       << ",\"lru_watermark\":";
    num(d.lru_watermark);
    os << ",\"bypass_streaming\":"
       << (d.bypass_streaming ? "true" : "false")
       << ",\"switches\":" << gov.switches()
       << ",\"phases\":" << gov.phases_observed() << "}";
  } else {
    os << "null";
  }

  os << ",\"watchdog\":";
  if (watchdog_) {
    os << "{\"trips\":" << watchdog_->trips()
       << ",\"stalled\":" << (watchdog_->stalled() ? "true" : "false")
       << ",\"last_reason\":\"";
    telemetry::json_escape(os, watchdog_->last_reason());
    os << "\"}";
  } else {
    os << "null";
  }

  {
    std::lock_guard lk(audit_mu_);
    os << ",\"audit_runs\":" << audit_runs_ << ",\"audit\":";
    if (audit_runs_ == 0) {
      os << "null";
    } else {
      telemetry::write_audit_json(os, last_audit_);
    }
  }
  os << "}";
  return os.str();
}

void Runtime::write_diagnostics(std::ostream& os) {
  os << "==== status ====\n" << status_json() << "\n";
  if (metrics_) {
    sample_metrics();
    os << "==== metrics ====\n";
    telemetry::MetricsRegistry::write_prometheus(os, metrics_->snapshot());
  }
  if (const auto* flight = hub_.flight_recorder()) {
    os << "==== flight recorder ====\n";
    flight->dump(os);
  }
  os << "==== trace ====\n";
  if (tracer_.enabled()) {
    const trace::TraceSummary s = tracer_.summarize(cfg_.num_pes);
    os << "span_s=" << s.span
       << " compute_s=" << s.total_of(trace::Category::Compute)
       << " prefetch_s=" << s.total_of(trace::Category::Prefetch)
       << " evict_s=" << s.total_of(trace::Category::Evict)
       << " dropped=" << s.dropped << "\n";
  } else {
    os << "(tracing off)\n";
  }
}

void Runtime::start_introspection() {
  if (cfg_.watchdog) {
    telemetry::Watchdog::Hooks h;
    h.under_load = [this] {
      return outstanding_.v.load(std::memory_order_acquire) != 0;
    };
    h.progress = [this] {
      // Retirements plus engine events: admissions count as progress
      // even while no task has finished yet.
      std::uint64_t p = retired_.load(std::memory_order_relaxed);
      if (sharded_) p += sharded_->events_processed();
      return p;
    };
    h.fetch_age = [this]() -> double {
      const auto done = fetch_completed_.load(std::memory_order_relaxed);
      const auto sent = fetch_dispatched_.load(std::memory_order_relaxed);
      if (done >= sent) return -1; // nothing in flight
      const auto last = fetch_last_ns_.load(std::memory_order_relaxed);
      const std::uint64_t t = now_ns();
      return t > last ? static_cast<double>(t - last) * 1e-9 : 0.0;
    };
    h.fetch_p99 = [this] { return fetch_p99_seconds(); };
    h.trace_drops = [this] { return tracer_.dropped(); };
    h.remote_fetches = [this] {
      // hmr_remote_fetches_total's source counter (engine stats); the
      // monitor tick cadence makes the engine-lock grab negligible.
      return policy_stats().remote_fetches;
    };
    h.dump = [this](std::ostream& os) { write_diagnostics(os); };
    watchdog_ = std::make_unique<telemetry::Watchdog>(cfg_.watchdog_cfg,
                                                      std::move(h));
    watchdog_->start();
  }
  if (cfg_.serve_port >= 0) {
    using Request = telemetry::StatusServer::Request;
    using Response = telemetry::StatusServer::Response;
    auto srv = std::make_unique<telemetry::StatusServer>();
    srv->route("/healthz", [this](const Request&) {
      Response r;
      if (watchdog_ && watchdog_->stalled()) {
        r.status = 503;
        r.body = "stalled: " + watchdog_->last_reason() + "\n";
      } else {
        r.body = "ok\n";
      }
      return r;
    });
    srv->route("/metrics", [this](const Request&) {
      sample_metrics();
      Response r;
      r.content_type = "text/plain; version=0.0.4; charset=utf-8";
      std::ostringstream body;
      telemetry::MetricsRegistry::write_prometheus(body,
                                                   metrics_->snapshot());
      r.body = body.str();
      return r;
    });
    srv->route("/status", [this](const Request&) {
      Response r;
      r.content_type = "application/json";
      r.body = status_json();
      return r;
    });
    srv->route("/tenants", [this](const Request&) {
      Response r;
      if (!tenancy_) {
        r.status = 404;
        r.body = "multi-tenant serving disabled (Config::serve empty)\n";
        return r;
      }
      r.content_type = "application/json";
      std::ostringstream body;
      tenancy_->write_json(body);
      r.body = body.str();
      return r;
    });
    srv->route("/attrib", [this](const Request&) {
      Response r;
      r.content_type = "application/json";
      std::ostringstream body;
      hub_.attribution()->write_json(body); // serve_port forces metrics on
      r.body = body.str();
      return r;
    });
    srv->route("/blocks", [this](const Request& rq) {
      Response r;
      const telemetry::BlockFlightRecorder* flight = hub_.flight_recorder();
      if (!flight) {
        r.status = 404;
        r.body = "flight recorder disabled (Config::flight_depth=0)\n";
        return r;
      }
      const auto it = rq.query.find("id");
      if (it == rq.query.end()) {
        r.status = 400;
        r.body = "usage: /blocks?id=<block id>\n";
        return r;
      }
      const auto id = parse_u64(it->second);
      if (!id) {
        r.status = 400;
        r.body = "bad block id: " + it->second + "\n";
        return r;
      }
      const auto hist = flight->history(static_cast<mem::BlockId>(*id));
      std::ostringstream body;
      body << "{\"block\":" << *id << ",\"transitions\":[";
      for (std::size_t i = 0; i < hist.size(); ++i) {
        if (i) body << ",";
        char tbuf[32];
        std::snprintf(tbuf, sizeof tbuf, "%.6f", hist[i].time);
        body << "{\"time_s\":" << tbuf << ",\"task\":" << hist[i].task
             << ",\"src_tier\":" << hist[i].src_tier
             << ",\"dst_tier\":" << hist[i].dst_tier
             << ",\"bytes\":" << hist[i].bytes
             << ",\"fetch\":" << (hist[i].fetch ? "true" : "false")
             << "}";
      }
      body << "]}";
      r.content_type = "application/json";
      r.body = body.str();
      return r;
    });
    srv->route("/history", [this](const Request& rq) {
      Response r;
      const telemetry::HistoryBuffer* history = hub_.history();
      if (!history) {
        r.status = 404;
        r.body = "history disabled (Config::history_depth=0)\n";
        return r;
      }
      std::string metric;
      double window = 0;
      if (const auto it = rq.query.find("metric"); it != rq.query.end()) {
        metric = it->second;
      }
      if (const auto it = rq.query.find("window"); it != rq.query.end()) {
        char* end = nullptr;
        window = std::strtod(it->second.c_str(), &end);
        // !isfinite catches "nan"/"inf", which strtod accepts.
        if (end == it->second.c_str() || *end != '\0' ||
            !std::isfinite(window) || window < 0) {
          r.status = 400;
          r.body = "bad window (seconds): " + it->second +
                   "\nusage: /history?metric=<name>&window=<finite "
                   "seconds >= 0>\n";
          return r;
        }
      }
      r.content_type = "application/json";
      std::ostringstream body;
      history->write_json(body, metric, window);
      r.body = body.str();
      return r;
    });
    srv->route("/decisions", [this](const Request& rq) {
      Response r;
      const telemetry::DecisionLog* decisions = hub_.decisions();
      if (!decisions) {
        r.status = 404;
        r.body = "no decision log (Config::adaptive off)\n";
        return r;
      }
      std::vector<telemetry::DecisionLog::Record> recs;
      if (const auto it = rq.query.find("block"); it != rq.query.end()) {
        const auto id = parse_u64(it->second);
        if (!id) {
          r.status = 400;
          r.body = "bad block id: " + it->second + "\n";
          return r;
        }
        recs = decisions->snapshot_block(static_cast<mem::BlockId>(*id));
      } else {
        recs = decisions->snapshot();
      }
      std::ostringstream body;
      if (const auto it = rq.query.find("format");
          it != rq.query.end() && it->second == "csv") {
        telemetry::DecisionLog::write_csv(body, recs);
        r.content_type = "text/csv; charset=utf-8";
      } else {
        telemetry::DecisionLog::write_json(body, recs,
                                           decisions->total_recorded(),
                                           decisions->overwritten());
        r.content_type = "application/json";
      }
      r.body = body.str();
      return r;
    });
    std::string err;
    if (!srv->start(static_cast<std::uint16_t>(cfg_.serve_port), &err)) {
      // Diagnostics must never kill the job: warn and run without.
      std::fprintf(stderr, "hmr: status server disabled: %s\n",
                   err.c_str());
    } else {
      server_ = std::move(srv);
    }
  }
}

void Runtime::stop_introspection() {
  if (server_) server_->stop();
  if (watchdog_) watchdog_->stop();
}

} // namespace hmr::rt
