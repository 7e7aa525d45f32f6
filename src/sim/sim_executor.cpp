#include "sim/sim_executor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace hmr::sim {

namespace {

ooc::PolicyEngine::Config engine_config(const SimConfig& cfg) {
  ooc::PolicyEngine::Config ec;
  // Cache mode is a hardware configuration, not a scheduling strategy:
  // every block stays in DDR4 and MCDRAM caches transparently.
  ec.strategy =
      cfg.cache_mode ? ooc::Strategy::DdrOnly : cfg.strategy;
  ec.num_pes = cfg.model.num_pes;
  ec.tiers = cfg.tiers.empty() ? ooc::tiers_from_model(cfg.model) : cfg.tiers;
  ec.tiers.back().capacity = 0;
  // Cache/hybrid mode model the two-tier KNL's MCDRAM-in-front-of-DDR4
  // hardware; they have no N-level analogue here.
  HMR_CHECK_MSG(ec.tiers.size() == 2 ||
                    (!cfg.cache_mode && cfg.hybrid_cache_fraction == 0),
                "cache/hybrid modes require a two-tier hierarchy");
  if (cfg.fast_capacity) ec.tiers.front().capacity = cfg.fast_capacity;
  // Hybrid mode: only the flat part of MCDRAM is the prefetch budget.
  if (cfg.hybrid_cache_fraction > 0) {
    HMR_CHECK(cfg.hybrid_cache_fraction < 1.0);
    ec.tiers.front().capacity = static_cast<std::uint64_t>(
        static_cast<double>(ec.tiers.front().capacity) *
        (1.0 - cfg.hybrid_cache_fraction));
  }
  ec.fast_capacity = ec.tiers.front().capacity;
  ec.eager_evict = cfg.eager_evict;
  ec.evict_by_worker = cfg.evict_by_worker;
  ec.writeonly_nocopy = cfg.writeonly_nocopy;
  ec.demote_cascade = cfg.demote_cascade;
  return ec;
}

telemetry::Hub::Options hub_options(const SimConfig& cfg,
                                    std::function<double()> clock) {
  telemetry::Hub::Options o;
  o.registry = cfg.metrics;
  o.flight_depth = cfg.flight_depth;
  o.history_depth = cfg.history_depth;
  // One attribution shard: the DES is single-threaded.
  o.attrib = cfg.attrib || cfg.metrics != nullptr;
  o.attrib_keep_tasks = cfg.attrib_keep_tasks;
  o.decision_log = cfg.adaptive;
  o.audit = cfg.audit;
  o.clock = std::move(clock);
  return o;
}

int default_agents(const SimConfig& cfg) {
  // Adaptive runs can switch strategy mid-run; provision one agent per
  // PE so every movement strategy has its lanes (commands route via
  // agent % num_agents, so SingleIo still funnels through agent 0).
  if (cfg.adaptive) return cfg.model.num_pes;
  switch (cfg.strategy) {
    case ooc::Strategy::SingleIo:
      return 1;
    case ooc::Strategy::MultiIo:
      return cfg.io_threads > 0 ? cfg.io_threads : cfg.model.num_pes;
    default:
      return 0;
  }
}

} // namespace

SimExecutor::SimExecutor(SimConfig cfg)
    : cfg_(std::move(cfg)),
      engine_(engine_config(cfg_)),
      num_agents_(default_agents(cfg_)),
      hub_(hub_options(cfg_, [this] { return now_; })), // virtual seconds
      tracer_(cfg_.trace) {
  pes_.resize(static_cast<std::size_t>(cfg_.model.num_pes));
  agents_.resize(static_cast<std::size_t>(num_agents_));
  const auto& m = cfg_.model;
  for (const auto& t : engine_.tiers()) {
    // exec_duration buckets resident bytes by tier id, so every level
    // must name a model tier (a remote level requires the model to be
    // augmented too — sim::add_remote_tier does both together).
    HMR_CHECK_MSG(t.id < m.tiers.size(),
                  "hierarchy level names a tier the model lacks");
    if (t.backend == ooc::TierBackendKind::Remote) {
      remote_params_.emplace(t.id, t.remote);
    }
  }
  if (cfg_.adaptive) {
    HMR_CHECK_MSG(ooc::strategy_moves_data(cfg_.strategy) && !cfg_.cache_mode,
                  "adaptive guidance requires a movement strategy");
    guidance_ = std::make_unique<adapt::Guidance>(
        m, engine_.tiers(), cfg_.profiler_cfg, cfg_.strategy,
        cfg_.eager_evict, m.num_pes, hub_.decisions());
    engine_.set_advisor(&guidance_->advisor());
  }
  if (cfg_.serve.enabled()) {
    HMR_CHECK_MSG(!cfg_.adaptive,
                  "tenancy and adaptive guidance are mutually exclusive "
                  "(both claim the engine's advisor slot)");
    tenancy_ =
        std::make_unique<serve::TenantEngine>(engine_, cfg_.serve, 0.0);
    // Token buckets and latency percentiles run on virtual time.
    tenancy_->set_clock([this] { return now_; });
    if (auto* adv = tenancy_->advisor()) engine_.set_advisor(adv);
    active_ = tenancy_.get();
  }
}

SimResult SimExecutor::finish() {
  result_.total_time = now_;
  result_.policy = engine_.stats();
  result_.final_strategy = engine_.config().strategy;
  result_.final_eager_evict = engine_.config().eager_evict;
  if (guidance_) result_.governor_switches = guidance_->governor().switches();
  if (tracer_.enabled()) tracer_.fill_idle(0, now_);
  // End-of-run invariant audit: the DES drives the serial engine from
  // one thread and both run() exits require quiescence first, so the
  // audit is always exact here.  Aborts on violation (check_audit).
  // Under tenancy the decorator's audit adds ledger conservation and
  // admission bookkeeping on top of the inner engine's.
  if (hub_.audit_enabled()) {
    telemetry::check_audit(hub_.audit(*active_, now_, true));
  }
  export_sim_metrics();
  hub_.export_metrics(engine_, tracer_);
  return result_;
}

void SimExecutor::dispatch_arrival(const ooc::TaskDesc& desc) {
  if (guidance_) {
    guidance_->on_arrival(
        desc, [this](ooc::BlockId b) { return wl_->blocks()[b].bytes; });
  }
  if (!tenancy_) {
    process(engine_.on_task_arrived(desc));
    return;
  }
  std::vector<ooc::Command> cmds;
  const serve::Verdict v = tenancy_->submit(desc, cmds);
  if (v == serve::Verdict::Reject) {
    // The verdict dropped the task (counted in its tenant's stats).
    // A dropped task must not gate successors forever.
    HMR_CHECK_MSG(dependents_.find(desc.id) == dependents_.end(),
                  "task with dependents rejected by admission; raise the "
                  "tenant's max_queued");
  }
  process(std::move(cmds));
}

const ooc::RemoteTierParams* SimExecutor::remote_path(
    ooc::TierId src, ooc::TierId dst) const {
  if (const auto it = remote_params_.find(src);
      it != remote_params_.end()) {
    return &it->second;
  }
  if (const auto it = remote_params_.find(dst);
      it != remote_params_.end()) {
    return &it->second;
  }
  return nullptr;
}

TransferChannel& SimExecutor::channel_for(ooc::TierId src,
                                          ooc::TierId dst) {
  auto& slot = channels_[pair_key(src, dst)];
  if (!slot) {
    if (const auto* rp = remote_path(src, dst)) {
      // Remote migration: the NIC serializes every flow of this
      // direction at the network bandwidth — per-flow and aggregate
      // limits coincide (one NIC, no per-thread memcpy inefficiency).
      slot = std::make_unique<TransferChannel>(rp->bandwidth,
                                               rp->bandwidth);
    } else {
      const auto& m = cfg_.model;
      slot = std::make_unique<TransferChannel>(
          m.copy_rate(src, dst), m.channel_capacity(src, dst));
    }
  }
  return *slot;
}

void SimExecutor::drain_channel(std::uint64_t key) {
  for (const auto flow : channels_.at(key)->advance(now_)) {
    finish_transfer(flow);
  }
}

void SimExecutor::schedule_tick(std::uint64_t key) {
  TransferChannel& ch = *channels_.at(key);
  const double t = ch.next_completion(now_);
  if (!std::isfinite(t)) return;
  // Every membership change schedules a fresh tick, so a tick whose
  // generation has moved on is stale: drop it instead of letting it
  // start one more chain of ticks.
  eq_.at(t, [this, key, gen = ch.generation()] {
    if (channels_.at(key)->generation() != gen) return;
    drain_channel(key);
    if (channels_.at(key)->has_flows()) schedule_tick(key);
  });
}

double SimExecutor::exec_duration(const ooc::TaskDesc& desc) const {
  if (cfg_.cache_mode) {
    std::uint64_t bytes = 0;
    for (const auto& d : desc.deps) bytes += wl_->blocks()[d.block].bytes;
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<double>(bytes) * desc.work_factor);
    return cfg_.model.cache_mode_compute_time(scaled, wss_,
                                              cfg_.model.num_pes);
  }
  // Bytes stream from whichever tier each dependence is resident on —
  // on a two-tier model this collapses to the classic fast/slow split.
  const auto& m = cfg_.model;
  std::vector<std::uint64_t> by_tier(m.tiers.size(), 0);
  for (const auto& d : desc.deps) {
    const auto st = engine_.block_state(d.block);
    HMR_CHECK_MSG(st == ooc::BlockState::InFast ||
                      st == ooc::BlockState::InSlow,
                  "running task depends on an in-flight block");
    by_tier[engine_.block_tier(d.block)] += wl_->blocks()[d.block].bytes;
  }
  const auto scale = [&](std::uint64_t b) {
    return static_cast<std::uint64_t>(static_cast<double>(b) *
                                      desc.work_factor);
  };
  if (cfg_.hybrid_cache_fraction > 0 && by_tier[m.slow] > 0) {
    // Hybrid (two-tier only, enforced at construction): slow-resident
    // accesses go through the cached part of MCDRAM at the cache-mode
    // effective bandwidth.
    const double t_fast =
        m.compute_time2(scale(by_tier[m.fast]), 0, m.num_pes);
    const double share =
        hybrid_slow_bw_ / static_cast<double>(m.num_pes);
    const double sb = static_cast<double>(scale(by_tier[m.slow]));
    return t_fast + sb / share + sb / m.compute_bw_per_pe;
  }
  for (auto& b : by_tier) b = scale(b);
  return m.compute_time(by_tier, m.num_pes);
}

void SimExecutor::process(std::vector<ooc::Command> cmds) {
  for (const auto& c : cmds) {
    switch (c.kind) {
      case ooc::Command::Kind::Run: {
        if (cfg_.node_run_queue) {
          // Shared run queue: any idle PE may execute the task.
          node_q_.push_back(c.task);
          pump_node_queue();
          break;
        }
        const auto pe = static_cast<std::size_t>(c.pe);
        Job j;
        j.is_task = true;
        j.task = c.task;
        pes_[pe].q.push_back(std::move(j));
        pump_pe(pe);
        break;
      }
      case ooc::Command::Kind::Fetch:
      case ooc::Command::Kind::Evict: {
        Job j;
        j.cmd = c;
        if (c.agent == ooc::kWorkerInline) {
          // Synchronous pre/post-processing work: jumps ahead of any
          // queued tasks on the worker (it happens inside the current
          // entry-method boundary, before the scheduler moves on).
          const auto pe = static_cast<std::size_t>(c.pe);
          pes_[pe].q.push_front(std::move(j));
          pump_pe(pe);
        } else {
          enqueue_agent(c);
        }
        break;
      }
    }
  }
  if (guidance_) {
    guidance_->observe(cmds, engine_, [this](ooc::BlockId b) {
      return wl_->blocks()[b].bytes;
    });
  }
}

void SimExecutor::enqueue_agent(const ooc::Command& c) {
  HMR_CHECK(num_agents_ > 0);
  const auto a = static_cast<std::size_t>(c.agent % num_agents_);
  Job j;
  j.cmd = c;
  auto& q = agents_[a].q;
  if (tenancy_) {
    tenancy_->enqueue(q, std::move(j),
                      [](const Job& x) -> const ooc::Command& {
                        return x.cmd;
                      });
  } else {
    q.push_back(std::move(j));
  }
  pump_agent(a);
}

void SimExecutor::pump_node_queue() {
  // Hand shared ready tasks to idle PEs (lowest index first, like a
  // converse scheduler polling the node queue).
  for (std::size_t pe = 0; pe < pes_.size() && !node_q_.empty(); ++pe) {
    Lane& lane = pes_[pe];
    if (lane.busy || !lane.q.empty()) continue;
    Job j;
    j.is_task = true;
    j.task = node_q_.front();
    node_q_.pop_front();
    lane.q.push_back(std::move(j));
    pump_pe(pe);
  }
}

void SimExecutor::pump_pe(std::size_t pe) {
  Lane& lane = pes_[pe];
  if (lane.busy || lane.q.empty()) {
    if (cfg_.node_run_queue && !lane.busy && !node_q_.empty()) {
      pump_node_queue();
    }
    return;
  }
  Job job = std::move(lane.q.front());
  lane.q.pop_front();
  lane.busy = true;
  if (job.is_task) {
    const auto it = descs_.find(job.task);
    HMR_CHECK(it != descs_.end());
    const double dur = exec_duration(it->second);
    const double start = now_;
    const auto arrive_it = arrive_.find(job.task);
    HMR_CHECK(arrive_it != arrive_.end());
    result_.task_wait.add(start - arrive_it->second);
    result_.task_exec.add(dur);
    if (const telemetry::Hub::Histograms& h = hub_.histograms();
        h.task_wait_ns) {
      h.task_wait_ns->observe(static_cast<std::uint64_t>(
          (start - arrive_it->second) * 1e9));
      h.run_q_depth->observe(lane.q.size() + 1);
    }
    eq_.at(now_ + dur, [this, id = job.task, pe, start, dur] {
      finish_task(id, pe, start, dur);
    });
  } else {
    start_transfer(job.cmd, pe, /*on_worker=*/true);
  }
}

void SimExecutor::pump_agent(std::size_t a) {
  Lane& lane = agents_[a];
  if (lane.busy || lane.q.empty()) return;
  Job job = std::move(lane.q.front());
  lane.q.pop_front();
  lane.busy = true;
  HMR_DCHECK(!job.is_task);
  start_transfer(job.cmd, a, /*on_worker=*/false);
}

void SimExecutor::start_transfer(const ooc::Command& cmd,
                                 std::size_t lane_index, bool on_worker) {
  const bool fetch = cmd.kind == ooc::Command::Kind::Fetch;
  const double t0 = now_;
  const std::int32_t trace_lane =
      on_worker ? static_cast<std::int32_t>(lane_index)
                : cfg_.model.num_pes + static_cast<std::int32_t>(lane_index);
  // Step 1 of the paper's migration: numa_alloc_onnode on the
  // destination (plus the numa_free at the end) — a fixed overhead
  // before the copy proper starts.  A remote endpoint adds the
  // network's per-transfer latency (the message chain setup) before
  // the serialization phase.
  const ooc::RemoteTierParams* rp =
      remote_path(cmd.src_tier, cmd.dst_tier);
  const double start_delay =
      cfg_.model.alloc_overhead + (rp != nullptr ? rp->latency : 0.0);
  eq_.at(now_ + start_delay,
         [this, cmd, rp, lane_index, on_worker, fetch, t0, trace_lane] {
           if (fetch && cmd.nocopy) {
             // writeonly_nocopy: the buffer exists, no bytes move.
             tracer_.record(trace_lane, trace::Category::Prefetch, t0, now_,
                            cmd.task == ooc::kInvalidTask ? 0 : cmd.task);
             if (cmd.task != ooc::kInvalidTask) {
               note_wait(cmd.task, t0, cmd);
             }
             Lane& lane = on_worker ? pes_[lane_index] : agents_[lane_index];
             lane.busy = false;
             if (on_worker) result_.worker_transfer_seconds += now_ - t0;
             process(active_->on_fetch_complete(cmd.block));
             if (on_worker) {
               pump_pe(lane_index);
             } else {
               pump_agent(lane_index);
             }
             return;
           }
           const std::uint64_t key = pair_key(cmd.src_tier, cmd.dst_tier);
           TransferChannel& ch = channel_for(cmd.src_tier, cmd.dst_tier);
           drain_channel(key);
           const std::uint64_t id = next_flow_++;
           const std::uint64_t raw = wl_->blocks()[cmd.block].bytes;
           // Remote flow: scale the bytes so a solo flow takes exactly
           // the network's serialize time — when the message-rate term
           // dominates (small blocks), the flow occupies the NIC
           // longer than bytes/bandwidth would.
           const double bytes =
               rp != nullptr
                   ? rp->serialize_seconds(raw) * rp->bandwidth
                   : static_cast<double>(raw);
           ch.add_flow(id, bytes, now_);
           FlowCtx ctx;
           ctx.cmd = cmd;
           ctx.trace_lane = trace_lane;
           ctx.on_worker = on_worker;
           ctx.lane_index = lane_index;
           ctx.t0 = t0;
           flows_.emplace(id, ctx);
           schedule_tick(key);
         });
}

void SimExecutor::finish_transfer(std::uint64_t flow_id) {
  const auto it = flows_.find(flow_id);
  HMR_CHECK(it != flows_.end());
  const FlowCtx ctx = it->second;
  flows_.erase(it);

  const bool fetch = ctx.cmd.kind == ooc::Command::Kind::Fetch;
  // Only task-bound migrations (kInvalidTask = an untriggered
  // eviction) feed a task's stall attribution.
  const ooc::TaskId cause =
      ctx.cmd.task == ooc::kInvalidTask ? 0 : ctx.cmd.task;
  const std::uint64_t bytes = wl_->blocks()[ctx.cmd.block].bytes;
  hub_.record_migration(tracer_, ctx.trace_lane, ctx.cmd, ctx.t0, now_,
                        bytes);
  if (const auto* rp = remote_path(ctx.cmd.src_tier, ctx.cmd.dst_tier)) {
    result_.remote_messages += rp->messages(bytes);
  }
  if (cause != 0) note_wait(cause, ctx.t0, ctx.cmd);
  Lane& lane = ctx.on_worker ? pes_[ctx.lane_index] : agents_[ctx.lane_index];
  lane.busy = false;
  if (ctx.on_worker) result_.worker_transfer_seconds += now_ - ctx.t0;

  process(fetch ? active_->on_fetch_complete(ctx.cmd.block)
                : active_->on_evict_complete(ctx.cmd.block));
  if (ctx.on_worker) {
    pump_pe(ctx.lane_index);
    if (cfg_.node_run_queue) pump_node_queue();
  } else {
    pump_agent(ctx.lane_index);
  }
}

/// Remember one migration the task caused; decomposed into stall
/// buckets when the task retires.  Dedup'd fetches attribute to their
/// causing task only — other tasks behind the same block count the
/// time as queue wait.
void SimExecutor::note_wait(ooc::TaskId cause, double t0,
                            const ooc::Command& cmd) {
  if (!hub_.attribution()) return;
  telemetry::WaitSegment s;
  s.t0 = t0;
  s.t1 = now_;
  s.src = cmd.src_tier;
  s.dst = cmd.dst_tier;
  s.remote = remote_path(cmd.src_tier, cmd.dst_tier) != nullptr;
  s.evict = cmd.kind == ooc::Command::Kind::Evict;
  s.block = cmd.block;
  waits_[cause].push_back(s);
}

void SimExecutor::finish_task(ooc::TaskId id, std::size_t pe, double t_start,
                              double duration) {
  tracer_.record(static_cast<std::int32_t>(pe), trace::Category::Compute,
                 t_start, now_, id);
  if (telemetry::AttributionTable* attrib = hub_.attribution()) {
    telemetry::TaskAttribution a;
    a.task = id;
    a.pe = static_cast<std::int32_t>(pe);
    a.phase = attrib_phase_;
    const auto dit = descs_.find(id);
    if (dit != descs_.end()) {
      a.tenant = dit->second.tenant;
      if (attrib->keep_tasks() && !cfg_.cache_mode) {
        // Residency at retirement == residency at launch: dependency
        // pins keep the blocks in place while the task runs.
        a.bytes_by_tier.assign(cfg_.model.tiers.size(), 0);
        for (const auto& d : dit->second.deps) {
          a.bytes_by_tier[engine_.block_tier(d.block)] +=
              wl_->blocks()[d.block].bytes;
        }
        // Store what exec_duration fed the roofline (work_factor in).
        for (auto& b : a.bytes_by_tier) {
          b = static_cast<std::uint64_t>(static_cast<double>(b) *
                                         dit->second.work_factor);
        }
      }
    }
    const auto ait = arrive_.find(id);
    a.arrive = ait != arrive_.end() ? ait->second : t_start;
    a.start = t_start;
    a.end = now_;
    std::vector<telemetry::WaitSegment> segs;
    if (const auto wit = waits_.find(id); wit != waits_.end()) {
      segs = std::move(wit->second);
      waits_.erase(wit);
    }
    telemetry::decompose_wait(a, std::move(segs));
    attrib->record(0, a);
  }
  result_.compute_lane_seconds += duration;
  ++result_.tasks_completed;
  pes_[pe].busy = false;
  if (tenancy_ && tracer_.enabled()) {
    // Mirror the compute interval onto the task's tenant lane (lanes
    // after the workers and IO agents) for per-tenant timelines.
    // Tracer::summarize(worker_lanes) clips to the worker lanes, so
    // utilization figures are unaffected.
    const auto dit = descs_.find(id);
    if (dit != descs_.end()) {
      tracer_.record(cfg_.model.num_pes + num_agents_ +
                         static_cast<std::int32_t>(dit->second.tenant),
                     trace::Category::Compute, t_start, now_, id);
    }
  }
  process(active_->on_task_complete(id, static_cast<std::int32_t>(pe)));
  // DAG delivery: completion releases successor messages.
  if (const auto it = dependents_.find(id); it != dependents_.end()) {
    for (const auto succ : it->second) {
      auto pit = pending_preds_.find(succ);
      HMR_DCHECK(pit != pending_preds_.end() && pit->second > 0);
      if (--pit->second == 0) {
        const auto dit = descs_.find(succ);
        HMR_CHECK(dit != descs_.end());
        inject_task(dit->second);
      }
    }
  }
  pump_pe(pe);
  if (cfg_.node_run_queue) pump_node_queue();
}

void SimExecutor::inject_task(const ooc::TaskDesc& desc) {
  ++dag_injected_;
  arrive_[desc.id] = now_;
  dispatch_arrival(desc);
}

void SimExecutor::export_sim_metrics() {
  if (tenancy_ && cfg_.metrics) tenancy_->export_metrics(*cfg_.metrics);
}

void SimExecutor::governor_phase_end(double t_iter) {
  const double phase_seconds = now_ - t_iter;
  double wait_fraction = 0;
  if (phase_seconds > 0) {
    // Wait fraction from the trace when one is being recorded (the
    // per-phase summary window), else from the compute-seconds delta.
    const double compute =
        tracer_.enabled()
            ? tracer_.summarize(cfg_.model.num_pes, t_iter, now_)
                  .total_of(trace::Category::Compute)
            : result_.compute_lane_seconds - phase_compute_base_;
    const double lane_seconds = phase_seconds * cfg_.model.num_pes;
    wait_fraction = std::clamp(1.0 - compute / lane_seconds, 0.0, 1.0);
  }
  phase_compute_base_ = result_.compute_lane_seconds;
  process(guidance_->end_phase(engine_, phase_seconds, wait_fraction));
  // Drain any LRU-flush evictions so the next phase starts clean.
  while (!eq_.empty()) {
    auto [t, fn] = eq_.pop();
    now_ = t;
    fn();
  }
  HMR_CHECK_MSG(engine_.quiescent(),
                "governor reconfiguration left transfers outstanding");
}

SimResult SimExecutor::run(const Workload& w) {
  HMR_CHECK_MSG(!ran_, "SimExecutor::run may only be called once");
  ran_ = true;
  wl_ = &w;

  const auto& blocks = w.blocks();
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    HMR_CHECK_MSG(blocks[i].id == i, "workload block ids must be dense");
    if (tenancy_) {
      HMR_CHECK_MSG(blocks[i].home_level < 0,
                    "home_level placement is not supported under tenancy");
      tenancy_->add_block(blocks[i].id, blocks[i].bytes);
    } else {
      engine_.add_block(blocks[i].id, blocks[i].bytes,
                        blocks[i].home_level);
    }
    wss_ += blocks[i].bytes;
  }

  if (cfg_.hybrid_cache_fraction > 0) {
    const auto mcdram = cfg_.model.tier(cfg_.model.fast).capacity;
    hybrid_cache_ = static_cast<std::uint64_t>(
        static_cast<double>(mcdram) * cfg_.hybrid_cache_fraction);
    // The cache serves whatever does not fit the flat budget.
    const std::uint64_t flat = mcdram - hybrid_cache_;
    const std::uint64_t slow_wss = wss_ > flat ? wss_ - flat : 1;
    hybrid_slow_bw_ = cfg_.model.cache_mode_bw(slow_wss, hybrid_cache_);
  }

  // Dependency-DAG mode: any task with predecessors switches delivery
  // from per-iteration barriers to completion-triggered injection.
  bool dag = false;
  for (int iter = 0; iter < w.iterations() && !dag; ++iter) {
    for (const auto& t : w.iteration_tasks(iter)) {
      if (!t.predecessors.empty()) {
        dag = true;
        break;
      }
    }
  }
  if (dag) {
    HMR_CHECK_MSG(w.iterations() == 1,
                  "dependency-DAG workloads must present all tasks as one "
                  "iteration");
    std::vector<ooc::TaskId> roots;
    for (auto& t : w.iteration_tasks(0)) {
      const auto id = t.id;
      const auto preds = t.predecessors;
      auto [it, ins] = descs_.emplace(id, std::move(t));
      HMR_CHECK_MSG(ins, "duplicate task id");
      if (preds.empty()) {
        roots.push_back(id);
      } else {
        pending_preds_[id] = preds.size();
        for (const auto p : preds) dependents_[p].push_back(id);
      }
    }
    for (const auto& [id, n_preds] : pending_preds_) {
      (void)n_preds;
      for (const auto pred : descs_.at(id).predecessors) {
        HMR_CHECK_MSG(descs_.count(pred),
                      "task depends on an unknown predecessor");
      }
    }
    for (const auto id : roots) inject_task(descs_.at(id));
    while (!eq_.empty()) {
      auto [t, fn] = eq_.pop();
      now_ = t;
      fn();
    }
    HMR_CHECK_MSG(dag_injected_ == descs_.size(),
                  "dependency cycle: some tasks were never released");
    HMR_CHECK_MSG(engine_quiescent(),
                  "DAG run ended with tasks or transfers outstanding");
    result_.iteration_times.push_back(now_);
    return finish();
  }

  for (int iter = 0; iter < w.iterations(); ++iter) {
    const double t_iter = now_;
    attrib_phase_ = iter;
    for (auto& t : w.iteration_tasks(iter)) {
      arrive_[t.id] = now_;
      auto [it, ins] = descs_.emplace(t.id, std::move(t));
      HMR_CHECK_MSG(ins, "duplicate task id across iterations");
      dispatch_arrival(it->second);
    }
    while (!eq_.empty()) {
      auto [t, fn] = eq_.pop();
      now_ = t;
      fn();
    }
    if (!engine_quiescent()) {
      if (tenancy_) {
        std::fprintf(stderr, "hmr: sim wedge: tenancy deferred=%zu\n",
                     tenancy_->total_waiting() - engine_.total_waiting());
      }
      std::fprintf(stderr,
                   "hmr: sim wedge: waiting=%zu live=%zu inflight_fetch=%zu "
                   "inflight_evict=%zu fast=%llu/%llu\n",
                   engine_.total_waiting(), engine_.live_tasks(),
                   engine_.inflight_fetches(), engine_.inflight_evicts(),
                   static_cast<unsigned long long>(engine_.fast_used()),
                   static_cast<unsigned long long>(engine_.fast_capacity()));
      for (const auto& [key, ch] : channels_) {
        if (ch->flow_count() == 0) continue;
        std::fprintf(stderr, "  channel %u->%u flows=%zu\n",
                     static_cast<unsigned>(key >> 32),
                     static_cast<unsigned>(key & 0xffffffffu),
                     ch->flow_count());
      }
      for (std::size_t pe = 0; pe < pes_.size(); ++pe) {
        if (pes_[pe].busy || !pes_[pe].q.empty()) {
          std::fprintf(stderr, "  pe %zu busy=%d jobs=%zu\n", pe,
                       pes_[pe].busy, pes_[pe].q.size());
        }
      }
      for (std::size_t a = 0; a < agents_.size(); ++a) {
        if (agents_[a].busy || !agents_[a].q.empty()) {
          std::fprintf(stderr, "  agent %zu busy=%d jobs=%zu\n", a,
                       agents_[a].busy, agents_[a].q.size());
        }
      }
      engine_.debug_dump(stderr);
      HMR_CHECK_MSG(false,
                    "iteration ended with tasks or transfers outstanding");
    }
    HMR_CHECK(node_q_.empty());
    for (const auto& lane : pes_) {
      HMR_CHECK(!lane.busy && lane.q.empty());
    }
    for (const auto& lane : agents_) {
      HMR_CHECK(!lane.busy && lane.q.empty());
    }
    result_.iteration_times.push_back(now_ - t_iter);
    // Phase boundary: the governor observes the finished iteration and
    // retunes the engine for the next one (no point after the last).
    if (guidance_ && iter + 1 < w.iterations()) governor_phase_end(t_iter);
    if (hub_.history()) {
      // Refresh the registry (the DES otherwise exports only at the
      // end of run()) so each sample carries current engine counters.
      export_sim_metrics();
      hub_.on_quiescence(engine_, tracer_);
    }
  }
  return finish();
}

} // namespace hmr::sim
