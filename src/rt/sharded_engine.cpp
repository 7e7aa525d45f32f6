#include "rt/sharded_engine.hpp"

#include <algorithm>
#include <span>

#include "ooc/protocol.hpp"
#include "util/check.hpp"

namespace hmr::rt {

using ooc::BlockState;
using ooc::Command;

ShardedEngine::ShardedEngine(Config cfg, trace::ContentionStats* lock_stats)
    : cfg_(std::move(cfg)),
      lock_stats_(lock_stats),
      shards_(static_cast<std::size_t>(cfg_.num_pes)),
      pe_claims_(static_cast<std::size_t>(cfg_.num_pes)),
      chunks_(kMaxChunks) {
  ooc::PolicyEngine::resolve_tiers(cfg_);
  HMR_CHECK_MSG(covers(cfg_), "the sharded engine covers MultiIo with eager "
                              "eviction, no advisor and no LRU watermark");
  budgets_.resize(cfg_.tiers.size());
  for (std::size_t k = 0; k + 1 < cfg_.tiers.size(); ++k) {
    budgets_[k] = std::make_unique<ooc::TierBudget>(cfg_.tiers[k].capacity,
                                                    cfg_.num_pes);
  }
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

ShardedEngine::~ShardedEngine() {
  for (auto& c : chunks_) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

ShardedEngine::BlockRec* ShardedEngine::find_block(ooc::BlockId b) const {
  // Bounded by the chunk table, not n_blocks_: the hot path must not
  // read the counter every registration writes.
  const std::size_t ci = static_cast<std::size_t>(b) >> kChunkShift;
  if (ci >= kMaxChunks) return nullptr;
  BlockRec* chunk = chunks_[ci].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return &chunk[static_cast<std::size_t>(b) & (kChunkSize - 1)];
}

ShardedEngine::BlockRec& ShardedEngine::block(ooc::BlockId b) const {
  HMR_DCHECK(b < n_blocks_.load(std::memory_order_acquire));
  BlockRec* rec = find_block(b);
  HMR_CHECK_MSG(rec != nullptr, "unknown block id");
  return *rec;
}

ooc::TierId ShardedEngine::add_block(ooc::BlockId b, std::uint64_t bytes) {
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  std::lock_guard lk(registry_mu_);
  const std::size_t ci = static_cast<std::size_t>(b) >> kChunkShift;
  HMR_CHECK_MSG(ci < kMaxChunks, "block id space exhausted");
  BlockRec* chunk = chunks_[ci].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new BlockRec[kChunkSize];
    chunks_[ci].store(chunk, std::memory_order_release);
  }
  BlockRec& rec = chunk[static_cast<std::size_t>(b) & (kChunkSize - 1)];
  {
    std::lock_guard slk(stripe(b).mu);
    HMR_CHECK_MSG(!rec.live, "duplicate block id");
    rec.bytes = bytes;
    rec.level = bottom(); // movement strategies start on the far tier
    rec.from_level = -1;
    rec.refcount = 0;
    rec.claim_shard = 0;
    rec.src_claim_shard = 0;
    rec.live = true;
    rec.waiters.clear();
  }
  registered_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  std::uint64_t n = n_blocks_.load(std::memory_order_relaxed);
  while (n <= b &&
         !n_blocks_.compare_exchange_weak(n, b + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
  return cfg_.tiers.back().id;
}

void ShardedEngine::remove_block(ooc::BlockId b) {
  std::lock_guard lk(registry_mu_);
  BlockRec& rec = block(b);
  std::lock_guard slk(stripe(b).mu);
  HMR_CHECK_MSG(rec.live, "unknown block id");
  HMR_CHECK_MSG(rec.refcount == 0, "removing a claimed block");
  HMR_CHECK_MSG(rec.from_level < 0, "removing a block mid-migration");
  if (rec.level < bottom()) {
    budgets_[static_cast<std::size_t>(rec.level)]->release(rec.claim_shard,
                                                           rec.bytes);
  }
  rec.live = false;
  registered_bytes_.fetch_sub(rec.bytes, std::memory_order_relaxed);
}

// Locks the stripes of a task's dependences in ascending stripe order
// (deadlock-free against concurrent multi-stripe admissions).
class ShardedEngine::StripeLockSet {
public:
  StripeLockSet(ShardedEngine& eng, const std::vector<ooc::Dep>& deps) {
    ids_.reserve(deps.size());
    for (const auto& d : deps) {
      ids_.push_back(static_cast<std::size_t>(d.block) % kStripes);
    }
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
    for (const std::size_t s : ids_) eng.stripes_[s].mu.lock();
    eng_ = &eng;
  }
  ~StripeLockSet() {
    for (auto it = ids_.rbegin(); it != ids_.rend(); ++it) {
      eng_->stripes_[*it].mu.unlock();
    }
  }
  StripeLockSet(const StripeLockSet&) = delete;
  StripeLockSet& operator=(const StripeLockSet&) = delete;

private:
  ShardedEngine* eng_ = nullptr;
  std::vector<std::size_t> ids_;
};

bool ShardedEngine::try_admit(Shard& sh, TaskRec& tr, bool only_if_free,
                              std::vector<Command>& cmds) {
  const std::int32_t pe = tr.desc.pe; // == its shard's index
  StripeLockSet locks(*this, tr.desc.deps);

  // Pass 1: the all-or-nothing admission decision.
  std::uint64_t extra = 0;
  for (const auto& d : tr.desc.deps) {
    const BlockRec* rec = find_block(d.block);
    HMR_CHECK_MSG(rec != nullptr && rec->live,
                  "task depends on an unregistered block");
    const BlockRec& br = *rec;
    if (br.from_level >= 0) {
      // A demotion must land before the block can be re-fetched; an
      // inbound promotion is already claimed in the level-0 budget.
      if (br.level != 0) return false;
      continue;
    }
    if (br.level > 0) extra += br.bytes;
  }
  if (only_if_free) {
    // Arrival fast path (paper: all deps already INHBM): no fresh
    // bytes, no queue, no fairness gate.
    if (extra != 0) return false;
  } else {
    const std::uint64_t held = pe_claims_[static_cast<std::size_t>(pe)]
                                   .bytes.load(std::memory_order_relaxed);
    if (!ooc::within_fair_share(cfg_, held, extra)) return false;
    if (extra > 0 && !budgets_[0]->try_claim(pe, extra)) {
      HMR_CHECK_MSG(extra <= cfg_.fast_capacity,
                    "scheduling wedge: a waiting task's dependences exceed "
                    "the fast-tier capacity (reduced working set must fit "
                    "in HBM)");
      return false;
    }
  }

  // Pass 2: commit — claim every dependence and plan the fetches.
  std::uint32_t missing = 0;
  for (const auto& d : tr.desc.deps) {
    BlockRec& br = block(d.block);
    ++br.refcount;
    if (br.from_level >= 0) {
      // Another admitted task is already pulling this block in; wait
      // for the same fetch (no duplicate traffic).
      HMR_CHECK_MSG(br.level == 0,
                    "admitted task depends on a demoting block");
      br.waiters.push_back(&tr);
      ++missing;
      ++sh.stats.fetch_dedup_hits;
    } else if (br.level > 0) {
      const std::int32_t src = br.level;
      br.from_level = src;
      br.level = 0;
      // The source-level claim (if the source is bounded) is released
      // when the promotion lands; the level-0 bytes were claimed in
      // `extra` above.
      br.src_claim_shard = br.claim_shard;
      br.claim_shard = pe;
      br.waiters.push_back(&tr);
      ++missing;
      n_inflight_fetch_.fetch_add(1, std::memory_order_acq_rel);
      // MultiIo: the PE's own IO thread fetches.
      cmds.push_back(ooc::fetch_command(cfg_, d, br.bytes, src, tr.desc.id,
                                        pe, pe, sh.stats));
    }
    // else: already resident on the top level — nothing to plan.
  }
  tr.claim_bytes = only_if_free ? 0 : extra;
  pe_claims_[static_cast<std::size_t>(pe)].bytes.fetch_add(
      tr.claim_bytes, std::memory_order_relaxed);
  n_live_.fetch_add(1, std::memory_order_acq_rel);
  // Store while the stripes are held: any fetch completion that could
  // decrement this counter serializes behind the stripe locks above.
  tr.missing.store(missing, std::memory_order_release);
  if (missing == 0) cmds.push_back(ooc::run_command(tr.desc.id, pe));
  return true;
}

void ShardedEngine::drain_locked(Shard& sh, std::vector<Command>& cmds) {
  while (!sh.wait_q.empty()) {
    TaskRec& head = *sh.tasks.at(sh.wait_q.front());
    if (!try_admit(sh, head, /*only_if_free=*/false, cmds)) {
      break; // FIFO: the head blocks its queue
    }
    sh.wait_q.pop_front();
    n_waiting_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void ShardedEngine::drain_shard(std::size_t s, std::vector<Command>& cmds) {
  Shard& sh = shards_[s];
  lock_shard(s);
  std::lock_guard lk(sh.mu, std::adopt_lock);
  drain_locked(sh, cmds);
}

std::vector<Command> ShardedEngine::on_task_arrived(
    const ooc::TaskDesc& desc) {
  ooc::check_arrival(desc, cfg_.num_pes);

  events_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Command> cmds;
  const auto s = static_cast<std::size_t>(desc.pe);
  Shard& sh = shards_[s];

  lock_shard(s);
  std::lock_guard lk(sh.mu, std::adopt_lock);

  auto rec = std::make_unique<TaskRec>();
  rec->desc = desc;
  TaskRec& tr = *rec;
  HMR_CHECK_MSG(sh.tasks.emplace(desc.id, std::move(rec)).second,
                "duplicate task id");

  if (!desc.prefetch) {
    // Non-annotated entry method: deliver directly.  Its dependences
    // claim nothing, but must name registered blocks all the same
    // (try_admit checks the annotated ones).
    for (const auto& d : desc.deps) {
      std::lock_guard slk(stripe(d.block).mu);
      const BlockRec* br = find_block(d.block);
      HMR_CHECK_MSG(br != nullptr && br->live,
                    "task depends on an unregistered block");
    }
    n_live_.fetch_add(1, std::memory_order_acq_rel);
    cmds.push_back(ooc::run_command(desc.id, desc.pe));
    return cmds;
  }

  if (try_admit(sh, tr, /*only_if_free=*/true, cmds)) {
    return cmds;
  }
  sh.wait_q.push_back(desc.id);
  n_waiting_.fetch_add(1, std::memory_order_acq_rel);
  // Drain this PE's queue (the paper: the arriving task wakes its PE's
  // IO thread, which admits FIFO heads until HBM is full).
  drain_locked(sh, cmds);
  return cmds;
}

std::vector<Command> ShardedEngine::on_fetch_complete(ooc::BlockId b) {
  events_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Command> cmds;
  std::vector<TaskRec*> ready;
  std::int32_t src = -1;
  std::int32_t src_shard = 0;
  std::uint64_t bytes = 0;
  {
    std::lock_guard slk(stripe(b).mu);
    BlockRec& br = block(b);
    HMR_CHECK_MSG(br.from_level >= 0 && br.level == 0,
                  "fetch completion for a block not being fetched");
    src = br.from_level;
    src_shard = br.src_claim_shard;
    bytes = br.bytes;
    br.from_level = -1;
    for (TaskRec* w : br.waiters) {
      if (w->missing.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        ready.push_back(w);
      }
    }
    br.waiters.clear();
  }
  // The source copy is released on landing — a promotion out of a
  // bounded middle level frees that level's budget here.
  if (src < bottom()) {
    budgets_[static_cast<std::size_t>(src)]->release(src_shard, bytes);
  }
  n_inflight_fetch_.fetch_sub(1, std::memory_order_acq_rel);
  for (TaskRec* w : ready) {
    cmds.push_back(ooc::run_command(w->desc.id, w->desc.pe));
  }
  return cmds;
}

std::vector<Command> ShardedEngine::on_evict_complete(ooc::BlockId b) {
  events_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bytes = 0;
  std::int32_t src = -1;
  std::int32_t src_shard = 0;
  {
    std::lock_guard slk(stripe(b).mu);
    BlockRec& br = block(b);
    HMR_CHECK_MSG(br.from_level >= 0 && br.level > 0,
                  "evict completion for a block not being evicted");
    src = br.from_level;
    src_shard = br.src_claim_shard;
    bytes = br.bytes;
    br.from_level = -1;
  }
  if (src < bottom()) {
    budgets_[static_cast<std::size_t>(src)]->release(src_shard, bytes);
  }
  n_inflight_evict_.fetch_sub(1, std::memory_order_acq_rel);

  // Freed capacity can unblock any PE's queue head (the serial engine
  // retries every queue here too).
  std::vector<Command> cmds;
  if (n_waiting_.load(std::memory_order_acquire) > 0) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      drain_shard(s, cmds);
    }
  }
  return cmds;
}

std::vector<Command> ShardedEngine::on_task_complete(ooc::TaskId t,
                                                     std::int32_t pe) {
  events_.fetch_add(1, std::memory_order_relaxed);
  HMR_CHECK(pe >= 0 && pe < cfg_.num_pes);
  const auto s = static_cast<std::size_t>(pe);
  Shard& sh = shards_[s];
  std::vector<Command> cmds;

  lock_shard(s);
  std::lock_guard lk(sh.mu, std::adopt_lock);
  auto it = sh.tasks.find(t);
  HMR_CHECK_MSG(it != sh.tasks.end(), "completion for an unknown task");
  std::unique_ptr<TaskRec> tr = std::move(it->second);
  sh.tasks.erase(it);
  HMR_CHECK_MSG(tr->missing.load(std::memory_order_acquire) == 0,
                "completion for a task that was never made runnable");

  ++sh.stats.tasks_run;
  pe_claims_[static_cast<std::size_t>(pe)].bytes.fetch_sub(
      tr->claim_bytes, std::memory_order_relaxed);

  // Post-processing: release claims; blocks that drop to refcount 0
  // are eagerly evicted (paper behaviour).  Non-annotated entry
  // methods never claimed their deps, so there is nothing to release.
  const std::int32_t agent = ooc::evict_agent(cfg_, pe);
  const std::span<const ooc::Dep> deps_held =
      tr->desc.prefetch ? std::span<const ooc::Dep>(tr->desc.deps)
                        : std::span<const ooc::Dep>();
  for (const auto& d : deps_held) {
    std::lock_guard slk(stripe(d.block).mu);
    BlockRec& br = block(d.block);
    HMR_CHECK_MSG(br.refcount > 0, "refcount underflow");
    --br.refcount;
    if (br.refcount == 0 && br.level == 0 && br.from_level < 0) {
      // Demotion cascade: probe the middle levels' budgets in speed
      // order (try_claim doubles as an exact concurrent fit check);
      // overflow to the unbounded bottom.
      std::int32_t dst = bottom();
      if (cfg_.demote_cascade) {
        for (std::int32_t k = 1; k < bottom(); ++k) {
          if (budgets_[static_cast<std::size_t>(k)]->try_claim(pe,
                                                               br.bytes)) {
            dst = k;
            break;
          }
        }
      }
      br.from_level = 0;
      br.level = dst;
      br.src_claim_shard = br.claim_shard; // level-0 claim, freed on landing
      br.claim_shard = pe;                 // dst claim (bounded dst only)
      n_inflight_evict_.fetch_add(1, std::memory_order_acq_rel);
      cmds.push_back(ooc::evict_command(cfg_, d.block, br.bytes, 0, dst, t,
                                        agent, pe, sh.stats));
    }
  }
  n_live_.fetch_sub(1, std::memory_order_acq_rel);

  // Wake our own queues: shared blocks may have become resident.  The
  // budget this completion frees arrives via on_evict_complete, which
  // retries every shard.
  drain_locked(sh, cmds);
  return cmds;
}

ooc::EngineStats ShardedEngine::stats() const {
  ooc::EngineStats out;
  for (std::int32_t s = 0; s < num_shards(); ++s) out += shard_stats(s);
  return out;
}

ooc::EngineStats ShardedEngine::shard_stats(std::int32_t s) const {
  HMR_CHECK(s >= 0 && static_cast<std::size_t>(s) < shards_.size());
  auto& sh = const_cast<Shard&>(shards_[static_cast<std::size_t>(s)]);
  std::lock_guard lk(sh.mu);
  return sh.stats;
}

bool ShardedEngine::quiescent() const {
  return n_waiting_.load(std::memory_order_acquire) == 0 &&
         n_live_.load(std::memory_order_acquire) == 0 &&
         n_inflight_fetch_.load(std::memory_order_acquire) == 0 &&
         n_inflight_evict_.load(std::memory_order_acquire) == 0;
}

std::uint64_t ShardedEngine::tier_used(std::int32_t level) const {
  if (level < bottom()) {
    return budgets_[static_cast<std::size_t>(level)]->used();
  }
  std::uint64_t bounded = 0;
  for (std::int32_t k = 0; k < bottom(); ++k) {
    bounded += budgets_[static_cast<std::size_t>(k)]->used();
  }
  const std::uint64_t all = registered_bytes_.load(std::memory_order_relaxed);
  return all > bounded ? all - bounded : 0;
}

ooc::BlockState ShardedEngine::block_state(ooc::BlockId b) const {
  std::lock_guard slk(stripe(b).mu);
  const BlockRec& br = block(b);
  return ooc::state_of(br.level, br.from_level);
}

std::int32_t ShardedEngine::block_level(ooc::BlockId b) const {
  std::lock_guard slk(stripe(b).mu);
  return block(b).level;
}

std::uint32_t ShardedEngine::refcount(ooc::BlockId b) const {
  std::lock_guard slk(stripe(b).mu);
  return block(b).refcount;
}

std::vector<std::string> ShardedEngine::audit_invariants(
    bool at_quiescence) const {
  auto* self = const_cast<ShardedEngine*>(this);

  // Lock the world in the canonical order (shard mutexes, then the
  // registry, then every stripe ascending) so the snapshot is one
  // consistent cut.  Event paths take shard -> stripes or registry ->
  // stripe, never the reverse.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size() + 1 + kStripes);
  for (auto& sh : self->shards_) locks.emplace_back(sh.mu);
  locks.emplace_back(self->registry_mu_);
  for (auto& st : self->stripes_) locks.emplace_back(st.mu);

  ooc::ProtocolSnapshot s;
  s.num_levels = num_levels();
  for (const Shard& sh : shards_) {
    s.wait_queues.push_back(&sh.wait_q);
    std::unordered_map<ooc::TaskId, std::size_t> in_q;
    for (const ooc::TaskId t : sh.wait_q) ++in_q[t];
    for (const auto& [id, tr] : sh.tasks) {
      s.tasks.push_back({id, tr->desc.pe, in_q.count(id) > 0,
                         tr->desc.prefetch,
                         tr->missing.load(std::memory_order_relaxed),
                         tr->claim_bytes, &tr->desc.deps, nullptr});
    }
  }
  const std::uint64_t n = n_blocks_.load(std::memory_order_acquire);
  for (std::uint64_t b = 0; b < n; ++b) {
    const BlockRec* rec = find_block(b);
    if (rec == nullptr || !rec->live) continue;
    const BlockRec& br = *rec;
    ooc::ProtocolSnapshot::Block sb{b, br.bytes, br.level, br.from_level,
                                    br.refcount, 0, {}};
    for (const TaskRec* w : br.waiters) sb.waiters.push_back(w->desc.id);
    s.blocks.push_back(std::move(sb));
  }
  // Budgets: exact here — all mutators are locked out.  The bottom
  // level's count is derived (registered minus bounded), which a
  // migrating block's two-ended claim skews until it lands.
  for (std::int32_t k = 0; k < (at_quiescence ? num_levels() : bottom());
       ++k) {
    s.used.push_back(tier_used(k));
  }
  for (const PeClaim& pc : pe_claims_) {
    s.pe_claims.push_back(pc.bytes.load(std::memory_order_relaxed));
  }
  s.n_waiting = n_waiting_.load(std::memory_order_acquire);
  s.n_live = n_live_.load(std::memory_order_acquire);
  s.n_inflight_fetch = n_inflight_fetch_.load(std::memory_order_acquire);
  s.n_inflight_evict = n_inflight_evict_.load(std::memory_order_acquire);
  s.quiescent = quiescent();
  return ooc::audit_protocol(s, at_quiescence);
}

} // namespace hmr::rt
