#include "rt/sharded_engine.hpp"

#include <algorithm>

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
  HMR_CHECK(cfg_.num_pes > 0);
  if (cfg_.tiers.empty()) {
    tiers_ = {ooc::TierDesc{1, cfg_.fast_capacity, 1.0},
              ooc::TierDesc{0, 0, 1.0}};
  } else {
    tiers_ = cfg_.tiers;
    HMR_CHECK_MSG(tiers_.size() >= 2, "placement hierarchy needs >= 2 levels");
    cfg_.fast_capacity = tiers_.front().capacity;
  }
  budgets_.resize(tiers_.size());
  for (std::size_t k = 0; k + 1 < tiers_.size(); ++k) {
    budgets_[k] =
        std::make_unique<ooc::TierBudget>(tiers_[k].capacity, cfg_.num_pes);
  }
  for (auto& c : chunks_) c.store(nullptr, std::memory_order_relaxed);
}

ShardedEngine::~ShardedEngine() {
  for (auto& c : chunks_) {
    delete[] c.load(std::memory_order_relaxed);
  }
}

ShardedEngine::BlockRec& ShardedEngine::block(ooc::BlockId b) const {
  HMR_DCHECK(b < n_blocks_.load(std::memory_order_acquire));
  BlockRec* chunk =
      chunks_[static_cast<std::size_t>(b) >> kChunkShift].load(
          std::memory_order_acquire);
  HMR_CHECK_MSG(chunk != nullptr, "unknown block id");
  return chunk[static_cast<std::size_t>(b) & (kChunkSize - 1)];
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
  std::uint64_t n = n_blocks_.load(std::memory_order_relaxed);
  while (n <= b &&
         !n_blocks_.compare_exchange_weak(n, b + 1,
                                          std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
  return tiers_.back().id;
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
    const BlockRec& br = block(d.block);
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
    if (cfg_.fair_admission) {
      const auto& pc = pe_claims_[static_cast<std::size_t>(pe)];
      const std::uint64_t held = pc.bytes.load(std::memory_order_relaxed);
      const std::uint64_t share =
          cfg_.fast_capacity / static_cast<std::uint64_t>(cfg_.num_pes);
      if (held != 0 && held + extra > share) return false;
    }
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
      ++sh.stats.fetches;
      sh.stats.fetch_bytes += br.bytes;
      if (tiers_[static_cast<std::size_t>(src)].backend ==
          ooc::TierBackendKind::Remote) {
        ++sh.stats.remote_fetches;
        sh.stats.remote_fetch_bytes += br.bytes;
      }
      Command c;
      c.kind = Command::Kind::Fetch;
      c.block = d.block;
      c.task = tr.desc.id;
      c.agent = pe; // MultiIo: the PE's own IO thread
      c.pe = pe;
      c.nocopy =
          cfg_.writeonly_nocopy && d.mode == ooc::AccessMode::WriteOnly;
      c.src_tier = tiers_[static_cast<std::size_t>(src)].id;
      c.dst_tier = tiers_[0].id;
      cmds.push_back(c);
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
  if (missing == 0) {
    Command c;
    c.kind = Command::Kind::Run;
    c.task = tr.desc.id;
    c.pe = pe;
    cmds.push_back(c);
  }
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
  HMR_CHECK_MSG(desc.id != ooc::kInvalidTask, "task needs a valid id");
  HMR_CHECK_MSG(desc.pe >= 0 && desc.pe < cfg_.num_pes,
                "task pe out of range");
  for (std::size_t i = 0; i < desc.deps.size(); ++i) {
    for (std::size_t j = i + 1; j < desc.deps.size(); ++j) {
      HMR_CHECK_MSG(desc.deps[i].block != desc.deps[j].block,
                    "duplicate dependence on one block");
    }
  }

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
    // Non-annotated entry method: deliver directly.
    n_live_.fetch_add(1, std::memory_order_acq_rel);
    Command c;
    c.kind = Command::Kind::Run;
    c.task = desc.id;
    c.pe = desc.pe;
    cmds.push_back(c);
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
    Command c;
    c.kind = Command::Kind::Run;
    c.task = w->desc.id;
    c.pe = w->desc.pe;
    cmds.push_back(c);
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
  const std::int32_t evict_agent =
      cfg_.evict_by_worker ? ooc::kWorkerInline : pe;
  const auto deps_held =
      tr->desc.prefetch ? tr->desc.deps : std::vector<ooc::Dep>{};
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
      ++sh.stats.evicts;
      sh.stats.evict_bytes += br.bytes;
      if (dst < bottom()) ++sh.stats.cascade_demotions;
      if (tiers_[static_cast<std::size_t>(dst)].backend ==
          ooc::TierBackendKind::Remote) {
        ++sh.stats.remote_evicts;
        sh.stats.remote_evict_bytes += br.bytes;
      }
      Command c;
      c.kind = Command::Kind::Evict;
      c.block = d.block;
      c.task = t; // telemetry: the completion that triggered this
      c.agent = evict_agent;
      c.pe = pe;
      c.src_tier = tiers_[0].id;
      c.dst_tier = tiers_[static_cast<std::size_t>(dst)].id;
      cmds.push_back(c);
    }
  }
  n_live_.fetch_sub(1, std::memory_order_acq_rel);

  // Wake our own queues: shared blocks may have become resident.  The
  // budget this completion frees arrives via on_evict_complete, which
  // retries every shard.
  drain_locked(sh, cmds);
  return cmds;
}

ooc::PolicyEngine::Stats ShardedEngine::stats() const {
  ooc::PolicyEngine::Stats out;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    auto& sh = const_cast<Shard&>(shards_[s]);
    std::lock_guard lk(sh.mu);
    out.tasks_run += sh.stats.tasks_run;
    out.fetches += sh.stats.fetches;
    out.fetch_bytes += sh.stats.fetch_bytes;
    out.evicts += sh.stats.evicts;
    out.evict_bytes += sh.stats.evict_bytes;
    out.fetch_dedup_hits += sh.stats.fetch_dedup_hits;
    out.cascade_demotions += sh.stats.cascade_demotions;
    out.remote_fetches += sh.stats.remote_fetches;
    out.remote_fetch_bytes += sh.stats.remote_fetch_bytes;
    out.remote_evicts += sh.stats.remote_evicts;
    out.remote_evict_bytes += sh.stats.remote_evict_bytes;
  }
  return out;
}

ooc::PolicyEngine::Stats ShardedEngine::shard_stats(std::int32_t s) const {
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

ooc::BlockState ShardedEngine::block_state(ooc::BlockId b) const {
  std::lock_guard slk(stripe(b).mu);
  return state_of(block(b));
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
  std::vector<std::string> v;
  const auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };
  auto* self = const_cast<ShardedEngine*>(this);

  // Lock the world in the canonical order (shard mutexes, then the
  // registry, then every stripe ascending) so the cross-check sees one
  // consistent cut.  Event paths take shard -> stripes or registry ->
  // stripe, never the reverse.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size() + 1 + kStripes);
  for (auto& sh : self->shards_) locks.emplace_back(sh.mu);
  locks.emplace_back(self->registry_mu_);
  for (auto& st : self->stripes_) locks.emplace_back(st.mu);

  const std::size_t levels = tiers_.size();
  std::vector<std::uint64_t> want_used(levels, 0);
  std::size_t want_fetch = 0, want_evict = 0;

  // Task-side ground truth: queued ids per shard, and per-PE claims /
  // per-block refcounts held by admitted prefetch tasks.
  std::unordered_map<const TaskRec*, std::uint32_t> want_waits;
  std::unordered_map<ooc::BlockId, std::uint32_t> want_ref;
  std::vector<std::uint64_t> want_claims(pe_claims_.size(), 0);
  std::size_t queued = 0, records = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& sh = shards_[s];
    std::unordered_map<ooc::TaskId, std::size_t> in_q;
    for (const ooc::TaskId t : sh.wait_q) {
      ++queued;
      ++in_q[t];
      if (sh.tasks.find(t) == sh.tasks.end()) {
        fail("shard " + std::to_string(s) + ": queued task " +
             std::to_string(t) + " has no record");
      }
    }
    records += sh.tasks.size();
    for (const auto& [id, tr] : sh.tasks) {
      if (in_q.count(id)) continue; // waiting: holds nothing yet
      want_claims[static_cast<std::size_t>(tr->desc.pe)] += tr->claim_bytes;
      if (tr->missing.load(std::memory_order_relaxed) > 0) {
        want_waits.emplace(tr.get(), 0);
      }
      if (!tr->desc.prefetch) continue;
      for (const auto& d : tr->desc.deps) ++want_ref[d.block];
    }
  }

  const std::uint64_t n = n_blocks_.load(std::memory_order_acquire);
  for (std::uint64_t b = 0; b < n; ++b) {
    BlockRec* chunk =
        chunks_[static_cast<std::size_t>(b) >> kChunkShift].load(
            std::memory_order_acquire);
    if (chunk == nullptr) continue;
    const BlockRec& br =
        chunk[static_cast<std::size_t>(b) & (kChunkSize - 1)];
    if (!br.live) continue;
    const std::string tag = "block " + std::to_string(b) + ": ";
    if (br.level < 0 || br.level >= static_cast<std::int32_t>(levels) ||
        br.from_level < -1 ||
        br.from_level >= static_cast<std::int32_t>(levels) ||
        br.from_level == br.level) {
      fail(tag + "bad level pair " + std::to_string(br.level) + " <- " +
           std::to_string(br.from_level));
      continue;
    }
    want_used[static_cast<std::size_t>(br.level)] += br.bytes;
    if (br.from_level >= 0) {
      want_used[static_cast<std::size_t>(br.from_level)] += br.bytes;
      if (br.level == 0) {
        ++want_fetch;
      } else {
        ++want_evict;
      }
    }
    if (!br.waiters.empty() &&
        state_of(br) != ooc::BlockState::FetchInFlight) {
      fail(tag + "has fetch waiters but no fetch in flight");
    }
    for (const TaskRec* w : br.waiters) {
      auto it = want_waits.find(w);
      if (it == want_waits.end()) {
        fail(tag + "waiter is not an admitted task with missing deps");
      } else {
        ++it->second;
      }
    }
    const auto ref = want_ref.find(b);
    const std::uint32_t wr = ref == want_ref.end() ? 0 : ref->second;
    if (br.refcount != wr) {
      fail(tag + "refcount " + std::to_string(br.refcount) +
           " but admitted tasks reference it " + std::to_string(wr) + "x");
    }
    if (at_quiescence) {
      if (br.refcount != 0) fail(tag + "refcount held at quiescence");
      if (br.from_level >= 0) fail(tag + "still migrating at quiescence");
      if (!br.waiters.empty()) fail(tag + "waiters at quiescence");
    }
  }

  for (const auto& [tr, seen] : want_waits) {
    const std::uint32_t missing =
        tr->missing.load(std::memory_order_relaxed);
    if (missing != seen) {
      fail("task " + std::to_string(tr->desc.id) + ": missing " +
           std::to_string(missing) + " != " + std::to_string(seen) +
           " waiter entries");
    }
  }

  // Budgets: TierBudget::used() must equal the block-record sum for
  // every bounded level (exact here — all mutators are locked out).
  for (std::size_t k = 0; k + 1 < levels; ++k) {
    const std::uint64_t used = budgets_[k]->used();
    if (used != want_used[k]) {
      fail("level " + std::to_string(k) + ": budget used " +
           std::to_string(used) + " != " + std::to_string(want_used[k]) +
           " summed over block records");
    }
  }

  if (queued != n_waiting_.load(std::memory_order_acquire)) {
    fail("n_waiting " + std::to_string(n_waiting_.load()) + " != " +
         std::to_string(queued) + " queued tasks");
  }
  const std::size_t live = records - queued;
  if (live != n_live_.load(std::memory_order_acquire)) {
    fail("n_live " + std::to_string(n_live_.load()) + " != " +
         std::to_string(live) + " admitted task records");
  }
  if (want_fetch != n_inflight_fetch_.load(std::memory_order_acquire) ||
      want_evict != n_inflight_evict_.load(std::memory_order_acquire)) {
    fail("in-flight counters fetch=" +
         std::to_string(n_inflight_fetch_.load()) + "/evict=" +
         std::to_string(n_inflight_evict_.load()) +
         " != block records fetch=" + std::to_string(want_fetch) +
         "/evict=" + std::to_string(want_evict));
  }
  for (std::size_t pe = 0; pe < pe_claims_.size(); ++pe) {
    const std::uint64_t held =
        pe_claims_[pe].bytes.load(std::memory_order_relaxed);
    if (held != want_claims[pe]) {
      fail("pe " + std::to_string(pe) + ": claim ledger " +
           std::to_string(held) + " != " + std::to_string(want_claims[pe]) +
           " over admitted tasks");
    }
  }
  if (at_quiescence && !quiescent()) {
    fail("quiescent() false at claimed quiescence");
  }
  return v;
}

} // namespace hmr::rt
