#include "ooc/policy_engine.hpp"

#include <algorithm>

#include "ooc/protocol.hpp"
#include "util/check.hpp"

namespace hmr::ooc {

const char* access_mode_name(AccessMode m) {
  switch (m) {
    case AccessMode::ReadOnly: return "readonly";
    case AccessMode::ReadWrite: return "readwrite";
    case AccessMode::WriteOnly: return "writeonly";
  }
  return "?";
}

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Naive: return "Naive";
    case Strategy::DdrOnly: return "DDR4only";
    case Strategy::HbmOnly: return "HBMonly";
    case Strategy::SingleIo: return "SingleIO";
    case Strategy::SyncNoIo: return "NoIOthread";
    case Strategy::MultiIo: return "MultipleIO";
  }
  return "?";
}

bool strategy_moves_data(Strategy s) {
  return s == Strategy::SingleIo || s == Strategy::SyncNoIo ||
         s == Strategy::MultiIo;
}

const char* block_state_name(BlockState s) {
  switch (s) {
    case BlockState::InSlow: return "INDDR";
    case BlockState::InFast: return "INHBM";
    case BlockState::FetchInFlight: return "FETCHING";
    case BlockState::EvictInFlight: return "EVICTING";
  }
  return "?";
}

const char* tier_backend_name(TierBackendKind k) {
  switch (k) {
    case TierBackendKind::LocalArena: return "local";
    case TierBackendKind::Remote: return "remote";
  }
  return "?";
}

std::vector<TierDesc> tiers_from_model(const hw::MachineModel& m) {
  HMR_CHECK_MSG(m.tiers.size() >= 2, "placement hierarchy needs >= 2 tiers");
  std::vector<std::size_t> order(m.tiers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Local tiers first (bandwidth order); remote pools always sit below
  // every local pool — a disaggregated tier is a backing store, not a
  // middle level, even when its nominal bandwidth beats local NVM.
  std::stable_sort(order.begin(), order.end(),
                   [&m](std::size_t a, std::size_t b) {
                     if (m.tiers[a].remote != m.tiers[b].remote) {
                       return !m.tiers[a].remote;
                     }
                     return m.tiers[a].read_bw > m.tiers[b].read_bw;
                   });
  std::vector<TierDesc> out;
  out.reserve(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const hw::MemoryTier& t = m.tiers[order[i]];
    TierDesc d;
    d.id = static_cast<TierId>(order[i]);
    // The slowest tier is the unbounded backing store (the paper's
    // "data always fits DDR" assumption, transplanted to the far end
    // of whatever hierarchy the model describes).
    d.capacity = i + 1 < order.size() ? t.capacity : 0;
    if (t.remote) {
      d.backend = TierBackendKind::Remote;
      if (t.read_bw > 0) d.remote.bandwidth = t.read_bw;
      if (t.latency > 0) d.remote.latency = t.latency;
    }
    out.push_back(d);
  }
  return out;
}

void PolicyEngine::resolve_tiers(Config& cfg) {
  HMR_CHECK(cfg.num_pes > 0);
  HMR_CHECK(cfg.lru_watermark > 0 && cfg.lru_watermark <= 1.0);
  if (cfg.tiers.empty()) {
    // Classic two-level hierarchy; ids follow the hw preset convention
    // (tier 1 = fast, tier 0 = slow).
    cfg.tiers = {TierDesc{1, cfg.fast_capacity, cfg.lru_watermark},
                 TierDesc{0}};
    return;
  }
  HMR_CHECK_MSG(cfg.tiers.size() >= 2,
                "placement hierarchy needs >= 2 levels");
  for (const TierDesc& t : cfg.tiers) {
    HMR_CHECK_MSG(t.watermark > 0 && t.watermark <= 1.0,
                  "tier watermark must be in (0,1]");
  }
  // The first level *is* the fast tier: keep the legacy knobs (and
  // every fast_capacity / lru_watermark consumer) in sync with it.
  cfg.fast_capacity = cfg.tiers.front().capacity;
  cfg.lru_watermark = cfg.tiers.front().watermark;
}

PolicyEngine::PolicyEngine(Config cfg)
    : cfg_(std::move(cfg)), base_evict_by_worker_(cfg_.evict_by_worker) {
  resolve_tiers(cfg_);
  if (cfg_.strategy == Strategy::SyncNoIo) cfg_.evict_by_worker = true;
  used_.resize(cfg_.tiers.size(), 0);
  outbound_.resize(cfg_.tiers.size(), 0);
  mid_lru_.resize(cfg_.tiers.size());
  wait_q_.resize(static_cast<std::size_t>(cfg_.num_pes));
  pe_claims_.resize(static_cast<std::size_t>(cfg_.num_pes), 0);
}

BlockAdvice PolicyEngine::advice_for(BlockId b, const BlockRec& br) const {
  if (cfg_.advisor == nullptr) return BlockAdvice{};
  return cfg_.advisor->advise(b, br.bytes);
}

bool PolicyEngine::dep_bypasses(BlockId b, const BlockRec& br) const {
  if (br.from_level >= 0 || br.level == 0) return false; // not resident-slow
  if (br.slow_claims > 0) return true; // forced: a task is reading it
  // may_bypass() keeps advise() off the admission scans while bypass
  // is unarmed — the scans run per queued head per wakeup, and the
  // per-block lookup dominated the adaptive overhead there.
  return cfg_.advisor != nullptr && cfg_.advisor->may_bypass() &&
         advice_for(b, br).bypass_fetch;
}

PolicyEngine::BlockRec& PolicyEngine::block(BlockId b) {
  auto it = blocks_.find(b);
  HMR_CHECK_MSG(it != blocks_.end(), "unknown block id");
  return it->second;
}

const PolicyEngine::BlockRec& PolicyEngine::block(BlockId b) const {
  auto it = blocks_.find(b);
  HMR_CHECK_MSG(it != blocks_.end(), "unknown block id");
  return it->second;
}

PolicyEngine::TaskRec& PolicyEngine::task(TaskId t) {
  auto it = tasks_.find(t);
  HMR_CHECK_MSG(it != tasks_.end(), "unknown task id");
  return it->second;
}

TierId PolicyEngine::add_block(BlockId b, std::uint64_t bytes) {
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  HMR_CHECK_MSG(blocks_.find(b) == blocks_.end(), "duplicate block id");
  BlockRec rec;
  rec.bytes = bytes;
  std::int32_t level = bottom();
  switch (cfg_.strategy) {
    case Strategy::Naive:
      // Fast-preferred first-fit in speed order: pack each bounded
      // level until full, overflow to the next (paper §IV-B Baseline,
      // generalized from MCDRAM-then-DDR4 to the whole hierarchy).
      for (std::int32_t k = 0; k < bottom(); ++k) {
        const auto ku = static_cast<std::size_t>(k);
        if (used_[ku] + bytes <= cfg_.tiers[ku].capacity) {
          level = k;
          break;
        }
      }
      break;
    case Strategy::HbmOnly:
      HMR_CHECK_MSG(used_[0] + bytes <= cfg_.fast_capacity,
                    "HBMonly requires the working set to fit in HBM");
      level = 0;
      break;
    case Strategy::DdrOnly:
    case Strategy::SingleIo:
    case Strategy::SyncNoIo:
    case Strategy::MultiIo:
      // Movement strategies allocate everything on the bottom level
      // and fetch on demand (paper §V-B); DDR4only never moves at all.
      break;
  }
  rec.level = level;
  used_[static_cast<std::size_t>(level)] += bytes;
  blocks_.emplace(b, rec);
  return cfg_.tiers[static_cast<std::size_t>(level)].id;
}

TierId PolicyEngine::add_block(BlockId b, std::uint64_t bytes,
                               std::int32_t home_level) {
  if (home_level < 0 || !strategy_moves_data(cfg_.strategy) ||
      home_level >= bottom()) {
    return add_block(b, bytes);
  }
  HMR_CHECK_MSG(home_level > 0,
                "home_level 0 (the prefetch budget) is not a valid home");
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  HMR_CHECK_MSG(blocks_.find(b) == blocks_.end(), "duplicate block id");
  const auto lvl = static_cast<std::size_t>(home_level);
  HMR_CHECK_MSG(used_[lvl] + bytes <= cfg_.tiers[lvl].capacity,
                "home_level placement overcommits the level");
  BlockRec rec;
  rec.bytes = bytes;
  rec.level = home_level;
  used_[lvl] += bytes;
  blocks_.emplace(b, rec);
  // Parked refcount-0 resident of a middle level: joins that level's
  // LRU so watermark trims and the demotion cascade can see it.
  mid_touch(b);
  return cfg_.tiers[lvl].id;
}

void PolicyEngine::remove_block(BlockId b) {
  BlockRec& br = block(b);
  HMR_CHECK_MSG(br.refcount == 0, "removing a claimed block");
  HMR_CHECK_MSG(br.from_level < 0, "removing a block mid-migration");
  const auto lvl = static_cast<std::size_t>(br.level);
  HMR_DCHECK(used_[lvl] >= br.bytes);
  used_[lvl] -= br.bytes;
  lru_unlink(b);
  mid_unlink(b, br);
  blocks_.erase(b);
}

std::uint64_t PolicyEngine::admission_bytes(const TaskRec& tr,
                                            bool* admissible) const {
  *admissible = true;
  std::uint64_t extra = 0;
  for (const Dep& d : tr.desc.deps) {
    const BlockRec& br = block(d.block);
    if (br.from_level >= 0) {
      // In flight: inbound migrations are already accounted in
      // used_[0]; a demotion (to any lower level) must land before
      // the block can be promoted back.
      if (br.level != 0) {
        *admissible = false;
        return 0;
      }
      continue;
    }
    if (br.level == 0) continue; // already accounted in used_[0]
    // Resident on a lower level: a bypass-advised dep is served in
    // place and claims no fast-tier budget.
    if (!dep_bypasses(d.block, br)) extra += br.bytes;
  }
  return extra;
}

bool PolicyEngine::can_admit(const TaskRec& tr) const {
  bool admissible = true;
  const std::uint64_t extra = admission_bytes(tr, &admissible);
  if (!admissible) return false;
  return used_[0] + extra <= cfg_.fast_capacity;
}

bool PolicyEngine::within_fair_share(const TaskRec& tr) const {
  const std::uint64_t held = pe_claims_[static_cast<std::size_t>(tr.desc.pe)];
  // The claim scan only matters when the gate can bite.
  if (!cfg_.fair_admission || held == 0) return true;
  bool admissible = true;
  return ooc::within_fair_share(cfg_, held, admission_bytes(tr, &admissible));
}

void PolicyEngine::lru_touch(BlockId b) {
  BlockRec& br = block(b);
  if (br.in_lru) return;
  lru_.push_back(b);
  br.in_lru = true;
  lru_bytes_ += br.bytes;
}

void PolicyEngine::lru_unlink(BlockId b) {
  BlockRec& br = block(b);
  if (!br.in_lru) return;
  auto it = std::find(lru_.begin(), lru_.end(), b);
  HMR_DCHECK(it != lru_.end());
  lru_.erase(it);
  br.in_lru = false;
  HMR_DCHECK(lru_bytes_ >= br.bytes);
  lru_bytes_ -= br.bytes;
}

void PolicyEngine::mid_touch(BlockId b) {
  BlockRec& br = block(b);
  HMR_DCHECK(br.from_level < 0 && br.level > 0 && br.level < bottom());
  if (br.in_mid) return;
  mid_lru_[static_cast<std::size_t>(br.level)].push_back(b);
  br.in_mid = true;
}

void PolicyEngine::mid_unlink(BlockId b, BlockRec& br) {
  if (!br.in_mid) return;
  auto& q = mid_lru_[static_cast<std::size_t>(br.level)];
  auto it = std::find(q.begin(), q.end(), b);
  HMR_DCHECK(it != q.end());
  q.erase(it);
  br.in_mid = false;
}

void PolicyEngine::admit(TaskId t, std::int32_t fetch_agent,
                         std::vector<Command>& cmds) {
  TaskRec& tr = task(t);
  HMR_DCHECK(tr.state == TaskState::Waiting);
  tr.missing = 0;
  tr.claim_bytes = 0;
  for (const Dep& d : tr.desc.deps) {
    BlockRec& br = block(d.block);
    ++br.refcount;
    if (br.in_lru) {
      // Lazy mode: a parked warm block gets reused without a round
      // trip through DDR4 — the payoff the LRU extension measures.
      lru_unlink(d.block);
      ++stats_.lru_reclaims;
    }
    if (br.from_level >= 0) {
      HMR_CHECK_MSG(br.level == 0,
                    "admitted task depends on a demoting block");
      // Another admitted task is already pulling this block in; just
      // wait for the same fetch (no duplicate traffic).
      br.fetch_waiters.push_back(t);
      ++tr.missing;
      ++stats_.fetch_dedup_hits;
    } else if (br.level > 0) {
      if (dep_bypasses(d.block, br)) {
        // Bypass: the task will read the slow-tier copy in place.
        // No migration, no fast-tier claim, not a missing dep.
        ++br.slow_claims;
        tr.bypassed.push_back(d.block);
        ++stats_.advised_bypasses;
        continue;
      }
      // Promote to the top level from wherever the block resides.
      const std::int32_t src = br.level;
      mid_unlink(d.block, br);
      br.from_level = src;
      br.level = 0;
      used_[0] += br.bytes;
      outbound_[static_cast<std::size_t>(src)] += br.bytes;
      tr.claim_bytes += br.bytes;
      HMR_CHECK_MSG(used_[0] <= cfg_.fast_capacity,
                    "admission overcommitted the fast tier");
      ++n_inflight_fetch_;
      br.fetch_waiters.push_back(t);
      ++tr.missing;
      cmds.push_back(fetch_command(cfg_, d, br.bytes, src, t, fetch_agent,
                                   tr.desc.pe, stats_));
    }
    // else: already resident on the top level — nothing to do.
  }
  tr.state = TaskState::Admitted;
  ++n_live_tasks_;
  pe_claims_[static_cast<std::size_t>(tr.desc.pe)] += tr.claim_bytes;
  if (tr.missing == 0) mark_ready(t, cmds);
}

void PolicyEngine::mark_ready(TaskId t, std::vector<Command>& cmds) {
  TaskRec& tr = task(t);
  HMR_DCHECK(tr.state == TaskState::Admitted);
  tr.state = TaskState::Ready;
  cmds.push_back(run_command(t, tr.desc.pe));
}

std::uint64_t PolicyEngine::reclaim_lru(TaskId head, std::int32_t agent,
                                        std::int32_t pe,
                                        std::vector<Command>& cmds) {
  if (!lru_enabled()) return 0;
  bool adm = true;
  const std::uint64_t extra = admission_bytes(task(head), &adm);
  if (!adm || used_[0] + extra <= cfg_.fast_capacity) return 0;
  const std::uint64_t need = used_[0] + extra - cfg_.fast_capacity;
  evict_cause_ = head; // reclaiming on behalf of the head
  std::uint64_t freed = 0;
  // Victim priority: demote-advised blocks first, then plain LRU order
  // (coldest first), then pinned blocks as a progress guarantee — a
  // pin is a preference, not a reservation.  Without an advisor every
  // block scores the middle pass — run only that one, preserving pure
  // LRU behaviour.
  const int first_pass = cfg_.advisor != nullptr ? 0 : 1;
  const int last_pass = cfg_.advisor != nullptr ? 2 : 1;
  for (int pass = first_pass; pass <= last_pass && freed < need; ++pass) {
    const std::vector<BlockId> snapshot(lru_.begin(), lru_.end());
    for (const BlockId victim : snapshot) {
      if (freed >= need) break;
      const BlockRec& br = block(victim);
      if (!br.in_lru) continue;
      const BlockAdvice adv = advice_for(victim, br);
      const int victim_pass = adv.demote_first ? 0 : (adv.pin ? 2 : 1);
      if (victim_pass != pass) continue;
      freed += br.bytes;
      if (pass == 0) ++stats_.advised_demotions;
      evict_block(victim, agent, pe, cmds);
    }
  }
  evict_cause_ = kInvalidTask;
  return freed;
}

void PolicyEngine::flush_lru_over(std::uint64_t limit, std::int32_t agent,
                                  std::int32_t pe, bool evict_pinned,
                                  std::vector<Command>& cmds) {
  const std::vector<BlockId> snapshot(lru_.begin(), lru_.end());
  for (const BlockId victim : snapshot) {
    if (lru_bytes_ <= limit) return;
    const BlockRec& br = block(victim);
    if (!evict_pinned && advice_for(victim, br).pin) continue;
    evict_block(victim, agent, pe, cmds);
  }
}

std::int32_t PolicyEngine::demote_target(std::int32_t src,
                                         std::uint64_t bytes,
                                         std::int32_t advised) const {
  const std::int32_t bot = bottom();
  if (!cfg_.demote_cascade) return bot;
  std::int32_t start = src + 1;
  if (advised >= 0) start = std::max(start, std::min(advised, bot));
  for (std::int32_t k = start; k < bot; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    if (used_[ku] + bytes <= cfg_.tiers[ku].capacity) return k;
  }
  return bot; // unbounded: the cascade can always make progress
}

void PolicyEngine::demote_block(BlockId b, std::int32_t dst,
                                std::int32_t agent, std::int32_t pe,
                                std::vector<Command>& cmds) {
  BlockRec& br = block(b);
  const std::int32_t src = br.level;
  HMR_DCHECK(br.from_level < 0 && br.refcount == 0 && dst > src);
  lru_unlink(b);
  mid_unlink(b, br);
  br.from_level = src;
  br.level = dst;
  used_[static_cast<std::size_t>(dst)] += br.bytes;
  outbound_[static_cast<std::size_t>(src)] += br.bytes;
  ++n_inflight_evict_;
  cmds.push_back(evict_command(cfg_, b, br.bytes, src, dst, evict_cause_,
                               agent, pe, stats_));
  // A demotion into a middle level may push it over its watermark:
  // trim it right away so the onward traffic overlaps this migration.
  if (dst < bottom()) cascade_from(dst, agent, pe, cmds);
}

void PolicyEngine::cascade_from(std::int32_t k, std::int32_t agent,
                                std::int32_t pe, std::vector<Command>& cmds) {
  if (k <= 0 || k >= bottom()) return;
  const auto ku = static_cast<std::size_t>(k);
  const auto limit = static_cast<std::uint64_t>(
      cfg_.tiers[ku].watermark * static_cast<double>(cfg_.tiers[ku].capacity));
  while (used_[ku] - outbound_[ku] > limit) {
    // Coldest refcount-0 resident; bypass-claimed blocks (refcount
    // held while a task reads them in place) stay parked.
    BlockId victim = mem::kInvalidBlock;
    for (const BlockId cand : mid_lru_[ku]) {
      if (block(cand).refcount == 0) {
        victim = cand;
        break;
      }
    }
    if (victim == mem::kInvalidBlock) return;
    BlockRec& vr = block(victim);
    const std::int32_t advised =
        cfg_.advisor != nullptr ? advice_for(victim, vr).demote_level
                                : kLevelAuto;
    demote_block(victim, demote_target(k, vr.bytes, advised), agent, pe,
                 cmds);
  }
}

void PolicyEngine::evict_block(BlockId b, std::int32_t agent,
                               std::int32_t pe, std::vector<Command>& cmds) {
  BlockRec& br = block(b);
  HMR_DCHECK(br.level == 0 && br.from_level < 0 && br.refcount == 0);
  const std::int32_t advised =
      cfg_.advisor != nullptr ? advice_for(b, br).demote_level : kLevelAuto;
  demote_block(b, demote_target(0, br.bytes, advised), agent, pe, cmds);
}

void PolicyEngine::io_step_single(std::vector<Command>& cmds) {
  // The single IO thread cycles over all wait queues, serving at most
  // one task per queue per pass so every PE is served equally
  // (paper §IV-B "Multiple queues, Single IO thread").
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::int32_t i = 0; i < cfg_.num_pes; ++i) {
      const auto pe =
          static_cast<std::size_t>((rr_cursor_ + i) % cfg_.num_pes);
      auto& q = wait_q_[pe];
      if (q.empty()) continue;
      TaskRec& head = task(q.front());
      if (can_admit(head)) {
        const TaskId t = q.front();
        q.pop_front();
        --n_waiting_;
        admit(t, /*fetch_agent=*/0, cmds);
        progressed = true;
      } else if (reclaim_lru(q.front(), 0, static_cast<std::int32_t>(pe),
                             cmds) > 0) {
        progressed = true;
      }
    }
    rr_cursor_ = (rr_cursor_ + 1) % cfg_.num_pes;
  }
}

void PolicyEngine::io_step_pe(std::int32_t pe, std::vector<Command>& cmds) {
  // MultiIo: the PE's own IO thread drains its queue until HBM is full
  // (paper §IV-B "Multiple queues, Multiple IO threads").  SyncNoIo:
  // no IO thread, the worker itself fetches synchronously — Fetch
  // commands carry agent=kWorkerInline and pe = the task's home PE so
  // executors charge the stall to the right lane.
  const std::int32_t agent =
      cfg_.strategy == Strategy::SyncNoIo ? kWorkerInline : pe;
  auto& q = wait_q_[static_cast<std::size_t>(pe)];
  while (!q.empty()) {
    TaskRec& head = task(q.front());
    if (can_admit(head) && within_fair_share(head)) {
      const TaskId t = q.front();
      q.pop_front();
      --n_waiting_;
      admit(t, agent, cmds);
      continue;
    }
    reclaim_lru(q.front(), agent, pe, cmds);
    break; // FIFO: the head blocks the queue
  }
}

void PolicyEngine::wake_queues(std::int32_t pe, std::vector<Command>& cmds) {
  if (cfg_.strategy == Strategy::SingleIo) {
    io_step_single(cmds);
  } else if (pe >= 0) {
    io_step_pe(pe, cmds);
  } else {
    for (std::int32_t p = 0; p < cfg_.num_pes; ++p) {
      if (!wait_q_[static_cast<std::size_t>(p)].empty()) io_step_pe(p, cmds);
    }
  }
}

std::vector<Command> PolicyEngine::on_task_arrived(const TaskDesc& desc) {
  check_arrival(desc, cfg_.num_pes);
  HMR_CHECK_MSG(tasks_.find(desc.id) == tasks_.end(), "duplicate task id");
  for (const Dep& d : desc.deps) {
    HMR_CHECK_MSG(blocks_.find(d.block) != blocks_.end(),
                  "task depends on an unregistered block");
  }

  std::vector<Command> cmds;
  TaskRec rec;
  rec.desc = desc;
  auto [it, inserted] = tasks_.emplace(desc.id, std::move(rec));
  (void)inserted;
  TaskRec& tr = it->second;

  if (!desc.prefetch || !strategy_moves_data(cfg_.strategy)) {
    // Non-annotated entry methods, and the static-placement baselines:
    // the converse scheduler delivers the message directly.
    tr.state = TaskState::Ready;
    ++n_live_tasks_;
    cmds.push_back(run_command(desc.id, desc.pe));
    return cmds;
  }

  switch (cfg_.strategy) {
    case Strategy::SingleIo: {
      bool adm = true;
      if (admission_bytes(tr, &adm) == 0 && adm &&
          used_[0] <= cfg_.fast_capacity) {
        // Paper fast path: all dependences already INHBM -> straight
        // to the run queue without bothering the IO thread.
        admit(desc.id, /*fetch_agent=*/0, cmds);
      } else {
        wait_q_[static_cast<std::size_t>(desc.pe)].push_back(desc.id);
        ++n_waiting_;
        io_step_single(cmds); // the worker signals the IO thread
      }
      break;
    }
    case Strategy::MultiIo: {
      bool adm = true;
      if (admission_bytes(tr, &adm) == 0 && adm) {
        admit(desc.id, desc.pe, cmds);
      } else {
        // Paper: the task "simply adds itself to the corresponding
        // PE's wait queue" and wakes that PE's IO thread.
        wait_q_[static_cast<std::size_t>(desc.pe)].push_back(desc.id);
        ++n_waiting_;
        io_step_pe(desc.pe, cmds);
      }
      break;
    }
    case Strategy::SyncNoIo: {
      auto& q = wait_q_[static_cast<std::size_t>(desc.pe)];
      if (q.empty() && can_admit(tr) && within_fair_share(tr)) {
        admit(desc.id, kWorkerInline, cmds);
      } else {
        q.push_back(desc.id);
        ++n_waiting_;
        if (lru_enabled()) io_step_pe(desc.pe, cmds);
      }
      break;
    }
    default:
      HMR_CHECK_MSG(false, "unreachable strategy");
  }
  check_progress();
  return cmds;
}

std::vector<Command> PolicyEngine::on_fetch_complete(BlockId b) {
  BlockRec& br = block(b);
  HMR_CHECK_MSG(br.from_level >= 0 && br.level == 0,
                "fetch completion for a block not being fetched");
  const auto src = static_cast<std::size_t>(br.from_level);
  br.from_level = -1;
  HMR_DCHECK(used_[src] >= br.bytes && outbound_[src] >= br.bytes);
  used_[src] -= br.bytes; // the source copy is released on landing
  outbound_[src] -= br.bytes;
  --n_inflight_fetch_;
  std::vector<Command> cmds;
  for (const TaskId t : br.fetch_waiters) {
    TaskRec& tr = task(t);
    HMR_DCHECK(tr.missing > 0);
    if (--tr.missing == 0) mark_ready(t, cmds);
  }
  br.fetch_waiters.clear();
  return cmds;
}

std::vector<Command> PolicyEngine::on_evict_complete(BlockId b) {
  BlockRec& br = block(b);
  HMR_CHECK_MSG(br.from_level >= 0 && br.level > 0,
                "evict completion for a block not being evicted");
  const auto src = static_cast<std::size_t>(br.from_level);
  br.from_level = -1;
  HMR_DCHECK(used_[src] >= br.bytes && outbound_[src] >= br.bytes);
  used_[src] -= br.bytes;
  outbound_[src] -= br.bytes;
  --n_inflight_evict_;
  // A demotion caught by a middle level parks there, coldest-first:
  // the level's watermark trim picks its victims from this list.
  if (br.level < bottom()) mid_touch(b);

  // Freed capacity can unblock any PE's queue head — and a block that
  // just landed on a middle level is promotable again, so every
  // landing (bottom or middle) retries the queues.
  // (Static strategies never evict.)
  std::vector<Command> cmds;
  wake_queues(-1, cmds);
  check_progress();
  return cmds;
}

std::vector<Command> PolicyEngine::on_task_complete(TaskId t) {
  auto it = tasks_.find(t);
  HMR_CHECK_MSG(it != tasks_.end(), "unknown task id");
  // The record leaves the table now; `node` keeps it alive for the
  // post-processing below.
  auto node = tasks_.extract(it);
  TaskRec& tr = node.mapped();
  HMR_CHECK_MSG(tr.state == TaskState::Ready,
                "completion for a task that was never made runnable");
  HMR_DCHECK(n_live_tasks_ > 0);
  --n_live_tasks_;
  ++stats_.tasks_run;
  {
    auto& pc = pe_claims_[static_cast<std::size_t>(tr.desc.pe)];
    HMR_DCHECK(pc >= tr.claim_bytes);
    pc -= tr.claim_bytes;
  }

  std::vector<Command> cmds;
  if (!tr.desc.prefetch || !strategy_moves_data(cfg_.strategy)) {
    return cmds; // static strategies: no claims were taken
  }

  // Post-processing: release claims; blocks that drop to refcount 0
  // are evicted (eager, paper behaviour) or parked warm (lazy).
  evict_cause_ = t; // evictions below are triggered by this completion
  const std::int32_t agent = evict_agent(cfg_, tr.desc.pe);
  bool parked = false;
  for (const Dep& d : tr.desc.deps) {
    BlockRec& br = block(d.block);
    HMR_CHECK_MSG(br.refcount > 0, "refcount underflow");
    --br.refcount;
    if (std::find(tr.bypassed.begin(), tr.bypassed.end(), d.block) !=
        tr.bypassed.end()) {
      // Bypass claim: the block never left the slow tier.
      HMR_DCHECK(br.from_level < 0 && br.level > 0 && br.slow_claims > 0);
      --br.slow_claims;
      continue;
    }
    if (br.refcount == 0 && br.level == 0 && br.from_level < 0) {
      if (!cfg_.eager_evict) {
        lru_touch(d.block);
        parked = true;
      } else if (advice_for(d.block, br).pin) {
        // Pinned: skip the eager evict, park warm instead.
        lru_touch(d.block);
        parked = true;
        ++stats_.advised_pins;
      } else {
        evict_block(d.block, agent, tr.desc.pe, cmds);
      }
    }
  }
  if (lru_enabled() && cfg_.lru_watermark < 1.0) {
    const auto limit = static_cast<std::uint64_t>(
        cfg_.lru_watermark * static_cast<double>(cfg_.fast_capacity));
    flush_lru_over(limit, agent, tr.desc.pe,
                   /*evict_pinned=*/false, cmds);
  }
  evict_cause_ = kInvalidTask;

  // "It then wakes up the IO thread ... so that more data can be
  // prefetched" — some queued task may now be admissible (shared
  // blocks became resident, or lazy reclaim can run).  Eager with
  // nothing parked: freed budget arrives via on_evict_complete, which
  // retries every queue, so waking our own is enough.  (An advisor
  // alone must not force the broad scan — it dominated the adaptive
  // overhead.)  Lazy mode, or a pin just parked a block: this
  // completion may be the only future event (released blocks parked
  // in the LRU, claims released, no eviction pending), so every queue
  // whose head needs an LRU reclaim or claim headroom must get its
  // chance now or the node wedges.
  wake_queues(cfg_.eager_evict && !parked ? tr.desc.pe : -1, cmds);
  check_progress();
  return cmds;
}

void PolicyEngine::set_advisor(const AdviceProvider* advisor) {
  cfg_.advisor = advisor;
}

void PolicyEngine::set_strategy(Strategy s) {
  if (s == cfg_.strategy) return;
  HMR_CHECK_MSG(strategy_moves_data(cfg_.strategy) && strategy_moves_data(s),
                "online strategy switch is only defined between the "
                "movement strategies");
  HMR_CHECK_MSG(quiescent(), "strategy switch requires a quiescent engine");
  cfg_.strategy = s;
  cfg_.evict_by_worker =
      s == Strategy::SyncNoIo ? true : base_evict_by_worker_;
}

std::vector<Command> PolicyEngine::set_eager_evict(bool eager) {
  std::vector<Command> cmds;
  if (eager == cfg_.eager_evict) return cmds;
  cfg_.eager_evict = eager;
  if (eager) {
    // Flush the parked LRU back to the slow tier; pin-advised blocks
    // stay (with an advisor they park there even under eager mode).
    const std::int32_t agent =
        cfg_.strategy == Strategy::SyncNoIo ? kWorkerInline : 0;
    flush_lru_over(0, agent, /*pe=*/0, /*evict_pinned=*/false, cmds);
  }
  return cmds;
}

void PolicyEngine::set_fair_admission(bool fair) {
  cfg_.fair_admission = fair;
}

std::vector<Command> PolicyEngine::set_lru_watermark(double frac) {
  HMR_CHECK_MSG(frac > 0 && frac <= 1.0, "lru watermark must be in (0,1]");
  cfg_.lru_watermark = frac;
  cfg_.tiers.front().watermark = frac;
  std::vector<Command> cmds;
  if (!lru_enabled() || frac >= 1.0) return cmds;
  const auto limit = static_cast<std::uint64_t>(
      frac * static_cast<double>(cfg_.fast_capacity));
  const std::int32_t agent =
      cfg_.strategy == Strategy::SyncNoIo ? kWorkerInline : 0;
  flush_lru_over(limit, agent, /*pe=*/0, /*evict_pinned=*/false, cmds);
  return cmds;
}

std::size_t PolicyEngine::total_waiting() const { return n_waiting_; }

BlockState PolicyEngine::block_state(BlockId b) const {
  const BlockRec& br = block(b);
  return state_of(br.level, br.from_level);
}

std::uint32_t PolicyEngine::refcount(BlockId b) const {
  return block(b).refcount;
}

bool PolicyEngine::quiescent() const {
  return n_waiting_ == 0 && n_live_tasks_ == 0 && n_inflight_fetch_ == 0 &&
         n_inflight_evict_ == 0;
}

void PolicyEngine::debug_dump(std::FILE* out) const {
  std::size_t resident0 = 0;
  std::uint64_t resident0_bytes = 0;
  std::size_t by_state[4] = {0, 0, 0, 0};
  for (const auto& [id, br] : blocks_) {
    const BlockState st = state_of(br.level, br.from_level);
    ++by_state[static_cast<int>(st)];
    if (st == BlockState::InFast && br.refcount == 0) {
      ++resident0;
      resident0_bytes += br.bytes;
    }
  }
  std::fprintf(out,
               "engine: slow=%zu fast=%zu fetching=%zu evicting=%zu "
               "fast&ref0=%zu (%llu bytes) lru=%zu\n",
               by_state[0], by_state[1], by_state[2], by_state[3], resident0,
               static_cast<unsigned long long>(resident0_bytes),
               lru_.size());
  for (std::size_t pe = 0; pe < wait_q_.size(); ++pe) {
    if (wait_q_[pe].empty()) continue;
    const auto it = tasks_.find(wait_q_[pe].front());
    bool adm = true;
    const std::uint64_t extra = admission_bytes(it->second, &adm);
    std::fprintf(out,
                 "  pe %zu: %zu waiting; head extra=%llu admissible=%d "
                 "can_admit=%d fair=%d claims=%llu\n",
                 pe, wait_q_[pe].size(),
                 static_cast<unsigned long long>(extra), adm,
                 can_admit(it->second), within_fair_share(it->second),
                 static_cast<unsigned long long>(pe_claims_[pe]));
    if (pe > 4) break;
  }
}

void PolicyEngine::check_progress() const {
  if (n_waiting_ == 0 || n_live_tasks_ > 0 || n_inflight_fetch_ > 0 ||
      n_inflight_evict_ > 0) {
    return;
  }
  // Nothing is running or in flight yet tasks wait.  If no queue head
  // is admissible and nothing is reclaimable, no future event can make
  // progress: the reduced working set does not fit in the fast tier.
  for (const auto& q : wait_q_) {
    if (q.empty()) continue;
    auto it = tasks_.find(q.front());
    HMR_DCHECK(it != tasks_.end());
    if (can_admit(it->second)) return; // will be admitted on next drain
  }
  if (lru_enabled() && !lru_.empty()) return;
  HMR_CHECK_MSG(false,
                "scheduling wedge: a waiting task's dependences exceed the "
                "fast-tier capacity (reduced working set must fit in HBM)");
}

std::vector<std::string> PolicyEngine::audit_invariants(
    bool at_quiescence) const {
  ProtocolSnapshot s;
  s.num_levels = num_levels();
  s.used = used_;
  s.outbound = outbound_;
  s.pe_claims = pe_claims_;
  s.n_waiting = n_waiting_;
  s.n_live = n_live_tasks_;
  s.n_inflight_fetch = n_inflight_fetch_;
  s.n_inflight_evict = n_inflight_evict_;
  s.quiescent = quiescent();
  for (const auto& q : wait_q_) s.wait_queues.push_back(&q);
  s.blocks.reserve(blocks_.size());
  for (const auto& [id, br] : blocks_) {
    s.blocks.push_back({id, br.bytes, br.level, br.from_level, br.refcount,
                        br.slow_claims, br.fetch_waiters});
  }
  // Only admitted prefetch tasks under a movement strategy claimed
  // their deps; non-annotated tasks and the static baselines run
  // without touching refcounts.
  const bool moves = strategy_moves_data(cfg_.strategy);
  s.tasks.reserve(tasks_.size());
  for (const auto& [id, tr] : tasks_) {
    s.tasks.push_back({id, tr.desc.pe, tr.state == TaskState::Waiting,
                       tr.desc.prefetch && moves, tr.missing, tr.claim_bytes,
                       &tr.desc.deps, &tr.bypassed});
  }
  std::vector<std::string> v = audit_protocol(s, at_quiescence);
  const auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };

  // This engine's own structures: the level-0 parking LRU, the
  // middle-level cold lists, and level 0's hard capacity.
  std::uint64_t want_lru_bytes = 0;
  std::size_t want_lru_count = 0, want_mid_count = 0;
  for (const auto& [id, br] : blocks_) {
    const std::string tag = "block " + std::to_string(id) + ": ";
    if (br.in_lru) {
      if (br.level != 0 || br.from_level >= 0) {
        fail(tag + "parked in the level-0 LRU but not resident there");
      }
      want_lru_bytes += br.bytes;
      ++want_lru_count;
    }
    if (br.in_mid) {
      if (br.level <= 0 || br.level >= bottom() || br.from_level >= 0) {
        fail(tag + "on a mid-level cold list but not a middle resident");
      }
      ++want_mid_count;
    }
  }
  if (used_[0] > cfg_.fast_capacity) {
    fail("level 0 overcommitted: " + std::to_string(used_[0]) + " > " +
         std::to_string(cfg_.fast_capacity));
  }
  if (lru_bytes_ != want_lru_bytes || lru_.size() != want_lru_count) {
    fail("LRU ledger: " + std::to_string(lru_.size()) + " entries / " +
         std::to_string(lru_bytes_) + " bytes, block flags say " +
         std::to_string(want_lru_count) + " / " +
         std::to_string(want_lru_bytes));
  }
  std::size_t mid_entries = 0;
  for (const auto& q : mid_lru_) mid_entries += q.size();
  if (mid_entries != want_mid_count) {
    fail("mid-level cold lists hold " + std::to_string(mid_entries) +
         " entries, block flags say " + std::to_string(want_mid_count));
  }
  return v;
}

} // namespace hmr::ooc
