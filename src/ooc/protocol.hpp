#pragma once
// The protocol steps both engines share (paper §IV-B, Algorithm 1).
//
// ooc::PolicyEngine (serial, every strategy) and rt::ShardedEngine
// (concurrent, MultiIo + eager) differ in how they hold their state —
// one record table under the caller's lock versus shards, stripe locks,
// TierBudgets and atomics — but not in what the protocol decides.
// Every decision and check they have in common lives here, once:
//   * the block-state view of a (level, from_level) pair;
//   * arrival validation and the fair-admission share gate;
//   * the Run / Fetch / Evict command builders, which also count the
//     EngineStats traffic counters, so the two engines' counters agree
//     by construction;
//   * the invariant audit: each engine fills a ProtocolSnapshot under
//     its own locks and audit_protocol rebuilds the ground truth from
//     it.  Engine-specific checks (the serial LRU lists, level-0
//     overcommit) stay with the engine.
// The builders sit on the event hot path and are header-inline.

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "ooc/policy_engine.hpp"
#include "ooc/types.hpp"
#include "util/check.hpp"

namespace hmr::ooc {

/// The four-state view of a block: resident (from_level < 0) on level
/// 0 or below, or migrating to `level` — upward to 0 is a fetch,
/// anything else a demotion.
inline BlockState state_of(std::int32_t level, std::int32_t from_level) {
  if (from_level >= 0) {
    return level == 0 ? BlockState::FetchInFlight
                      : BlockState::EvictInFlight;
  }
  return level == 0 ? BlockState::InFast : BlockState::InSlow;
}

/// Reject a malformed arrival: invalid id, PE out of range, or two
/// dependences on one block.  (Registration of the dependences is
/// checked where each engine looks its blocks up.)
inline void check_arrival(const TaskDesc& desc, std::int32_t num_pes) {
  HMR_CHECK_MSG(desc.id != kInvalidTask, "task needs a valid id");
  HMR_CHECK_MSG(desc.pe >= 0 && desc.pe < num_pes, "task pe out of range");
  for (std::size_t i = 0; i < desc.deps.size(); ++i) {
    for (std::size_t j = i + 1; j < desc.deps.size(); ++j) {
      HMR_CHECK_MSG(desc.deps[i].block != desc.deps[j].block,
                    "duplicate dependence on one block");
    }
  }
}

/// Fair-admission gate: a PE holding `held` claimed fast-tier bytes may
/// take `extra` more only within its share fast_capacity / num_pes —
/// unless it holds none, so progress is always possible.
inline bool within_fair_share(const PolicyEngine::Config& cfg,
                              std::uint64_t held, std::uint64_t extra) {
  return !cfg.fair_admission || held == 0 ||
         held + extra <= cfg.fast_capacity /
                             static_cast<std::uint64_t>(cfg.num_pes);
}

/// The IO agent that performs a completion's eager evictions: the
/// completing worker itself, the single IO thread, or the PE's own.
inline std::int32_t evict_agent(const PolicyEngine::Config& cfg,
                                std::int32_t pe) {
  if (cfg.evict_by_worker) return kWorkerInline;
  return cfg.strategy == Strategy::SingleIo ? 0 : pe;
}

/// Run: every dependence of `t` is resident; queue it on `pe`.
inline Command run_command(TaskId t, std::int32_t pe) {
  return Command{.kind = Command::Kind::Run, .task = t, .pe = pe};
}

/// Fetch: promote dependence `d` (`bytes` long) from level `src` to
/// level 0 for task `t`, and count the traffic.  `cfg.tiers` must be
/// resolved (PolicyEngine::resolve_tiers).
inline Command fetch_command(const PolicyEngine::Config& cfg, const Dep& d,
                             std::uint64_t bytes, std::int32_t src, TaskId t,
                             std::int32_t agent, std::int32_t pe,
                             EngineStats& st) {
  const TierDesc& from = cfg.tiers[static_cast<std::size_t>(src)];
  ++st.fetches;
  st.fetch_bytes += bytes;
  if (from.backend == TierBackendKind::Remote) {
    ++st.remote_fetches;
    st.remote_fetch_bytes += bytes;
  }
  return Command{
      .kind = Command::Kind::Fetch,
      .block = d.block,
      .task = t,
      .agent = agent,
      .pe = pe,
      .nocopy = cfg.writeonly_nocopy && d.mode == AccessMode::WriteOnly,
      .src_tier = from.id,
      .dst_tier = cfg.tiers.front().id};
}

/// Evict: demote block `b` (`bytes` long) from level `src` to level
/// `dst`, and count the traffic — a demotion off a middle level is a
/// watermark trim, one landing above the bottom a cascade demotion.
/// `cause` is the task whose event triggered it (telemetry only).
inline Command evict_command(const PolicyEngine::Config& cfg, BlockId b,
                             std::uint64_t bytes, std::int32_t src,
                             std::int32_t dst, TaskId cause,
                             std::int32_t agent, std::int32_t pe,
                             EngineStats& st) {
  const TierDesc& to = cfg.tiers[static_cast<std::size_t>(dst)];
  ++st.evicts;
  st.evict_bytes += bytes;
  if (src > 0) ++st.tier_trims;
  if (static_cast<std::size_t>(dst) + 1 < cfg.tiers.size()) {
    ++st.cascade_demotions;
  }
  if (to.backend == TierBackendKind::Remote) {
    ++st.remote_evicts;
    st.remote_evict_bytes += bytes;
  }
  return Command{.kind = Command::Kind::Evict,
                 .block = b,
                 .task = cause,
                 .agent = agent,
                 .pe = pe,
                 .src_tier = cfg.tiers[static_cast<std::size_t>(src)].id,
                 .dst_tier = to.id};
}

/// One consistent cut of an engine's records and counters, filled
/// while the engine holds whatever locks make it consistent.  Pointers
/// borrow the engine's records and are valid only for that hold.
struct ProtocolSnapshot {
  struct Block {
    BlockId id = mem::kInvalidBlock;
    std::uint64_t bytes = 0;
    std::int32_t level = 0;
    std::int32_t from_level = -1;
    std::uint32_t refcount = 0;
    std::uint32_t slow_claims = 0;
    std::vector<TaskId> waiters; // admitted tasks awaiting its fetch
  };
  struct Task {
    TaskId id = kInvalidTask;
    std::int32_t pe = 0;
    bool waiting = false;    // queued, not yet admitted: holds nothing
    bool holds_deps = false; // admitted with one refcount per dependence
    std::uint32_t missing = 0;
    std::uint64_t claim_bytes = 0;
    const std::vector<Dep>* deps = nullptr;
    const std::vector<BlockId>* bypassed = nullptr; // slow claims, or null
  };

  std::int32_t num_levels = 0;
  std::vector<Block> blocks; // registered blocks
  std::vector<Task> tasks;   // every task record (waiting or live)
  std::vector<const std::deque<TaskId>*> wait_queues; // one per PE

  // The engine's own bookkeeping, checked against the records.
  /// Bytes per level, for the leading levels the engine counts exactly
  /// (a migrating block counts on both ends until it lands).
  std::vector<std::uint64_t> used;
  /// In-flight bytes leaving each level; empty when not tracked.
  std::vector<std::uint64_t> outbound;
  std::vector<std::uint64_t> pe_claims; // fair-share ledger per PE
  std::size_t n_waiting = 0;
  std::size_t n_live = 0;
  std::size_t n_inflight_fetch = 0;
  std::size_t n_inflight_evict = 0;
  bool quiescent = false;
};

/// Cross-check a snapshot against the ground truth rebuilt from its
/// records: level pairs, per-level and outbound bytes, in-flight
/// counts, refcounts and slow claims vs admitted tasks' dependences,
/// waiter lists vs missing dependences, per-PE claim ledgers, waiting
/// and live counts (records = queued + live), and with
/// `at_quiescence` the idle-only rules (nothing queued, in flight,
/// referenced or claimed).  One human-readable line per violation.
std::vector<std::string> audit_protocol(const ProtocolSnapshot& s,
                                        bool at_quiescence);

} // namespace hmr::ooc
