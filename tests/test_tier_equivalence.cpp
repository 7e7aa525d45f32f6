// Property tests for the two-tier equivalence contract (docs/TIERS.md):
// on any two-level hierarchy the N-tier PolicyEngine must replay the
// seed two-tier engine's command stream EXACTLY — same commands, same
// order, same fields — for every strategy, eviction mode and admission
// mode, under randomized workloads and randomized completion
// interleavings.  The reference is the real pre-N-tier engine, compiled
// verbatim from git history under `refimpl::` (tests/refimpl/).
//
// The sharded engine has no such stream-level contract (its per-shard
// queues reorder commands), so it is held to the seed engine's traffic
// stats on sequential drives instead, mirroring the PR-2 parity test.

#include <cstdint>
#include <cstring>
#include <deque>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "instant_executor.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "refimpl/reference_engine.hpp"
#include "rt/sharded_engine.hpp"

namespace {

using namespace hmr;
namespace ref = refimpl::hmr::ooc;

// ---------------------------------------------------------- workloads

struct DepSpec {
  std::uint64_t block = 0;
  int mode = 0; // index into AccessMode, shared by both engines
};

struct TaskSpec {
  std::uint64_t id = 0;
  std::int32_t pe = 0;
  std::vector<DepSpec> deps;
  bool prefetch = true;
};

struct Scenario {
  std::int32_t num_pes = 4;
  std::vector<std::uint64_t> block_bytes;
  std::vector<TaskSpec> tasks;

  std::uint64_t total_bytes() const {
    std::uint64_t n = 0;
    for (auto b : block_bytes) n += b;
    return n;
  }
};

/// Random blocks and tasks; every task footprint stays well under the
/// capacities the tests use, so all-or-nothing admission always has a
/// way forward (the seed engine aborts the process on a wedge, which
/// is itself part of the property being checked).
Scenario make_scenario(std::uint32_t seed, std::int32_t num_pes,
                       int num_blocks, int num_tasks) {
  std::mt19937 rng(seed);
  Scenario sc;
  sc.num_pes = num_pes;
  for (int b = 0; b < num_blocks; ++b) {
    sc.block_bytes.push_back(64 * (1 + rng() % 32));
  }
  for (int t = 0; t < num_tasks; ++t) {
    TaskSpec ts;
    ts.id = 1 + static_cast<std::uint64_t>(t);
    ts.pe = static_cast<std::int32_t>(rng() % num_pes);
    ts.prefetch = rng() % 8 != 0; // some plain entry methods too
    const int ndeps = 1 + static_cast<int>(rng() % 3);
    for (int d = 0; d < ndeps; ++d) {
      const std::uint64_t b = rng() % num_blocks;
      bool dup = false;
      for (const auto& e : ts.deps) dup = dup || e.block == b;
      if (dup) continue; // engines reject duplicate deps
      ts.deps.push_back({b, static_cast<int>(rng() % 3)});
    }
    sc.tasks.push_back(std::move(ts));
  }
  return sc;
}

ooc::TaskDesc to_ntier(const TaskSpec& ts) {
  ooc::TaskDesc d;
  d.id = ts.id;
  d.pe = ts.pe;
  d.prefetch = ts.prefetch;
  for (const auto& e : ts.deps)
    d.deps.push_back({e.block, static_cast<ooc::AccessMode>(e.mode)});
  return d;
}

ref::TaskDesc to_seed(const TaskSpec& ts) {
  ref::TaskDesc d;
  d.id = ts.id;
  d.pe = ts.pe;
  d.prefetch = ts.prefetch;
  for (const auto& e : ts.deps)
    d.deps.push_back({e.block, static_cast<ref::AccessMode>(e.mode)});
  return d;
}

/// Seed-engine config mirroring an N-tier config (which must describe
/// a two-level hierarchy).
ref::PolicyEngine::Config mirror_config(const ooc::PolicyEngine::Config& n) {
  ref::PolicyEngine::Config r;
  r.strategy = static_cast<ref::Strategy>(n.strategy);
  r.num_pes = n.num_pes;
  r.fast_capacity =
      n.tiers.empty() ? n.fast_capacity : n.tiers.front().capacity;
  r.eager_evict = n.eager_evict;
  r.evict_by_worker = n.evict_by_worker;
  r.writeonly_nocopy = n.writeonly_nocopy;
  r.fair_admission = n.fair_admission;
  r.lru_watermark =
      n.tiers.empty() ? n.lru_watermark : n.tiers.front().watermark;
  return r;
}

// ------------------------------------------------- lockstep replayer

/// Drive both engines through the same randomized event interleaving
/// and require identical command streams at every step.  `fast_id` /
/// `slow_id` are the tier ids the N-tier engine must stamp on the
/// migration commands (the seed engine predates tier labels).
/// All-defaults advice for the seed engine, so that installing a
/// (two-level-inert) advisor on the N-tier side arms the same parking
/// LRU machinery on both.
struct NullRefAdvisor final : ref::AdviceProvider {
  ref::BlockAdvice advise(ref::BlockId, std::uint64_t) const override {
    return {};
  }
  bool may_bypass() const override { return false; }
};

void run_lockstep(const Scenario& sc, const ooc::PolicyEngine::Config& ncfg,
                  std::uint32_t drive_seed, ooc::TierId fast_id,
                  ooc::TierId slow_id) {
  static const NullRefAdvisor null_ref_advisor;
  ooc::PolicyEngine nt(ncfg);
  ref::PolicyEngine::Config rcfg = mirror_config(ncfg);
  if (ncfg.advisor != nullptr) rcfg.advisor = &null_ref_advisor;
  ref::PolicyEngine se(rcfg);
  std::mt19937 rng(drive_seed);
  std::deque<ooc::Command> pending;

  for (std::uint64_t b = 0; b < sc.block_bytes.size(); ++b) {
    const ooc::TierId tier = nt.add_block(b, sc.block_bytes[b]);
    const ref::Placement p = se.add_block(b, sc.block_bytes[b]);
    ASSERT_EQ(tier == fast_id, p == ref::Placement::Fast)
        << "block " << b << " placed differently";
    ASSERT_TRUE(tier == fast_id || tier == slow_id);
  }

  auto absorb = [&](const std::vector<ooc::Command>& nc,
                    const std::vector<ref::Command>& rc) {
    ASSERT_EQ(nc.size(), rc.size()) << "command streams diverged";
    for (std::size_t i = 0; i < nc.size(); ++i) {
      ASSERT_EQ(static_cast<int>(nc[i].kind), static_cast<int>(rc[i].kind));
      ASSERT_EQ(nc[i].block, rc[i].block);
      if (nc[i].kind != ooc::Command::Kind::Evict) {
        // Evict commands now carry the triggering task as a telemetry
        // annotation (flow stitching in the Perfetto export); the seed
        // refimpl predates that and leaves kInvalidTask there.  The
        // field is policy-inert on evictions, so it is exempt from the
        // bit-identical comparison.
        ASSERT_EQ(nc[i].task, rc[i].task);
      }
      ASSERT_EQ(nc[i].agent, rc[i].agent);
      ASSERT_EQ(nc[i].pe, rc[i].pe);
      ASSERT_EQ(nc[i].nocopy, rc[i].nocopy);
      if (nc[i].kind == ooc::Command::Kind::Fetch) {
        ASSERT_EQ(nc[i].src_tier, slow_id);
        ASSERT_EQ(nc[i].dst_tier, fast_id);
      } else if (nc[i].kind == ooc::Command::Kind::Evict) {
        ASSERT_EQ(nc[i].src_tier, fast_id);
        ASSERT_EQ(nc[i].dst_tier, slow_id);
      }
      pending.push_back(nc[i]);
    }
  };

  std::size_t next_task = 0;
  while (next_task < sc.tasks.size() || !pending.empty()) {
    const bool inject = next_task < sc.tasks.size() &&
                        (pending.empty() || rng() % 3 == 0);
    if (inject) {
      const TaskSpec& ts = sc.tasks[next_task++];
      absorb(nt.on_task_arrived(to_ntier(ts)),
             se.on_task_arrived(to_seed(ts)));
    } else {
      const std::size_t j = rng() % pending.size();
      const ooc::Command c = pending[j];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(j));
      switch (c.kind) {
        case ooc::Command::Kind::Fetch:
          absorb(nt.on_fetch_complete(c.block),
                 se.on_fetch_complete(c.block));
          break;
        case ooc::Command::Kind::Evict:
          absorb(nt.on_evict_complete(c.block),
                 se.on_evict_complete(c.block));
          break;
        case ooc::Command::Kind::Run:
          absorb(nt.on_task_complete(c.task), se.on_task_complete(c.task));
          break;
      }
    }
    if (::testing::Test::HasFatalFailure()) return;
  }

  EXPECT_TRUE(nt.quiescent());
  EXPECT_TRUE(se.quiescent());
  const auto& a = nt.stats();
  const auto& b = se.stats();
  EXPECT_EQ(a.tasks_run, b.tasks_run);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.fetch_bytes, b.fetch_bytes);
  EXPECT_EQ(a.evicts, b.evicts);
  EXPECT_EQ(a.evict_bytes, b.evict_bytes);
  EXPECT_EQ(a.fetch_dedup_hits, b.fetch_dedup_hits);
  EXPECT_EQ(a.lru_reclaims, b.lru_reclaims);
  EXPECT_EQ(a.cascade_demotions, 0u); // impossible on two levels
  EXPECT_EQ(a.tier_trims, 0u);
  EXPECT_EQ(nt.fast_used(), se.fast_used());
  EXPECT_EQ(nt.lru_bytes(), se.lru_bytes());
  for (std::uint64_t blk = 0; blk < sc.block_bytes.size(); ++blk) {
    EXPECT_EQ(static_cast<int>(nt.block_state(blk)),
              static_cast<int>(se.block_state(blk)))
        << "block " << blk;
  }
}

const ooc::Strategy kAllStrategies[] = {
    ooc::Strategy::Naive,    ooc::Strategy::DdrOnly,
    ooc::Strategy::HbmOnly,  ooc::Strategy::SingleIo,
    ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo,
};

// ------------------------------------------------------------- tests

TEST(TierEquivalence, AllStrategiesLegacyConfigEager) {
  for (const auto s : kAllStrategies) {
    for (std::uint32_t seed : {1u, 2u, 3u}) {
      const auto sc = make_scenario(seed, 4, 24, 120);
      ooc::PolicyEngine::Config cfg;
      cfg.strategy = s;
      cfg.num_pes = sc.num_pes;
      // HbmOnly needs everything to fit; the others get pressure.
      cfg.fast_capacity = s == ooc::Strategy::HbmOnly
                              ? sc.total_bytes()
                              : sc.total_bytes() / 3 + 64 * 32;
      run_lockstep(sc, cfg, /*drive_seed=*/seed * 77, 1, 0);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "diverged: strategy "
                      << ooc::strategy_name(s) << " seed " << seed;
        return;
      }
    }
  }
}

TEST(TierEquivalence, MovementStrategiesLazyLru) {
  for (const auto s : {ooc::Strategy::SingleIo, ooc::Strategy::SyncNoIo,
                       ooc::Strategy::MultiIo}) {
    const auto sc = make_scenario(11, 4, 24, 120);
    ooc::PolicyEngine::Config cfg;
    cfg.strategy = s;
    cfg.num_pes = sc.num_pes;
    cfg.fast_capacity = sc.total_bytes() / 3 + 64 * 32;
    cfg.eager_evict = false;
    cfg.lru_watermark = 0.6;
    run_lockstep(sc, cfg, /*drive_seed=*/99, 1, 0);
    if (::testing::Test::HasFatalFailure()) {
      ADD_FAILURE() << "diverged: lazy " << ooc::strategy_name(s);
      return;
    }
  }
}

TEST(TierEquivalence, UnfairAdmissionAndWorkerEvict) {
  const auto sc = make_scenario(21, 3, 18, 90);
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = sc.num_pes;
  cfg.fast_capacity = sc.total_bytes() / 3 + 64 * 32;
  cfg.fair_admission = false;
  cfg.evict_by_worker = true;
  run_lockstep(sc, cfg, /*drive_seed=*/5, 1, 0);
}

TEST(TierEquivalence, WriteonlyNocopy) {
  const auto sc = make_scenario(31, 4, 24, 120);
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::SingleIo;
  cfg.num_pes = sc.num_pes;
  cfg.fast_capacity = sc.total_bytes() / 3 + 64 * 32;
  cfg.writeonly_nocopy = true;
  run_lockstep(sc, cfg, /*drive_seed=*/6, 1, 0);
}

/// An explicit two-level hierarchy (with non-legacy tier ids) is the
/// same engine as the derived one: the stream must still match the
/// seed, with the custom ids stamped on the migration commands.
TEST(TierEquivalence, ExplicitTwoLevelHierarchyCustomIds) {
  const auto sc = make_scenario(41, 4, 24, 120);
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = sc.num_pes;
  cfg.tiers = {{/*id=*/9, sc.total_bytes() / 3 + 64 * 32, 1.0},
               {/*id=*/4, 0, 1.0}};
  run_lockstep(sc, cfg, /*drive_seed=*/7, 9, 4);
}

/// BlockAdvice::demote_level must be ignored on two-level hierarchies:
/// an advisor that only sets it (no pin/bypass/demote_first) must not
/// perturb the stream.
TEST(TierEquivalence, DemoteLevelAdviceIsInertOnTwoLevels) {
  struct FarAdvisor final : ooc::AdviceProvider {
    ooc::BlockAdvice advise(ooc::BlockId, std::uint64_t) const override {
      ooc::BlockAdvice a;
      a.demote_level = ooc::kLevelFar;
      return a;
    }
    bool may_bypass() const override { return false; }
  } advisor;

  const auto sc = make_scenario(51, 4, 24, 120);
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = sc.num_pes;
  cfg.fast_capacity = sc.total_bytes() / 3 + 64 * 32;
  cfg.advisor = &advisor;
  // Note: installing an advisor enables the parking LRU (pinned blocks
  // may park), which the seed engine does too — same code path, so the
  // streams still match command for command.
  run_lockstep(sc, cfg, /*drive_seed=*/8, 1, 0);
}

// ------------------------------------------- sharded engine vs seed

/// Depth-first sequential drive: every engine executes its own
/// commands immediately.  The sharded engine may order commands
/// differently, so the contract is the seed engine's traffic stats.
TEST(TierEquivalence, ShardedMatchesSeedStatsSequential) {
  const auto sc = make_scenario(61, 4, 24, 160);
  const std::uint64_t cap = sc.total_bytes() / 3 + 64 * 32;

  ref::PolicyEngine::Config rc;
  rc.strategy = ref::Strategy::MultiIo;
  rc.num_pes = sc.num_pes;
  rc.fast_capacity = cap;
  ref::PolicyEngine se(rc);

  rt::ShardedEngine::Config hc;
  hc.num_pes = sc.num_pes;
  hc.fast_capacity = cap;
  rt::ShardedEngine sh(hc);

  for (std::uint64_t b = 0; b < sc.block_bytes.size(); ++b) {
    se.add_block(b, sc.block_bytes[b]);
    sh.add_block(b, sc.block_bytes[b]);
  }

  auto pump_seed = [&](std::vector<ref::Command> cmds) {
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      std::vector<ref::Command> more;
      switch (cmds[i].kind) {
        case ref::Command::Kind::Fetch:
          more = se.on_fetch_complete(cmds[i].block);
          break;
        case ref::Command::Kind::Evict:
          more = se.on_evict_complete(cmds[i].block);
          break;
        case ref::Command::Kind::Run:
          more = se.on_task_complete(cmds[i].task);
          break;
      }
      cmds.insert(cmds.end(), more.begin(), more.end());
    }
  };
  hmr::testing::InstantExecutor xh(sh);
  for (const auto& ts : sc.tasks) {
    pump_seed(se.on_task_arrived(to_seed(ts)));
    xh.arrive(to_ntier(ts));
  }

  EXPECT_TRUE(se.quiescent());
  EXPECT_TRUE(sh.quiescent());
  const auto a = sh.stats();
  const auto& b = se.stats();
  EXPECT_EQ(a.tasks_run, b.tasks_run);
  EXPECT_EQ(a.fetches, b.fetches);
  EXPECT_EQ(a.fetch_bytes, b.fetch_bytes);
  EXPECT_EQ(a.evicts, b.evicts);
  EXPECT_EQ(a.evict_bytes, b.evict_bytes);
  EXPECT_EQ(sh.fast_used(), se.fast_used());
  EXPECT_EQ(sh.fast_used(), 0u);
}

// ------------------------------- zero-copy admission vs seed engine

/// Physical equivalence of zero-copy admission (docs/PERF.md §4): one
/// seed engine drives the SAME sequential command stream into two
/// MemoryManagers, one copying every migration and one admitting
/// shadow swaps.  Zero-copy is below the policy layer, so both
/// managers must report migration stats that lock exactly to the
/// engine's fetch/evict totals (logical moves), and every block must
/// end byte-identical across the two managers.  Writes are mirrored
/// through mark_dirty exactly as the threaded runtime does after each
/// Run command.
TEST(TierEquivalence, ZeroCopyManagerLocksToSeedEngineStats) {
  const auto sc = make_scenario(71, 4, 24, 160);
  const std::uint64_t cap = sc.total_bytes() / 3 + 64 * 32;

  ref::PolicyEngine::Config rc;
  rc.strategy = ref::Strategy::MultiIo;
  rc.num_pes = sc.num_pes;
  rc.fast_capacity = cap;
  ref::PolicyEngine se(rc);

  // Tier 0 = slow home, tier 1 = fast.  Slow holds everything plus
  // retained shadows; fast gets the engine's capacity plus headroom
  // for shadows (reclaimed on demand when a fetch needs the room).
  mem::MemoryManager mm_off(
      {{"slow", sc.total_bytes() * 2 + (64u << 10)},
       {"fast", cap + (64u << 10)}});
  mem::MemoryManager mm_on(
      {{"slow", sc.total_bytes() * 2 + (64u << 10)},
       {"fast", cap + (64u << 10)}});
  mm_on.set_zero_copy(true);

  std::vector<mem::BlockId> ids_off, ids_on;
  for (std::uint64_t b = 0; b < sc.block_bytes.size(); ++b) {
    se.add_block(b, sc.block_bytes[b]);
    ids_off.push_back(mm_off.register_block(sc.block_bytes[b], 0));
    ids_on.push_back(mm_on.register_block(sc.block_bytes[b], 0));
    ASSERT_NE(ids_off.back(), mem::kInvalidBlock);
    ASSERT_NE(ids_on.back(), mem::kInvalidBlock);
    // Same deterministic contents in both managers.
    for (auto* mm : {&mm_off, &mm_on}) {
      auto* p = static_cast<unsigned char*>(
          mm->block_ptr(mm == &mm_off ? ids_off[b] : ids_on[b]));
      for (std::uint64_t i = 0; i < sc.block_bytes[b]; ++i) {
        p[i] = static_cast<unsigned char>(b * 97 + i);
      }
    }
  }

  // Task id -> blocks it writes (mirrors Runtime::run_ready_batch's
  // mark_dirty sweep after the body runs).
  std::vector<std::vector<std::uint64_t>> writes(sc.tasks.size() + 2);
  for (const auto& ts : sc.tasks) {
    for (const auto& d : ts.deps) {
      if (static_cast<ooc::AccessMode>(d.mode) !=
          ooc::AccessMode::ReadOnly) {
        writes[ts.id].push_back(d.block);
      }
    }
  }

  auto apply = [&](const ref::Command& c) {
    switch (c.kind) {
      case ref::Command::Kind::Fetch: {
        const auto off = mm_off.migrate(ids_off[c.block], 1);
        const auto on = mm_on.migrate(ids_on[c.block], 1);
        ASSERT_TRUE(off.ok && on.ok);
        break;
      }
      case ref::Command::Kind::Evict: {
        const auto off =
            mm_off.migrate(ids_off[c.block], 0, !c.nocopy);
        const auto on = mm_on.migrate(ids_on[c.block], 0, !c.nocopy);
        ASSERT_TRUE(off.ok && on.ok);
        break;
      }
      case ref::Command::Kind::Run:
        // The "body" wrote its write-mode deps: simulate the write so
        // stale shadows would be observable, then invalidate.
        for (const std::uint64_t b : writes[c.task]) {
          for (auto* mm : {&mm_off, &mm_on}) {
            const mem::BlockId id =
                mm == &mm_off ? ids_off[b] : ids_on[b];
            auto* p = static_cast<unsigned char*>(mm->block_ptr(id));
            p[0] = static_cast<unsigned char>(c.task);
            mm->mark_dirty(id);
          }
        }
        break;
    }
  };
  auto pump = [&](std::vector<ref::Command> cmds) {
    for (std::size_t i = 0; i < cmds.size(); ++i) {
      apply(cmds[i]);
      std::vector<ref::Command> more;
      switch (cmds[i].kind) {
        case ref::Command::Kind::Fetch:
          more = se.on_fetch_complete(cmds[i].block);
          break;
        case ref::Command::Kind::Evict:
          more = se.on_evict_complete(cmds[i].block);
          break;
        case ref::Command::Kind::Run:
          more = se.on_task_complete(cmds[i].task);
          break;
      }
      cmds.insert(cmds.end(), more.begin(), more.end());
    }
  };
  for (const auto& ts : sc.tasks) pump(se.on_task_arrived(to_seed(ts)));
  EXPECT_TRUE(se.quiescent());

  // Both managers' logical migration stats lock to the engine's.
  const auto& st = se.stats();
  for (auto* mm : {&mm_off, &mm_on}) {
    const auto up = mm->migration_stats(0, 1);
    const auto down = mm->migration_stats(1, 0);
    EXPECT_EQ(up.count, st.fetches);
    EXPECT_EQ(up.bytes, st.fetch_bytes);
    EXPECT_EQ(down.count, st.evicts);
    EXPECT_EQ(down.bytes, st.evict_bytes);
  }

  // The workload re-fetches evicted blocks, so swaps must have been
  // admitted — and only on the manager that has them enabled.
  EXPECT_GT(mm_on.zero_copy_admissions(), 0u);
  EXPECT_EQ(mm_off.zero_copy_admissions(), 0u);

  // Byte-identical contents, block by block.
  for (std::uint64_t b = 0; b < sc.block_bytes.size(); ++b) {
    const auto* p_off =
        static_cast<const unsigned char*>(mm_off.block_ptr(ids_off[b]));
    const auto* p_on =
        static_cast<const unsigned char*>(mm_on.block_ptr(ids_on[b]));
    ASSERT_EQ(std::memcmp(p_off, p_on, sc.block_bytes[b]), 0)
        << "block " << b;
  }
}

} // namespace
