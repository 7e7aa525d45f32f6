// Concurrency tests for the de-serialized runtime hot path: the
// work-stealing TierBudget, the ShardedEngine's semantic parity with
// the serial PolicyEngine, batched message delivery, and a
// multithreaded stress of the sharded MultiIo configuration.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "instant_executor.hpp"
#include "ooc/policy_engine.hpp"
#include "ooc/tier_budget.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "rt/sharded_engine.hpp"

namespace hmr {
namespace {

// ---------------------------------------------------------------- budget

TEST(TierBudget, LocalClaimAndRelease) {
  ooc::TierBudget b(/*capacity=*/1000, /*num_shards=*/4);
  EXPECT_EQ(b.capacity(), 1000u);
  EXPECT_EQ(b.used(), 0u);
  EXPECT_TRUE(b.try_claim(0, 100));
  EXPECT_EQ(b.used(), 100u);
  b.release(0, 100);
  EXPECT_EQ(b.used(), 0u);
}

TEST(TierBudget, StealsAcrossShardsExactly) {
  // 4 shards x 250.  A 900-byte claim must gather from every shard.
  ooc::TierBudget b(1000, 4);
  EXPECT_TRUE(b.try_claim(1, 900));
  EXPECT_EQ(b.used(), 900u);
  EXPECT_GE(b.steals(), 1u);
  // Exactly 100 left node-wide: 101 fails, 100 succeeds.
  EXPECT_FALSE(b.try_claim(2, 101));
  EXPECT_EQ(b.used(), 900u); // failed claim restored every byte
  EXPECT_TRUE(b.try_claim(2, 100));
  EXPECT_EQ(b.used(), 1000u);
  b.release(1, 900);
  b.release(2, 100);
  EXPECT_EQ(b.used(), 0u);
}

TEST(TierBudget, UnevenCapacitySplitStillSumsToCapacity) {
  ooc::TierBudget b(1003, 4); // remainder lands on shard 0
  std::uint64_t total = 0;
  for (std::int32_t s = 0; s < b.num_shards(); ++s) {
    total += b.available(s);
  }
  EXPECT_EQ(total, 1003u);
  EXPECT_TRUE(b.try_claim(3, 1003));
  EXPECT_FALSE(b.try_claim(0, 1));
}

TEST(TierBudget, ConcurrentClaimReleaseConservesBytes) {
  ooc::TierBudget b(1 << 20, 8);
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < 8; ++t) {
    ts.emplace_back([&b, &go, t] {
      while (!go.load()) std::this_thread::yield();
      const std::int32_t home = t % b.num_shards();
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t n = 64 + static_cast<std::uint64_t>(
                                         (i * 37 + t * 101) % 4096);
        if (b.try_claim(home, n)) b.release(home, n);
      }
    });
  }
  go.store(true);
  for (auto& t : ts) t.join();
  EXPECT_EQ(b.used(), 0u); // every claimed byte came back
}

// ------------------------------------------------- sharded engine parity

/// Register 12 blocks of `block` bytes on both engines and drive them
/// through the same MultiIo event sequence, each engine executing its
/// own commands immediately.
void drive_mirrored(ooc::Engine& a, ooc::Engine& b, int pes,
                    std::uint64_t block) {
  for (ooc::BlockId id = 0; id < 12; ++id) {
    a.add_block(id, block);
    b.add_block(id, block);
  }
  testing::InstantExecutor xa(a);
  testing::InstantExecutor xb(b);
  ooc::TaskId next = 1;
  for (int round = 0; round < 6; ++round) {
    for (int pe = 0; pe < pes; ++pe) {
      ooc::TaskDesc d;
      d.id = next++;
      d.pe = pe;
      // Two deps: one private, one shared with the neighbouring PE so
      // tasks cross shard boundaries.
      d.deps = {{static_cast<ooc::BlockId>(pe), ooc::AccessMode::ReadWrite},
                {static_cast<ooc::BlockId>(4 + (pe + round) % 8),
                 ooc::AccessMode::ReadOnly}};
      xa.arrive(d);
      xb.arrive(d);
    }
  }
  EXPECT_TRUE(a.quiescent());
  EXPECT_TRUE(b.quiescent());
}

/// Drive the serial and sharded engines through the same MultiIo
/// event sequence and require identical counters.
TEST(ShardedEngine, MirrorsSerialEngineOnSequentialWorkload) {
  constexpr int kPes = 4;
  constexpr std::uint64_t kBlock = 1000;

  ooc::PolicyEngine::Config cfg;
  cfg.num_pes = kPes;
  cfg.fast_capacity = 4 * kBlock; // 4 resident blocks max
  ooc::PolicyEngine serial(cfg);
  rt::ShardedEngine sharded(cfg); // one Config for both engines
  drive_mirrored(serial, sharded, kPes, kBlock);

  EXPECT_EQ(serial.stats(), sharded.stats()); // every counter
  EXPECT_EQ(serial.fast_used(), sharded.fast_used());
  EXPECT_EQ(sharded.fast_used(), 0u);
}

/// At quiescence both engines report the same bytes on every level of
/// a three-level hierarchy — the unbounded bottom level included.
TEST(ShardedEngine, ReportsSerialTierUsageAtQuiescence) {
  constexpr int kPes = 4;
  constexpr std::uint64_t kBlock = 1000;

  ooc::PolicyEngine::Config cfg;
  cfg.num_pes = kPes;
  cfg.tiers = {{2, 4 * kBlock, 1.0}, {1, 3 * kBlock, 1.0}, {0, 0, 1.0}};
  ooc::PolicyEngine serial(cfg);
  rt::ShardedEngine sharded(cfg);
  drive_mirrored(serial, sharded, kPes, kBlock);

  EXPECT_EQ(serial.stats(), sharded.stats());
  EXPECT_GT(serial.stats().cascade_demotions, 0u);
  std::uint64_t total = 0;
  for (std::int32_t l = 0; l < serial.num_levels(); ++l) {
    EXPECT_EQ(serial.tier_used(l), sharded.tier_used(l)) << "level " << l;
    total += sharded.tier_used(l);
  }
  EXPECT_GT(sharded.tier_used(2), 0u);
  EXPECT_EQ(total, 12 * kBlock);
  EXPECT_TRUE(serial.audit_invariants(/*at_quiescence=*/true).empty());
  EXPECT_TRUE(sharded.audit_invariants(/*at_quiescence=*/true).empty());
}

enum class EngineKind { Serial, Sharded };

std::unique_ptr<ooc::Engine> make_engine(EngineKind k,
                                         const ooc::PolicyEngine::Config& c) {
  if (k == EngineKind::Serial) return std::make_unique<ooc::PolicyEngine>(c);
  return std::make_unique<rt::ShardedEngine>(c);
}

class EngineDeathTest : public ::testing::TestWithParam<EngineKind> {};

/// Both engines refuse a task whose dependence was freed or never
/// registered, instead of fetching a dead block or running at once.
TEST_P(EngineDeathTest, DependenceOnFreedOrUnknownBlockDies) {
  ooc::PolicyEngine::Config c;
  c.fast_capacity = 1000;
  auto e = make_engine(GetParam(), c);
  for (ooc::BlockId b = 0; b < 3; ++b) e->add_block(b, 100);
  e->remove_block(2);
  for (const ooc::BlockId dead : {ooc::BlockId{2}, ooc::BlockId{5}}) {
    ooc::TaskDesc d;
    d.id = 1;
    d.deps = {{dead, ooc::AccessMode::ReadOnly}};
    EXPECT_DEATH(
        {
          auto cmds = e->on_task_arrived(d);
          (void)cmds;
        },
        "unregistered block")
        << "block " << dead;
  }
}

/// A plain (non-prefetch) entry method claims nothing, but its
/// dependences must still name registered blocks on either engine.
TEST_P(EngineDeathTest, PlainTaskOnUnknownBlockDies) {
  ooc::PolicyEngine::Config c;
  c.fast_capacity = 1000;
  auto e = make_engine(GetParam(), c);
  e->add_block(0, 100);
  ooc::TaskDesc d;
  d.id = 1;
  d.prefetch = false;
  d.deps = {{0, ooc::AccessMode::ReadOnly}, {7, ooc::AccessMode::ReadOnly}};
  EXPECT_DEATH(
      {
        auto cmds = e->on_task_arrived(d);
        (void)cmds;
      },
      "task depends on an unregistered block");
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineDeathTest,
    ::testing::Values(EngineKind::Serial, EngineKind::Sharded),
    [](const ::testing::TestParamInfo<EngineKind>& p) {
      return std::string(p.param == EngineKind::Serial ? "Serial"
                                                          : "Sharded");
    });

TEST(ShardedEngine, AllOrNothingAdmissionAndFifo) {
  rt::ShardedEngine::Config hc;
  hc.num_pes = 1;
  hc.fast_capacity = 2000;
  hc.fair_admission = false;
  rt::ShardedEngine eng(hc);
  eng.add_block(0, 1500);
  eng.add_block(1, 1500);

  ooc::TaskDesc t1;
  t1.id = 1;
  t1.deps = {{0, ooc::AccessMode::ReadWrite}};
  auto c1 = eng.on_task_arrived(t1); // claims 1500, fetch issued
  ASSERT_EQ(c1.size(), 1u);
  EXPECT_EQ(c1[0].kind, ooc::Command::Kind::Fetch);

  ooc::TaskDesc t2;
  t2.id = 2;
  t2.deps = {{1, ooc::AccessMode::ReadWrite}};
  EXPECT_TRUE(eng.on_task_arrived(t2).empty()); // 3000 > 2000: waits
  EXPECT_EQ(eng.total_waiting(), 1u);

  auto c2 = eng.on_fetch_complete(0);
  ASSERT_EQ(c2.size(), 1u); // task 1 runnable; task 2 still blocked
  EXPECT_EQ(c2[0].kind, ooc::Command::Kind::Run);

  auto c3 = eng.on_task_complete(1, 0); // evicts block 0
  ASSERT_EQ(c3.size(), 1u);
  EXPECT_EQ(c3[0].kind, ooc::Command::Kind::Evict);

  auto c4 = eng.on_evict_complete(0); // capacity back: admit task 2
  ASSERT_EQ(c4.size(), 1u);
  EXPECT_EQ(c4[0].kind, ooc::Command::Kind::Fetch);
  EXPECT_EQ(c4[0].block, 1u);
  EXPECT_EQ(eng.total_waiting(), 0u);

  auto c5 = eng.on_fetch_complete(1);
  ASSERT_EQ(c5.size(), 1u);
  auto c6 = eng.on_task_complete(2, 0);
  ASSERT_EQ(c6.size(), 1u);
  EXPECT_TRUE(eng.on_evict_complete(1).empty());
  EXPECT_TRUE(eng.quiescent());
}

TEST(ShardedEngine, FetchDedupAcrossShards) {
  // Two tasks on different PEs (different shards) share one block:
  // exactly one fetch, both runnable when it lands.
  rt::ShardedEngine::Config hc;
  hc.num_pes = 2;
  hc.fast_capacity = 10000;
  rt::ShardedEngine eng(hc);
  eng.add_block(0, 1000);

  ooc::TaskDesc a;
  a.id = 1;
  a.pe = 0;
  a.deps = {{0, ooc::AccessMode::ReadOnly}};
  ooc::TaskDesc b;
  b.id = 2;
  b.pe = 1;
  b.deps = {{0, ooc::AccessMode::ReadOnly}};

  auto ca = eng.on_task_arrived(a);
  ASSERT_EQ(ca.size(), 1u);
  EXPECT_EQ(ca[0].kind, ooc::Command::Kind::Fetch);
  EXPECT_TRUE(eng.on_task_arrived(b).empty()); // joins the same fetch

  auto runs = eng.on_fetch_complete(0);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].kind, ooc::Command::Kind::Run);
  EXPECT_EQ(runs[1].kind, ooc::Command::Kind::Run);
  EXPECT_EQ(eng.stats().fetches, 1u);
  EXPECT_EQ(eng.stats().fetch_dedup_hits, 1u);

  // Second completion releases the shared block.
  EXPECT_TRUE(eng.on_task_complete(1, 0).empty()); // still claimed by 2
  auto ev = eng.on_task_complete(2, 1);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, ooc::Command::Kind::Evict);
  (void)eng.on_evict_complete(0);
  EXPECT_TRUE(eng.quiescent());
}

// --------------------------------------------------- runtime level tests

TEST(RtConcurrency, ShardedIsTheMultiIoDefault) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 2;
  cfg.mem_scale = 1.0 / 4096;
  rt::Runtime rt(cfg);
  EXPECT_TRUE(rt.sharded());
  EXPECT_EQ(rt.engine_shards(), 2);

  cfg.adaptive = true; // the advisor and governor need the serial engine
  rt::Runtime rt2(cfg);
  EXPECT_FALSE(rt2.sharded());
  EXPECT_EQ(rt2.engine_shards(), 1);

  cfg.adaptive = false;
  cfg.strategy = ooc::Strategy::SingleIo; // global policy: serial path
  rt::Runtime rt3(cfg);
  EXPECT_FALSE(rt3.sharded());
}

TEST(RtConcurrency, PrefetchBatchRunsEveryTaskWithResidentData) {
  rt::Runtime::Config cfg;
  cfg.num_pes = 4;
  cfg.mem_scale = 1.0 / 4096; // 4 MiB fast tier
  rt::Runtime rt(cfg);
  ASSERT_TRUE(rt.sharded());

  constexpr int kBlocks = 16; // 16 x 512 KiB = 2x the fast tier
  std::vector<std::unique_ptr<rt::IoHandle<double>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    hs.push_back(
        std::make_unique<rt::IoHandle<double>>(rt, 64 * 1024));
  }
  const auto fast = cfg.model.fast;
  std::atomic<int> wrong_tier{0};
  std::atomic<int> ran{0};
  for (int pe = 0; pe < 4; ++pe) {
    std::vector<rt::Runtime::PrefetchMsg> batch;
    for (int t = 0; t < 24; ++t) {
      const int b = (pe * 24 + t) % kBlocks;
      rt::Runtime::PrefetchMsg m;
      m.deps = {hs[static_cast<std::size_t>(b)]->dep(
          ooc::AccessMode::ReadWrite)};
      m.body = [&, b] {
        if (rt.memory().block_tier(
                hs[static_cast<std::size_t>(b)]->id()) != fast) {
          wrong_tier.fetch_add(1);
        }
        ran.fetch_add(1);
      };
      batch.push_back(std::move(m));
    }
    rt.send_prefetch_batch(pe, std::move(batch));
  }
  rt.wait_idle();
  EXPECT_EQ(ran.load(), 96);
  EXPECT_EQ(wrong_tier.load(), 0);
  EXPECT_EQ(rt.tasks_executed(), 96u);
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, 96u);
  // Eager eviction at quiescence: nothing left in the fast tier.
  EXPECT_EQ(rt.memory().usage(fast).live_blocks, 0u);
}

TEST(RtConcurrency, StressSharedBlocksAcrossShards) {
  // Many concurrent senders, cross-PE shared dependences, repeated
  // idle barriers and block churn between rounds.  Exercises shard
  // handoff (fetch on PE a's shard, waiter on PE b's), the budget
  // stealing path and the atomic quiescence counters.
  rt::Runtime::Config cfg;
  cfg.num_pes = 4;
  cfg.mem_scale = 1.0 / 8192; // 2 MiB fast tier: heavy churn
  rt::Runtime rt(cfg);
  ASSERT_TRUE(rt.sharded());

  constexpr int kRounds = 6;
  constexpr int kBlocks = 24;
  constexpr std::uint64_t kBytes = 128 * 1024;
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<mem::BlockId> blocks;
    for (int b = 0; b < kBlocks; ++b) {
      blocks.push_back(rt.alloc_block(kBytes));
    }
    std::vector<std::thread> senders;
    for (int pe = 0; pe < 4; ++pe) {
      senders.emplace_back([&, pe] {
        for (int t = 0; t < 16; ++t) {
          rt::Runtime::DepList deps = {
              {blocks[static_cast<std::size_t>((pe * 16 + t) % kBlocks)],
               ooc::AccessMode::ReadWrite},
              {blocks[static_cast<std::size_t>((pe * 16 + t + 5) %
                                               kBlocks)],
               ooc::AccessMode::ReadOnly}};
          rt.send_prefetch(pe, std::move(deps),
                           [&sum] { sum.fetch_add(1); });
        }
      });
    }
    for (auto& s : senders) s.join();
    expected += 4 * 16;
    rt.wait_idle();
    for (const auto b : blocks) rt.free_block(b);
  }
  EXPECT_EQ(sum.load(), expected);
  EXPECT_EQ(rt.tasks_executed(), expected);
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, expected);
  EXPECT_EQ(st.fetches, st.evicts); // every fetched block went home
}

TEST(RtConcurrency, GlobalAndShardedAgreeOnSerializedWorkload) {
  // One task in flight at a time: scheduling decisions are forced, so
  // the serial engine (SingleIo) and the sharded engine (MultiIo) must
  // produce identical traffic.
  auto run = [](ooc::Strategy strategy) {
    rt::Runtime::Config cfg;
    cfg.num_pes = 2;
    cfg.mem_scale = 1.0 / 4096;
    cfg.strategy = strategy;
    rt::Runtime rt(cfg);
    EXPECT_EQ(rt.sharded(), strategy == ooc::Strategy::MultiIo);
    rt::IoHandle<std::uint64_t> h(rt, 4096);
    for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = i;
    for (int t = 0; t < 12; ++t) {
      rt.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
        for (std::uint64_t i = 0; i < h.size(); ++i) h[i] += 1;
      });
      rt.wait_idle();
    }
    for (std::uint64_t i = 0; i < h.size(); ++i) {
      EXPECT_EQ(h[i], i + 12);
    }
    return rt.policy_stats();
  };
  const auto g = run(ooc::Strategy::SingleIo);
  const auto s = run(ooc::Strategy::MultiIo);
  EXPECT_EQ(g, s); // every counter
}

TEST(RtConcurrency, ChunkedMigrationInsideTheRuntime) {
  // A block big enough to chunk (>= 1 MiB threshold) round-trips with
  // its contents intact while IO threads are free to assist.
  rt::Runtime::Config cfg;
  cfg.num_pes = 2;
  cfg.mem_scale = 1.0 / 1024; // 16 MiB fast tier
  ASSERT_GT(cfg.chunk_threshold, 0u);
  rt::Runtime rt(cfg);
  rt::IoHandle<std::uint64_t> h(rt, (4u << 20) / sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = i * 3 + 1;
  for (int t = 0; t < 4; ++t) {
    rt.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
      for (std::uint64_t i = 0; i < h.size(); ++i) h[i] += 1;
    });
    rt.wait_idle();
  }
  for (std::uint64_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h[i], i * 3 + 5);
  }
  // 4 fetches + 4 evicts of a 4 MiB block, all above the threshold:
  // each one is either a chunked copy or a shadow swap.
  const auto& mm = rt.memory();
  EXPECT_EQ(mm.chunk_ring().jobs() + mm.zero_copy_admissions(), 8u);
  EXPECT_EQ(mm.migration_stats(cfg.model.slow, cfg.model.fast).count +
                mm.migration_stats(cfg.model.fast, cfg.model.slow).count,
            8u);
}

} // namespace
} // namespace hmr
