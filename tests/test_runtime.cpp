// Tests for the threaded charm-lite runtime: message delivery,
// prefetch interception, real block migration around task execution,
// quiescence, and strategy coverage.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "rt/chare.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "util/units.hpp"

namespace hmr::rt {
namespace {

Runtime::Config small_config(ooc::Strategy s, int pes = 2) {
  Runtime::Config cfg;
  cfg.strategy = s;
  cfg.num_pes = pes;
  cfg.mem_scale = 1.0 / 4096; // 4 MiB fast / 24 MiB slow
  return cfg;
}

TEST(Runtime, PlainMessagesExecute) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    rt.send(i % 2, [&count] { count.fetch_add(1); });
  }
  rt.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(Runtime, PlainMessagesKeepPerPeFifoOrder) {
  Runtime rt(small_config(ooc::Strategy::MultiIo, /*pes=*/1));
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    rt.send(0, [&order, i] { order.push_back(i); });
  }
  rt.wait_idle();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(Runtime, PrefetchTaskSeesBlockInFastTier) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  Runtime rt(cfg);
  IoHandle<double> h(rt, 1024);
  const auto fast = cfg.model.fast;
  const auto slow = cfg.model.slow;
  // Movement strategies place fresh blocks on the slow tier.
  EXPECT_EQ(rt.memory().block_tier(h.id()), slow);

  std::atomic<int> seen_tier{-1};
  rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)},
                   [&rt, &h, &seen_tier] {
                     seen_tier = static_cast<int>(
                         rt.memory().block_tier(h.id()));
                   });
  rt.wait_idle();
  EXPECT_EQ(seen_tier.load(), static_cast<int>(fast));
  // Eager eviction returns it to the slow tier at quiescence.
  EXPECT_EQ(rt.memory().block_tier(h.id()), slow);
}

TEST(Runtime, DataSurvivesMigrationRoundTrips) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  IoHandle<std::uint64_t> h(rt, 4096);
  for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = i;
  // 20 tasks each increment every element; data migrates slow->fast
  // and back around every task.
  for (int t = 0; t < 20; ++t) {
    rt.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
      for (std::uint64_t i = 0; i < h.size(); ++i) h[i] += 1;
    });
    rt.wait_idle(); // serialize increments across PEs
  }
  for (std::uint64_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(h[i], i + 20);
  }
  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, 20u);
  EXPECT_EQ(st.fetches, 20u);
  EXPECT_EQ(st.evicts, 20u);
}

class RuntimeStrategies : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(RuntimeStrategies, ManyTasksOverflowTheFastTier) {
  // 16 blocks x 512 KiB = 8 MiB working set vs 4 MiB fast tier: data
  // must stream through. Every task checks its block's content.
  Runtime rt(small_config(GetParam(), /*pes=*/4));
  constexpr int kBlocks = 16;
  std::vector<IoHandle<double>> hs;
  hs.reserve(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    hs.emplace_back(rt, 64 * KiB); // 512 KiB each
    for (std::uint64_t i = 0; i < hs.back().size(); i += 97) {
      hs.back()[i] = b + 1;
    }
  }
  std::atomic<int> ok{0};
  for (int round = 0; round < 3; ++round) {
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 4, {h.dep(ooc::AccessMode::ReadOnly)},
                       [&h, &ok, b] {
                         bool good = true;
                         for (std::uint64_t i = 0; i < h.size(); i += 97) {
                           good &= h[i] == b + 1;
                         }
                         if (good) ok.fetch_add(1);
                       });
    }
    rt.wait_idle();
  }
  EXPECT_EQ(ok.load(), 3 * kBlocks);
  if (ooc::strategy_moves_data(GetParam())) {
    EXPECT_GT(rt.policy_stats().fetch_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, RuntimeStrategies,
    ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::SingleIo,
                      ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo),
    [](const auto& pi) { return ooc::strategy_name(pi.param); });

TEST(Runtime, NaivePlacementPacksFastTierFirst) {
  auto cfg = small_config(ooc::Strategy::Naive);
  Runtime rt(cfg);
  // Fast tier is 4 MiB: the first three 1.5 MiB blocks cannot all fit.
  IoHandle<double> h1(rt, 192 * KiB), h2(rt, 192 * KiB), h3(rt, 192 * KiB);
  EXPECT_EQ(rt.memory().block_tier(h1.id()), cfg.model.fast);
  EXPECT_EQ(rt.memory().block_tier(h2.id()), cfg.model.fast);
  EXPECT_EQ(rt.memory().block_tier(h3.id()), cfg.model.slow);
}

TEST(Runtime, SharedReadOnlyBlockRefcounting) {
  Runtime rt(small_config(ooc::Strategy::MultiIo, /*pes=*/4));
  IoHandle<double> shared(rt, 64 * KiB);
  shared[0] = 42.0;
  std::atomic<int> ok{0};
  for (int i = 0; i < 16; ++i) {
    rt.send_prefetch(i % 4, {shared.dep(ooc::AccessMode::ReadOnly)},
                     [&shared, &ok] {
                       if (shared[0] == 42.0) ok.fetch_add(1);
                     });
  }
  rt.wait_idle();
  EXPECT_EQ(ok.load(), 16);
  // Sharing must dedup some fetches (16 tasks, far fewer migrations).
  EXPECT_LT(rt.policy_stats().fetches, 16u);
}

TEST(Runtime, TracerRecordsCompute) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.trace = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 16 * KiB);
  rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)}, [] {
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1;
  });
  rt.wait_idle();
  const auto s = rt.tracer().summarize();
  EXPECT_GE(s.count_of(trace::Category::Compute), 1u);
  EXPECT_GE(s.count_of(trace::Category::Prefetch), 1u);
}

TEST(Runtime, TasksFromTasksWork) {
  // Entry methods can send further messages (charm-style chaining).
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  IoHandle<double> h(rt, 16 * KiB);
  std::atomic<int> chain{0};
  std::function<void(int)> launch = [&](int depth) {
    rt.send_prefetch(depth % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&, depth] {
                       chain.fetch_add(1);
                       if (depth < 9) launch(depth + 1);
                     });
  };
  launch(0);
  rt.wait_idle();
  EXPECT_EQ(chain.load(), 10);
}

TEST(Runtime, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    Runtime rt(small_config(ooc::Strategy::SyncNoIo));
    IoHandle<double> h(rt, 16 * KiB);
    for (int i = 0; i < 10; ++i) {
      rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                       [&count] { count.fetch_add(1); });
    }
    // No wait_idle: the destructor must drain.
  }
  EXPECT_EQ(count.load(), 10);
}

} // namespace
} // namespace hmr::rt

namespace hmr::rt {
namespace {

// Post-processing is per task: each task's completion reaches the
// engine before the next body of the same ready batch runs, so its
// evictions can overlap that body.  The first body stalls so the rest
// pile up in PE 0's run queue and drain as batches.
class RuntimePostProcessing
    : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(RuntimePostProcessing, EachBodySeesEveryEarlierCompletion) {
  // MultiIo + eager eviction runs the sharded engine, SingleIo the
  // serial one.
  Runtime rt(small_config(GetParam()));
  constexpr int kTasks = 24;
  std::vector<std::unique_ptr<IoHandle<double>>> blocks;
  std::vector<Runtime::PrefetchMsg> msgs;
  std::vector<std::uint64_t> seen; // PE 0 only: no lock needed
  for (int i = 0; i < kTasks; ++i) {
    blocks.push_back(std::make_unique<IoHandle<double>>(rt, 512));
    Runtime::PrefetchMsg m;
    m.deps = {blocks.back()->dep(ooc::AccessMode::ReadWrite)};
    m.body = [&rt, &seen, i] {
      if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      seen.push_back(rt.policy_stats().tasks_run);
    };
    msgs.push_back(std::move(m));
  }
  rt.send_prefetch_batch(0, std::move(msgs));
  rt.wait_idle();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kTasks));
  for (std::size_t j = 0; j < seen.size(); ++j) {
    EXPECT_EQ(seen[j], j) << "body " << j << " of PE 0";
  }
  EXPECT_EQ(rt.policy_stats().tasks_run, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(rt.tasks_executed(), static_cast<std::uint64_t>(kTasks));
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RuntimePostProcessing,
    ::testing::Values(ooc::Strategy::MultiIo, ooc::Strategy::SingleIo),
    [](const ::testing::TestParamInfo<ooc::Strategy>& p) {
      return p.param == ooc::Strategy::MultiIo ? "Sharded" : "Serial";
    });

TEST(Runtime, FlightRecorderTracksOnlyLiveBlocks) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  const auto* flight = rt.flight_recorder();
  ASSERT_NE(flight, nullptr);
  constexpr int kLive = 3;
  for (int round = 0; round < 10; ++round) {
    std::vector<mem::BlockId> live;
    for (int i = 0; i < kLive; ++i) {
      live.push_back(rt.alloc_block(8 * KiB));
      rt.send_prefetch(i % 2, {{live.back(), ooc::AccessMode::ReadWrite}},
                       [] {});
    }
    rt.wait_idle(); // each block fetched, then evicted
    EXPECT_EQ(flight->tracked_blocks(), static_cast<std::size_t>(kLive));
    for (const mem::BlockId b : live) {
      EXPECT_EQ(flight->total_recorded(b), 2u);
      rt.free_block(b);
      EXPECT_TRUE(flight->history(b).empty());
      EXPECT_EQ(flight->total_recorded(b), 0u);
    }
    EXPECT_EQ(flight->tracked_blocks(), 0u);
  }
}

TEST(Runtime, IdlePeAssistsChunkedCopyWithoutIoThreads) {
  // SyncNoIo has no IO threads: PE 0 runs its task's fetch inline, so
  // every assisted chunk of that copy was copied by PE 1, which has
  // nothing to run.
  auto cfg = small_config(ooc::Strategy::SyncNoIo);
  cfg.mem_scale = 1.0 / 1024; // 16 MiB fast tier
  cfg.chunk_bytes = 16 * KiB;
  Runtime rt(cfg);
  ASSERT_EQ(rt.num_io_threads(), 0);
  const std::uint64_t n = 8 * MiB / sizeof(std::uint64_t);
  ASSERT_GE(n * sizeof(std::uint64_t), cfg.chunk_threshold);
  const mem::ChunkRing& ring = rt.memory().chunk_ring();
  // Whether PE 1 is scheduled while the copy runs is up to the OS, so
  // fetch fresh blocks (no shadow, a real copy each) until it was.
  int rounds = 0;
  for (; rounds < 200 && ring.chunks_assisted() == 0; ++rounds) {
    IoHandle<std::uint64_t> h(rt, n);
    const auto value = [rounds](std::uint64_t i) {
      return i * 7 + static_cast<std::uint64_t>(rounds);
    };
    for (std::uint64_t i = 0; i < n; ++i) h[i] = value(i);
    std::atomic<bool> intact{false};
    rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadOnly)}, [&] {
      bool ok = true;
      for (std::uint64_t i = 0; i < n; ++i) ok = ok && h[i] == value(i);
      intact = ok;
    });
    rt.wait_idle();
    ASSERT_TRUE(intact.load()) << "round " << rounds;
    rt.free_block(h.id());
  }
  EXPECT_GT(ring.chunks_assisted(), 0u) << "after " << rounds << " rounds";
  EXPECT_EQ(ring.jobs(), static_cast<std::uint64_t>(rounds));
}

TEST(Runtime, FreeBlockReleasesCapacity) {
  Runtime rt(small_config(ooc::Strategy::MultiIo));
  const auto slow = rt.config().model.slow;
  const auto used_before = rt.memory().usage(slow).used;
  mem::BlockId b;
  {
    IoHandle<double> h(rt, 64 * KiB);
    b = h.id();
    EXPECT_GT(rt.memory().usage(slow).used, used_before);
    rt.free_block(b);
  }
  EXPECT_EQ(rt.memory().usage(slow).used, used_before);
}

TEST(Runtime, FreeClaimedBlockDies) {
  Runtime rt(small_config(ooc::Strategy::Naive));
  IoHandle<double> h(rt, 16 * KiB);
  // Naive: no claims ever; freeing mid-flight is a task-time concern,
  // so exercise the engine-side guard with an unknown id instead.
  rt.free_block(h.id());
  EXPECT_DEATH(rt.free_block(h.id()), "dead block|unknown block");
}

TEST(Runtime, WriteonlyNocopySkipsTheCopyButKeepsWrites) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.writeonly_nocopy = true;
  Runtime rt(cfg);
  IoHandle<double> in(rt, 16 * KiB);
  IoHandle<double> out(rt, 16 * KiB);
  for (std::uint64_t i = 0; i < in.size(); ++i) in[i] = double(i);
  rt.send_prefetch(0,
                   {in.dep(ooc::AccessMode::ReadOnly),
                    out.dep(ooc::AccessMode::WriteOnly)},
                   [&] {
                     // `out` arrived without its old contents; the task
                     // fully overwrites it, as WriteOnly promises.
                     for (std::uint64_t i = 0; i < out.size(); ++i) {
                       out[i] = in[i] * 3.0;
                     }
                   });
  rt.wait_idle();
  for (std::uint64_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], 3.0 * double(i));
  }
}

TEST(Runtime, EvictByWorkerOptionRuns) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.evict_by_worker = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 32 * KiB);
  std::atomic<int> runs{0};
  for (int i = 0; i < 6; ++i) {
    rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&runs] { runs.fetch_add(1); });
    rt.wait_idle();
  }
  EXPECT_EQ(runs.load(), 6);
  EXPECT_EQ(rt.policy_stats().evicts, 6u);
}

TEST(Runtime, LazyEvictionKeepsBlocksWarm) {
  auto cfg = small_config(ooc::Strategy::MultiIo);
  cfg.eager_evict = false;
  Runtime rt(cfg);
  const auto fast = rt.config().model.fast;
  IoHandle<double> h(rt, 64 * KiB);
  for (int i = 0; i < 4; ++i) {
    rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadWrite)}, [] {});
    rt.wait_idle();
    // Lazy: the block stays parked in the fast tier between tasks.
    EXPECT_EQ(rt.memory().block_tier(h.id()), fast);
  }
  // One fetch total: subsequent tasks reuse the warm block.
  EXPECT_EQ(rt.policy_stats().fetches, 1u);
  EXPECT_EQ(rt.policy_stats().lru_reclaims, 3u);
}

} // namespace
} // namespace hmr::rt

namespace hmr::rt {
namespace {

TEST(Runtime, AdaptiveGuidanceStepsAtEveryIdleBarrier) {
  // Adaptive mode in the threaded runtime: wait_idle() is the phase
  // boundary.  The guidance components must see every phase and stay
  // within their configured bounds while real tasks flow through.
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.adaptive = true;
  cfg.profiler_cfg.top_k = 4; // tighter than the block count below
  Runtime rt(cfg);
  std::vector<std::unique_ptr<IoHandle<double>>> blocks;
  for (int i = 0; i < 6; ++i) {
    blocks.push_back(std::make_unique<IoHandle<double>>(rt, 4096));
  }
  std::atomic<int> ran{0};
  for (int phase = 0; phase < 3; ++phase) {
    for (int t = 0; t < 12; ++t) {
      auto& h = *blocks[static_cast<std::size_t>(t) % blocks.size()];
      rt.send_prefetch(t % rt.num_pes(),
                       {h.dep(ooc::AccessMode::ReadOnly)},
                       [&ran] { ran.fetch_add(1); });
    }
    rt.wait_idle();
  }
  EXPECT_EQ(ran.load(), 36);
  ASSERT_NE(rt.governor(), nullptr);
  EXPECT_GE(rt.governor()->phases_observed(), 3);
  ASSERT_NE(rt.profiler(), nullptr);
  EXPECT_LE(rt.profiler()->tracked(), 4u);
  EXPECT_EQ(rt.policy_stats().tasks_run, 36u);
}

TEST(Runtime, ThreadPinningOptionRuns) {
  // Functional smoke test: pinning must not break execution even when
  // the host has fewer cores than threads (it degrades to a no-op).
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.pin_threads = true;
  Runtime rt(cfg);
  IoHandle<double> h(rt, 16 * KiB);
  std::atomic<int> runs{0};
  for (int i = 0; i < 4; ++i) {
    rt.send_prefetch(i % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                     [&runs] { runs.fetch_add(1); });
  }
  rt.wait_idle();
  EXPECT_EQ(runs.load(), 4);
}

/// Shared driver for the zero-copy on/off equivalence check: a
/// streaming working set (re-fetch after evict keeps shadows hot),
/// read-only verification rounds plus serialized read-write rounds
/// (exercising mark_dirty invalidation).  Returns the final contents.
/// Threaded fetch/evict counts are interleaving-dependent, so only
/// deterministic invariants are compared here; the byte-exact stats
/// lock against the seed engine lives in test_tier_equivalence.cpp.
struct ZeroCopyRun {
  std::vector<std::vector<double>> contents;
  std::uint64_t tasks = 0;
  std::uint64_t admissions = 0;
};

ZeroCopyRun run_zero_copy_workload(bool zero_copy) {
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  ZeroCopyRun out;
  Runtime rt(cfg);
  // The runtime always retains shadows; the reference leg turns them
  // off before the first block exists.
  if (!zero_copy) rt.memory().set_zero_copy(false);
  constexpr int kBlocks = 12;
  std::vector<std::unique_ptr<IoHandle<double>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    hs.push_back(std::make_unique<IoHandle<double>>(rt, 64 * KiB));
    auto& h = *hs.back();
    for (std::uint64_t i = 0; i < h.size(); ++i) {
      h[i] = b * 1000.0 + static_cast<double>(i % 251);
    }
  }
  std::atomic<int> bad{0};
  for (int round = 0; round < 3; ++round) {
    // Read-only sweep: evict/refetch cycles where swaps may be admitted.
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadOnly)},
                       [&h, &bad, b] {
                         for (std::uint64_t i = 0; i < h.size(); i += 83) {
                           if (h[i] !=
                               b * 1000.0 + static_cast<double>(i % 251) +
                                   /*writes so far*/ 0.0) {
                             // RW rounds below adjust all elements back,
                             // so reads always see the base pattern.
                             bad.fetch_add(1);
                             break;
                           }
                         }
                       });
    }
    rt.wait_idle();
    // Read-write round (serialized): dirties blocks, invalidating any
    // retained shadow; a stale-swap bug would surface in the next
    // read-only sweep.
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
        for (std::uint64_t i = 0; i < h.size(); i += 7) h[i] += 1.0;
      });
      rt.wait_idle();
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)}, [&h] {
        for (std::uint64_t i = 0; i < h.size(); i += 7) h[i] -= 1.0;
      });
      rt.wait_idle();
    }
  }
  EXPECT_EQ(bad.load(), 0);
  out.tasks = rt.policy_stats().tasks_run;
  out.admissions = rt.memory().zero_copy_admissions();
  for (auto& hp : hs) {
    out.contents.emplace_back(&(*hp)[0], &(*hp)[0] + hp->size());
  }
  return out;
}

TEST(Runtime, ZeroCopyAdmissionIsTransparentUnderThreads) {
  const ZeroCopyRun off = run_zero_copy_workload(false);
  const ZeroCopyRun on = run_zero_copy_workload(true);
  EXPECT_EQ(off.admissions, 0u);
  EXPECT_GT(on.admissions, 0u);
  EXPECT_EQ(on.tasks, off.tasks);
  ASSERT_EQ(on.contents.size(), off.contents.size());
  for (std::size_t b = 0; b < on.contents.size(); ++b) {
    ASSERT_EQ(on.contents[b], off.contents[b]) << "block " << b;
  }
}

/// Deferred write-back under threads: three times more read-write data
/// than the fast tier holds, so deferred evictions must be written back
/// to make room.  Audited: every wait_idle reconciles the
/// MemoryManager's ledger.
struct WriteBackRun {
  std::vector<std::vector<double>> contents;
  std::uint64_t deferrals = 0;
  std::uint64_t write_backs = 0;
  std::uint64_t exported_deferrals = 0;  // as wait_idle exports them
  std::uint64_t exported_write_backs = 0;
};

WriteBackRun run_write_back_workload(bool zero_copy) {
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/2);
  cfg.mem_scale = 1.0 / 16384; // 1 MiB fast / 6 MiB slow
  cfg.audit = 1;
  cfg.metrics = true;
  Runtime rt(cfg);
  if (!zero_copy) rt.memory().set_zero_copy(false);
  constexpr int kBlocks = 24; // 128 KiB each
  std::vector<std::unique_ptr<IoHandle<double>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    hs.push_back(std::make_unique<IoHandle<double>>(rt, 16 * KiB));
    auto& h = *hs.back();
    for (std::uint64_t i = 0; i < h.size(); ++i) {
      h[i] = b * 1000.0 + static_cast<double>(i % 251);
    }
  }
  for (int round = 1; round <= 4; ++round) {
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                       [&h, round] {
                         for (std::uint64_t i = 0; i < h.size(); i += 5) {
                           h[i] = h[i] * 0.5 + round;
                         }
                       });
    }
    rt.wait_idle();
  }
  WriteBackRun out;
  out.deferrals = rt.memory().deferrals();
  out.write_backs = rt.memory().write_backs();
  auto& reg = *rt.metrics();
  out.exported_deferrals =
      reg.counter("hmr_write_back_deferrals_total").value();
  out.exported_write_backs = reg.counter("hmr_write_backs_total").value();
  for (auto& hp : hs) {
    out.contents.emplace_back(&(*hp)[0], &(*hp)[0] + hp->size());
  }
  return out;
}

TEST(Runtime, DeferredWriteBackKeepsContentsUnderPressure) {
  const WriteBackRun off = run_write_back_workload(false);
  const WriteBackRun on = run_write_back_workload(true);
  EXPECT_EQ(off.deferrals, 0u);
  EXPECT_GT(on.deferrals, 0u);
  EXPECT_GT(on.write_backs, 0u);
  EXPECT_EQ(on.exported_deferrals, on.deferrals);
  EXPECT_EQ(on.exported_write_backs, on.write_backs);
  ASSERT_EQ(on.contents.size(), off.contents.size());
  for (std::size_t b = 0; b < on.contents.size(); ++b) {
    ASSERT_EQ(on.contents[b], off.contents[b]) << "block " << b;
  }
}

TEST(Runtime, SwapBatchLargerThanItsStackBufferCompletes) {
  // One PE intercepts 16 tasks of 6 read-only blocks each in one batch:
  // 96 fetches reach one process() call, more than its stack buffer of
  // swap requests holds.  Round 1 copies; in round 2 a fetch swaps back
  // onto the shadow round 1 left unless an allocation reclaimed it, so
  // the batch mixes swaps and copies by timing.  Audited wait_idle calls
  // check the engine and the memory ledger after each round.
  auto cfg = small_config(ooc::Strategy::MultiIo, /*pes=*/1);
  cfg.audit = 1;
  cfg.trace = true;
  Runtime rt(cfg);
  static constexpr int kTasks = 16;
  static constexpr int kDeps = 6;
  std::vector<std::unique_ptr<IoHandle<double>>> hs;
  for (int b = 0; b < kTasks * kDeps; ++b) {
    hs.push_back(std::make_unique<IoHandle<double>>(rt, 512));
    for (std::uint64_t i = 0; i < 512; ++i) (*hs.back())[i] = b;
  }
  std::atomic<int> wrong{0};
  const auto round = [&] {
    std::vector<Runtime::PrefetchMsg> msgs;
    for (int t = 0; t < kTasks; ++t) {
      Runtime::PrefetchMsg m;
      std::vector<IoHandle<double>*> mine;
      for (int d = 0; d < kDeps; ++d) {
        IoHandle<double>& h = *hs[static_cast<std::size_t>(t * kDeps + d)];
        m.deps.push_back(h.dep(ooc::AccessMode::ReadOnly));
        mine.push_back(&h);
      }
      m.body = [&wrong, mine, t] {
        for (int d = 0; d < kDeps; ++d) {
          const IoHandle<double>& h = *mine[static_cast<std::size_t>(d)];
          if (h[0] != t * kDeps + d || h[511] != t * kDeps + d) ++wrong;
        }
      };
      msgs.push_back(std::move(m));
    }
    rt.send_prefetch_batch(0, std::move(msgs));
    rt.wait_idle();
  };
  round();
  const std::uint64_t swaps_before = rt.memory().zero_copy_admissions();
  const double t_round2 = rt.now();
  round();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(rt.tasks_executed(), 2u * kTasks);
  // Round 2 nothing allocates on the slow tier, so every eviction
  // swaps back onto the shadow its fetch left there.
  EXPECT_GE(rt.memory().zero_copy_admissions() - swaps_before,
            static_cast<std::uint64_t>(kTasks * kDeps));
  std::size_t fetches = 0, swapped = 0;
  double swap_s = 0;
  for (const auto& iv : rt.tracer().intervals()) {
    if (iv.cat != trace::Category::Prefetch || iv.start < t_round2) continue;
    EXPECT_LE(iv.start, iv.end);
    ++fetches;
    if (iv.bytes == 0) { // a swap: its share of the batch's span
      ++swapped;
      swap_s += iv.end - iv.start;
    }
  }
  EXPECT_EQ(fetches, static_cast<std::size_t>(kTasks * kDeps));
  if (swapped > 0) {
    EXPECT_GT(swap_s, 0.0);
  }
}

/// The inline-copy rule under one configuration.  PE 1 runs a task on
/// a fresh 64 KiB block and PE 0 one on a fresh 2 MiB block; both first
/// fetches are real copies (a fresh block has no shadow).  The 64 KiB
/// copy fits in one ChunkRing chunk, so the PE that handled its command
/// copies it: its fetch interval is on that PE's trace lane.  The 2 MiB
/// copy is chunked on an IO thread.  Evictions swap or defer either way.
void expect_one_chunk_copies_inline(Runtime::Config cfg,
                                    std::uint32_t tenant = 0) {
  cfg.num_pes = 2;
  cfg.trace = true;
  cfg.audit = 1;
  Runtime rt(cfg);
  const auto fast = cfg.model.fast;
  const auto slow = cfg.model.slow;
  constexpr std::uint64_t kSmall = 64 * KiB;
  constexpr std::uint64_t kLarge = 2 * MiB;
  ASSERT_LE(kSmall, cfg.chunk_bytes);
  ASSERT_GE(kLarge, cfg.chunk_threshold);
  IoHandle<std::uint64_t> small(rt, kSmall / sizeof(std::uint64_t));
  IoHandle<std::uint64_t> large(rt, kLarge / sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < small.size(); ++i) small[i] = i * 3;
  for (std::uint64_t i = 0; i < large.size(); ++i) large[i] = i * 5;
  std::atomic<bool> large_intact{false};
  const auto send = [&](int pe, ooc::Dep dep, Runtime::Body body) {
    std::vector<Runtime::PrefetchMsg> msgs(1);
    msgs[0].deps = {dep};
    msgs[0].body = std::move(body);
    msgs[0].tenant = tenant;
    rt.send_prefetch_batch(pe, std::move(msgs));
  };
  send(1, small.dep(ooc::AccessMode::ReadWrite), [&small] {
    for (auto& w : small.span()) w += 1;
  });
  send(0, large.dep(ooc::AccessMode::ReadOnly), [&large, &large_intact] {
    bool ok = true;
    for (std::uint64_t i = 0; i < large.size(); ++i) {
      ok = ok && large[i] == i * 5;
    }
    large_intact = ok;
  });
  rt.wait_idle();

  for (std::uint64_t i = 0; i < small.size(); ++i) {
    ASSERT_EQ(small[i], i * 3 + 1) << "word " << i;
  }
  EXPECT_TRUE(large_intact.load());
  int small_fetches = 0, large_fetches = 0;
  for (const auto& iv : rt.tracer().intervals()) {
    if (iv.cat != trace::Category::Prefetch) continue;
    if (iv.bytes == kSmall) {
      ++small_fetches;
      EXPECT_EQ(iv.lane, 1) << "a one-chunk copy on the handling PE";
    } else if (iv.bytes == kLarge) {
      ++large_fetches;
      EXPECT_GE(iv.lane, cfg.num_pes) << "a chunked copy on an IO lane";
    }
  }
  EXPECT_EQ(small_fetches, 1);
  EXPECT_EQ(large_fetches, 1);
  const mem::ChunkRing& ring = rt.memory().chunk_ring();
  EXPECT_EQ(ring.jobs(), 1u);
  EXPECT_EQ(ring.chunks_copied(), kLarge / cfg.chunk_bytes);
  // The same logical traffic as with every copy on an IO thread: one
  // fetch and one (copy-free) eviction each.
  const mem::MigrationStats up = rt.memory().migration_stats(slow, fast);
  const mem::MigrationStats down = rt.memory().migration_stats(fast, slow);
  EXPECT_EQ(up.count, 2u);
  EXPECT_EQ(up.bytes, kSmall + kLarge);
  EXPECT_EQ(down.count, 2u);
  EXPECT_EQ(down.bytes, kSmall + kLarge);
  EXPECT_EQ(rt.memory().zero_copy_admissions(), 2u);
  EXPECT_EQ(rt.memory().audit_ledger(), std::vector<std::string>{});
  EXPECT_EQ(rt.audit_now().violations, std::vector<std::string>{});
}

TEST(Runtime, SmallMigrationsCompleteOnTheCommandThread) {
  {
    SCOPED_TRACE("MultiIo");
    expect_one_chunk_copies_inline(small_config(ooc::Strategy::MultiIo));
  }
  {
    SCOPED_TRACE("SingleIo");
    expect_one_chunk_copies_inline(small_config(ooc::Strategy::SingleIo));
  }
  {
    // An inline copy skips the tenancy layer's QoS ordering of the IO
    // queues: it completes before the next command is handled.
    SCOPED_TRACE("tenancy");
    auto cfg = small_config(ooc::Strategy::MultiIo);
    serve::TenantDesc lat;
    lat.id = 0;
    lat.name = "lat";
    lat.qos = serve::QosClass::LatencySLO;
    lat.tier_reserve = {0.5};
    serve::TenantDesc batch;
    batch.id = 1;
    batch.name = "batch";
    batch.qos = serve::QosClass::Batch;
    cfg.serve.tenants = {lat, batch};
    expect_one_chunk_copies_inline(cfg, /*tenant=*/1);
  }
}

/// One set-up of the quiescence test below.
struct CascadeCase {
  const char* name;
  ooc::Strategy strategy;
  bool evict_by_worker = false;
  bool tenants = false;
};
void PrintTo(const CascadeCase& c, std::ostream* os) { *os << c.name; }

class RuntimeCascades : public ::testing::TestWithParam<CascadeCase> {};

TEST_P(RuntimeCascades, WaitIdleIsExactAfterInBatchCascades) {
  // 96 blocks of 2-64 KiB (2 MiB) through 768 KiB of fast tier: tasks
  // wait for room, and the eviction completions that make it (swaps and
  // one-chunk copies, all completed on the thread holding the command)
  // admit them inside the same command batch.  Odd rounds rewrite each
  // block, even rounds read two blocks each, so swaps, deferrals and
  // copies mix.  Every wait_idle must return at exact quiescence.
  const CascadeCase& cc = GetParam();
  auto cfg = small_config(cc.strategy, /*pes=*/2);
  cfg.mem_scale = 1.0 / 16384; // 1 MiB fast / 6 MiB slow arenas
  // The engine may claim 3/4 of the fast arena.  A budget of all of it
  // lets first-fit fragmentation of these mixed sizes abort a migration
  // under sanitizer timing (ROADMAP item 1).
  cfg.tiers = {{cfg.model.fast, 768 * KiB, 1.0}, {cfg.model.slow, 0, 1.0}};
  cfg.evict_by_worker = cc.evict_by_worker;
  cfg.audit = 1;
  if (cc.tenants) {
    serve::TenantDesc lat;
    lat.id = 0;
    lat.name = "lat";
    lat.qos = serve::QosClass::LatencySLO;
    lat.tier_reserve = {0.5};
    serve::TenantDesc batch;
    batch.id = 1;
    batch.name = "batch";
    batch.qos = serve::QosClass::Batch;
    cfg.serve.tenants = {lat, batch};
  }
  Runtime rt(cfg);
  constexpr int kBlocks = 96;
  constexpr int kRounds = 6;
  std::vector<std::unique_ptr<IoHandle<std::uint64_t>>> hs;
  for (int b = 0; b < kBlocks; ++b) {
    const std::uint64_t words = (2 * KiB << (b % 6)) / sizeof(std::uint64_t);
    hs.push_back(std::make_unique<IoHandle<std::uint64_t>>(rt, words));
    for (std::uint64_t i = 0; i < words; ++i) (*hs.back())[i] = b * 7 + i;
  }
  // Block b's word i after the write rounds up to `round`.
  const auto expected = [](int b, std::uint64_t i, int round) {
    std::uint64_t v = b * 7 + i;
    for (int r = 1; r <= round; r += 2) v += r + b;
    return v;
  };
  // A body whose data is not in the fast tier, or not as expected.
  std::atomic<int> stale{0};
  const auto resident = [&rt, fast = cfg.model.fast](const auto& h) {
    return rt.memory().block_tier(h.id()) == fast;
  };
  std::uint64_t sent = 0;
  for (int round = 1; round <= kRounds; ++round) {
    for (int b = 0; b < kBlocks; ++b) {
      auto& h = *hs[static_cast<std::size_t>(b)];
      const std::uint32_t tenant = cc.tenants ? b % 2 : 0;
      if (round % 2 == 1) {
        rt.send_prefetch(b % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                         [&, round, b] {
                           if (!resident(h)) stale.fetch_add(1);
                           for (auto& w : h.span()) w += round + b;
                         },
                         1.0, tenant);
        continue;
      }
      const int b2 = (b + 1) % kBlocks;
      auto& h2 = *hs[static_cast<std::size_t>(b2)];
      rt.send_prefetch(
          b % 2,
          {h.dep(ooc::AccessMode::ReadOnly),
           h2.dep(ooc::AccessMode::ReadOnly)},
          [&, b, b2, round] {
            for (const auto& [blk, bi] : {std::pair{&h, b}, {&h2, b2}}) {
              const std::uint64_t last = blk->size() - 1;
              if (!resident(*blk) || (*blk)[0] != expected(bi, 0, round) ||
                  (*blk)[last] != expected(bi, last, round)) {
                stale.fetch_add(1);
              }
            }
          },
          1.0, tenant);
    }
    sent += kBlocks;
    rt.wait_idle();
    SCOPED_TRACE("round " + std::to_string(round));
    ASSERT_EQ(rt.tasks_executed(), sent);
    const telemetry::AuditReport audit = rt.audit_now();
    EXPECT_TRUE(audit.at_quiescence);
    ASSERT_EQ(audit.violations, std::vector<std::string>{});
    ASSERT_EQ(rt.memory().audit_ledger(), std::vector<std::string>{});
    for (int b = 0; b < kBlocks; ++b) {
      const auto& h = *hs[static_cast<std::size_t>(b)];
      for (std::uint64_t i = 0; i < h.size(); ++i) {
        ASSERT_EQ(h[i], expected(b, i, round)) << "block " << b;
      }
    }
  }
  EXPECT_EQ(stale.load(), 0);
  EXPECT_GT(rt.memory().zero_copy_admissions(), 0u);
  EXPECT_GT(rt.policy_stats().fetches, static_cast<std::uint64_t>(kBlocks));
}

INSTANTIATE_TEST_SUITE_P(
    All, RuntimeCascades,
    ::testing::Values(CascadeCase{"SyncNoIo", ooc::Strategy::SyncNoIo},
                      CascadeCase{"SingleIo", ooc::Strategy::SingleIo},
                      CascadeCase{"MultiIo", ooc::Strategy::MultiIo},
                      CascadeCase{"EvictByWorker", ooc::Strategy::MultiIo,
                                  /*evict_by_worker=*/true},
                      CascadeCase{"TwoTenants", ooc::Strategy::MultiIo,
                                  false, /*tenants=*/true}),
    [](const auto& pi) { return std::string(pi.param.name); });

TEST(RuntimeDeathTest, WriteUnderReadOnlyDependencyFailsCoherenceAudit) {
  // The one contract shadows add: writes go through declared
  // ReadWrite/WriteOnly dependencies.  This body writes under a
  // ReadOnly one, so the slow-tier shadow the fetch left behind is
  // stale when the eager eviction swaps back onto it.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto cfg = small_config(ooc::Strategy::MultiIo);
        cfg.audit = 1;
        Runtime rt(cfg);
        IoHandle<double> h(rt, 8 * KiB);
        for (std::uint64_t i = 0; i < h.size(); ++i) h[i] = 1.0;
        rt.send_prefetch(0, {h.dep(ooc::AccessMode::ReadOnly)},
                         [&h] { h[0] = 2.0; });
        rt.wait_idle();
      },
      "block [0-9]+ .*differs");
}

} // namespace
} // namespace hmr::rt
