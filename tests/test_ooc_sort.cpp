// Tests for the out-of-core external merge sort (dynamic task graph).

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/ooc_sort.hpp"
#include "rt/runtime.hpp"
#include "util/units.hpp"

namespace hmr::apps {
namespace {

rt::Runtime::Config cfg(ooc::Strategy s, int pes = 2) {
  rt::Runtime::Config c;
  c.strategy = s;
  c.num_pes = pes;
  c.mem_scale = 1.0 / 8192; // 2 MiB fast tier
  return c;
}

class SortStrategies : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(SortStrategies, SortsCorrectly) {
  SortParams p;
  p.num_blocks = 16;
  p.elems_per_block = 2048; // 16 KiB blocks, 256 KiB total
  p.fanin = 4;
  rt::Runtime rt(cfg(GetParam(), /*pes=*/4));
  OocSort sorter(rt, p);
  sorter.run();
  EXPECT_TRUE(sorter.verify());
  // 16 blocks, 4-way: 16 -> 4 -> 1 = 2 passes.
  EXPECT_EQ(sorter.passes_executed(), 2);
}

INSTANTIATE_TEST_SUITE_P(
    All, SortStrategies,
    ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::SingleIo,
                      ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo),
    [](const auto& pi) { return ooc::strategy_name(pi.param); });

TEST(OocSort, NonPowerOfFaninBlockCount) {
  SortParams p;
  p.num_blocks = 13; // groups of 4,4,4,1
  p.elems_per_block = 512;
  p.fanin = 4;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo));
  OocSort sorter(rt, p);
  sorter.run();
  EXPECT_TRUE(sorter.verify());
}

TEST(OocSort, BinaryMerge) {
  SortParams p;
  p.num_blocks = 8;
  p.elems_per_block = 256;
  p.fanin = 2;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo));
  OocSort sorter(rt, p);
  sorter.run();
  EXPECT_TRUE(sorter.verify());
  EXPECT_EQ(sorter.passes_executed(), 3); // 8 -> 4 -> 2 -> 1
}

TEST(OocSort, SingleBlockIsTrivial) {
  SortParams p;
  p.num_blocks = 1;
  p.elems_per_block = 1024;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo));
  OocSort sorter(rt, p);
  sorter.run();
  EXPECT_TRUE(sorter.verify());
  EXPECT_EQ(sorter.passes_executed(), 0);
}

TEST(OocSort, WorkingSetOverflowsFastTier) {
  // 32 blocks x 128 KiB = 4 MiB input + outputs vs a 2 MiB fast tier:
  // the merge window (fanin+1 blocks = 640 KiB) is what must fit.
  SortParams p;
  p.num_blocks = 32;
  p.elems_per_block = 16 * 1024;
  p.fanin = 4;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo, /*pes=*/4));
  OocSort sorter(rt, p);
  sorter.run();
  EXPECT_TRUE(sorter.verify());
  const auto st = rt.policy_stats();
  EXPECT_GT(st.fetch_bytes, 8u * MiB); // data streamed multiple times
}

TEST(OocSort, FreesConsumedGenerations) {
  SortParams p;
  p.num_blocks = 16;
  p.elems_per_block = 1024;
  p.fanin = 4;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo));
  // Block storage summed over both tiers: an evicted block's bytes may
  // stay in fast memory until the space is needed (deferred
  // write-back), and shadows are stale copies, not the sort's blocks.
  const auto held = [&rt] {
    std::uint64_t n = 0;
    for (hw::TierId t = 0; t < rt.memory().num_tiers(); ++t) {
      const auto u = rt.memory().usage(t);
      n += u.used - u.shadow;
    }
    return n;
  };
  const auto before = held();
  OocSort sorter(rt, p);
  sorter.run();
  // Only one generation (16 blocks) should remain allocated.
  EXPECT_EQ(held() - before, 16u * 1024 * sizeof(double));
}

} // namespace
} // namespace hmr::apps
