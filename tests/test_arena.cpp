// Unit and property tests for the TierArena free-list allocator.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "mem/arena.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hmr::mem {
namespace {

TEST(TierArena, AllocWithinCapacity) {
  TierArena a("t", 1 * MiB);
  void* p = a.alloc(512 * KiB);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(a.owns(p));
  EXPECT_EQ(a.used(), 512 * KiB);
  a.free(p);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_FALSE(a.owns(p));
}

TEST(TierArena, AllocationsAreAligned) {
  TierArena a("t", 1 * MiB, 64);
  for (std::uint64_t sz : {1ull, 7ull, 63ull, 65ull, 4096ull}) {
    void* p = a.alloc(sz);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  }
}

TEST(TierArena, ReturnsNullWhenFull) {
  TierArena a("t", 256 * KiB);
  void* p1 = a.alloc(128 * KiB);
  void* p2 = a.alloc(128 * KiB);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(a.alloc(64), nullptr);
  a.free(p1);
  EXPECT_NE(a.alloc(64 * KiB), nullptr);
}

TEST(TierArena, CoalescingAllowsFullReuse) {
  TierArena a("t", 1 * MiB);
  std::vector<void*> ps;
  for (int i = 0; i < 16; ++i) {
    void* p = a.alloc(64 * KiB);
    ASSERT_NE(p, nullptr);
    ps.push_back(p);
  }
  // Free in an interleaved order; ranges must coalesce back to one.
  for (int i = 0; i < 16; i += 2) a.free(ps[static_cast<std::size_t>(i)]);
  for (int i = 1; i < 16; i += 2) a.free(ps[static_cast<std::size_t>(i)]);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.largest_free_range(), 1 * MiB);
  EXPECT_NE(a.alloc(1 * MiB), nullptr);
}

TEST(TierArena, HighWaterTracksPeak) {
  TierArena a("t", 1 * MiB);
  void* p = a.alloc(768 * KiB);
  a.free(p);
  (void)a.alloc(64 * KiB);
  EXPECT_EQ(a.high_water(), 768 * KiB);
}

TEST(TierArena, TouchedExtentBoundsNonGrowingAllocs) {
  TierArena a("t", 1 * MiB);
  void* p = a.alloc(64 * KiB);
  EXPECT_EQ(a.touched_extent(), 64 * KiB);
  a.free(p);
  EXPECT_EQ(a.touched_extent(), 64 * KiB); // never shrinks
  // Reusing touched space is allowed; going past it is not.
  void* q = a.alloc(64 * KiB, /*may_grow=*/false);
  EXPECT_EQ(q, p);
  EXPECT_EQ(a.alloc(1, /*may_grow=*/false), nullptr);
  EXPECT_NE(a.alloc(64 * KiB), nullptr);
  EXPECT_EQ(a.touched_extent(), 128 * KiB);
}

TEST(TierArena, FromTopTakesTheHighestFitInsideTheTouchedExtent) {
  TierArena a("t", 1 * MiB);
  auto* base = static_cast<std::byte*>(a.alloc(64 * KiB));
  (void)a.alloc(64 * KiB); // stays between the two holes
  void* top = a.alloc(64 * KiB);
  a.free(base);
  a.free(top);
  // Both holes fit; the high one is taken, flush with the extent.
  EXPECT_EQ(a.alloc(32 * KiB, true, /*from_top=*/true),
            base + 160 * KiB);
  EXPECT_EQ(a.alloc(32 * KiB, true, /*from_top=*/true),
            base + 128 * KiB);
  // Nothing left above mid: the next one fits only in the low hole.
  EXPECT_EQ(a.alloc(64 * KiB, true, /*from_top=*/true), base);
  // No fit within the extent: first fit, growing it.
  EXPECT_EQ(a.alloc(64 * KiB, /*may_grow=*/false, /*from_top=*/true),
            nullptr);
  EXPECT_EQ(a.alloc(64 * KiB, true, /*from_top=*/true), base + 192 * KiB);
  EXPECT_EQ(a.touched_extent(), 256 * KiB);
}

TEST(TierArena, FreeReturnsTheFootprint) {
  TierArena a("t", 1 * MiB);
  EXPECT_EQ(a.footprint(100), 128u);
  EXPECT_EQ(a.free(a.alloc(100)), 128u);
  EXPECT_EQ(a.used(), 0u);
}

TEST(TierArena, ZeroCapacityArenaRejectsAll) {
  TierArena a("empty", 0);
  EXPECT_EQ(a.alloc(1), nullptr);
}

TEST(TierArena, DoubleFreeDies) {
  TierArena a("t", 1 * MiB);
  void* p = a.alloc(1024);
  a.free(p);
  EXPECT_DEATH(a.free(p), "double free");
}

TEST(TierArena, ForeignPointerDies) {
  TierArena a("t", 1 * MiB);
  int x = 0;
  EXPECT_DEATH(a.free(&x), "not from this arena");
}

TEST(TierArena, InteriorPointerDies) {
  TierArena a("t", 1 * MiB);
  void* p = a.alloc(1024);
  EXPECT_DEATH(a.free(static_cast<char*>(p) + 64), "interior");
}

TEST(TierArena, ZeroByteAllocDies) {
  TierArena a("t", 1 * MiB);
  EXPECT_DEATH((void)a.alloc(0), "zero-byte");
}

TEST(TierArena, WritesDoNotOverlap) {
  // Fill two allocations with distinct patterns and verify integrity —
  // catches any overlap bug in offset bookkeeping.
  TierArena a("t", 1 * MiB);
  auto* p1 = static_cast<unsigned char*>(a.alloc(100 * KiB));
  auto* p2 = static_cast<unsigned char*>(a.alloc(100 * KiB));
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  std::memset(p1, 0xAA, 100 * KiB);
  std::memset(p2, 0x55, 100 * KiB);
  for (std::size_t i = 0; i < 100 * KiB; ++i) {
    ASSERT_EQ(p1[i], 0xAA);
    ASSERT_EQ(p2[i], 0x55);
  }
}

// Property sweep: random alloc/free traffic preserves the allocator's
// invariants across size mixes.
class ArenaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArenaFuzz, RandomTrafficKeepsInvariants) {
  const std::uint64_t seed = GetParam();
  TierArena a("fuzz", 4 * MiB);
  Xoshiro256 rng(seed);
  std::vector<std::pair<void*, std::uint64_t>> live;
  std::uint64_t expected_used = 0;

  for (int step = 0; step < 2000; ++step) {
    const bool do_alloc = live.empty() || rng.uniform() < 0.55;
    if (do_alloc) {
      const std::uint64_t sz = 64 * (1 + rng.below(512)); // 64B..32KiB
      void* p = a.alloc(sz);
      if (p != nullptr) {
        const std::uint64_t rounded = (sz + 63) / 64 * 64;
        live.emplace_back(p, rounded);
        expected_used += rounded;
      } else {
        // Failure is only legal if the request cannot fit anywhere.
        EXPECT_LT(a.largest_free_range(), sz);
      }
    } else {
      const std::size_t i = rng.below(live.size());
      a.free(live[i].first);
      expected_used -= live[i].second;
      live[i] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(a.used(), expected_used);
    ASSERT_EQ(a.live_allocations(), live.size());
    ASSERT_LE(a.used(), a.capacity());
  }
  for (auto& [p, sz] : live) a.free(p);
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.largest_free_range(), a.capacity());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArenaFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------- backing regions

TEST(TierArenaBacking, DefaultIsNewDelete) {
  TierArena a("t", 1 * MiB);
  EXPECT_EQ(a.backing(), ArenaBacking::NewDelete);
  EXPECT_STREQ(a.backing_name(), "new[]");
  EXPECT_EQ(a.bound_node(), -1);
}

TEST(TierArenaBacking, MmapRegionAllocatesAndFrees) {
  ArenaOptions opts;
  opts.backing = ArenaBacking::Mmap;
  TierArena a("t", 1 * MiB, 64, opts);
  EXPECT_EQ(a.backing(), ArenaBacking::Mmap);
  EXPECT_STREQ(a.backing_name(), "mmap");
  auto* p = static_cast<unsigned char*>(a.alloc(256 * KiB));
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(a.owns(p));
  std::memset(p, 0xC3, 256 * KiB);
  for (std::size_t i = 0; i < 256 * KiB; i += 4096) ASSERT_EQ(p[i], 0xC3);
  a.free(p);
  EXPECT_EQ(a.used(), 0u);
}

TEST(TierArenaBacking, MmapFallsBackWhenAlignmentExceedsPage) {
  // mmap only guarantees page alignment; a larger arena alignment has
  // to fall back to aligned operator new rather than hand out slots
  // that violate the alignment contract.
  ArenaOptions opts;
  opts.backing = ArenaBacking::Mmap;
  TierArena a("t", 1 * MiB, 1u << 20, opts);
  EXPECT_EQ(a.backing(), ArenaBacking::NewDelete);
  void* p = a.alloc(64 * KiB);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % (1u << 20), 0u);
  a.free(p);
}

TEST(TierArenaBacking, NumaBindRequestIsGracefulWithoutLibnuma) {
  // numa_node >= 0 without libnuma (or on a single-node host) must
  // still produce a working arena; the binding is best-effort.
  ArenaOptions opts;
  opts.backing = ArenaBacking::Mmap;
  opts.numa_node = 0;
  TierArena a("t", 1 * MiB, 64, opts);
  void* p = a.alloc(64 * KiB);
  ASSERT_NE(p, nullptr);
  a.free(p);
#if !defined(HMR_HAVE_NUMA)
  EXPECT_EQ(a.bound_node(), -1);
#endif
}

TEST(TierArenaBacking, LargestFreeRangeIndexSurvivesMmapTraffic) {
  ArenaOptions opts;
  opts.backing = ArenaBacking::Mmap;
  TierArena a("t", 4 * MiB, 64, opts);
  Xoshiro256 rng(99);
  std::vector<void*> live;
  for (int step = 0; step < 500; ++step) {
    if (live.empty() || rng.uniform() < 0.6) {
      if (void* p = a.alloc(64 * (1 + rng.below(256)))) live.push_back(p);
    } else {
      const std::size_t i = rng.below(live.size());
      a.free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) a.free(p);
  EXPECT_EQ(a.largest_free_range(), a.capacity());
}

} // namespace
} // namespace hmr::mem
