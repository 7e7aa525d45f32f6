// Tests for the MemoryManager: numa-style allocation, block registry,
// migration (alloc + memcpy + free), pooling, and concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "mem/memory_manager.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace hmr::mem {
namespace {

MemoryManager make_two_tier(bool pool = false) {
  return MemoryManager({{"DDR4", 8 * MiB}, {"MCDRAM", 2 * MiB}}, pool);
}

/// One copy-free migration attempt: a batch of one.
bool try_swap(MemoryManager& mm, BlockId b, TierId dst,
              bool copy_contents = true) {
  SwapRequest q{b, dst, copy_contents, false, 0};
  return mm.try_swap_batch({&q, 1}) == 1 && q.ok;
}

TEST(MemoryManager, RawAllocRespectsTierCapacity) {
  auto mm = make_two_tier();
  void* p = mm.alloc_on_tier(1 * MiB, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(mm.alloc_on_tier(2 * MiB, 1), nullptr); // fast tier full
  EXPECT_NE(mm.alloc_on_tier(2 * MiB, 0), nullptr); // slow tier has room
  mm.free_on_tier(p, 1);
  EXPECT_EQ(mm.usage(1).used, 0u);
}

TEST(MemoryManager, FromModelScalesCapacities) {
  const auto model = hw::knl_flat_all_to_all();
  auto mm = MemoryManager::from_model(model, 1.0 / 1024);
  EXPECT_EQ(mm.usage(model.fast).capacity, 16 * MiB);
  EXPECT_EQ(mm.usage(model.slow).capacity, 96 * MiB);
}

TEST(MemoryManager, RegisterAndQueryBlock) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_NE(b, kInvalidBlock);
  EXPECT_EQ(mm.block_bytes(b), 256 * KiB);
  EXPECT_EQ(mm.block_tier(b), 0u);
  EXPECT_NE(mm.block_ptr(b), nullptr);
  mm.unregister_block(b);
}

TEST(MemoryManager, RegisterFailsWhenTierFull) {
  auto mm = make_two_tier();
  EXPECT_EQ(mm.register_block(4 * MiB, 1), kInvalidBlock);
}

TEST(MemoryManager, MigratePreservesContents) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(128 * KiB, 0);
  auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
  Xoshiro256 rng(3);
  std::vector<unsigned char> pattern(128 * KiB);
  for (auto& c : pattern) c = static_cast<unsigned char>(rng());
  std::memcpy(p, pattern.data(), pattern.size());

  const auto r = mm.migrate(b, 1);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(mm.block_tier(b), 1u);
  auto* q = static_cast<unsigned char*>(mm.block_ptr(b));
  EXPECT_NE(q, p);
  EXPECT_EQ(std::memcmp(q, pattern.data(), pattern.size()), 0);

  // Round trip back.
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(std::memcmp(mm.block_ptr(b), pattern.data(), pattern.size()), 0);
}

TEST(MemoryManager, MigrateMovesCapacityAccounting) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(512 * KiB, 0);
  EXPECT_EQ(mm.usage(0).used, 512 * KiB);
  EXPECT_EQ(mm.usage(1).used, 0u);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_EQ(mm.usage(0).used, 0u);
  EXPECT_EQ(mm.usage(1).used, 512 * KiB);
}

TEST(MemoryManager, MigrateToFullTierFailsCleanly) {
  auto mm = make_two_tier();
  const BlockId filler = mm.register_block(2 * MiB, 1);
  ASSERT_NE(filler, kInvalidBlock);
  const BlockId b = mm.register_block(512 * KiB, 0);
  const auto r = mm.migrate(b, 1);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(mm.block_tier(b), 0u); // untouched
  EXPECT_EQ(mm.usage(0).used, 512 * KiB);
}

TEST(MemoryManager, MigrateToSameTierIsNoop) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  void* before = mm.block_ptr(b);
  const auto r = mm.migrate(b, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(mm.block_ptr(b), before);
}

TEST(MemoryManager, MigrationStatsTracked) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(mm.migration_stats(0, 1).count, 1u);
  EXPECT_EQ(mm.migration_stats(0, 1).bytes, 64 * KiB);
  EXPECT_EQ(mm.migration_stats(1, 0).count, 1u);
}

TEST(MemoryManager, PoolReusesBuffers) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok); // slow buffer parked in pool
  EXPECT_EQ(mm.usage(0).pooled, 256 * KiB);
  const auto r = mm.migrate(b, 0); // should hit the pool
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.pooled);
}

TEST(MemoryManager, PooledBytesOccupyCapacity) {
  auto mm = make_two_tier(/*pool=*/true);
  const BlockId b = mm.register_block(1 * MiB, 1);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  // The fast-tier buffer is parked, still holding capacity.
  EXPECT_EQ(mm.usage(1).pooled, 1 * MiB);
  EXPECT_EQ(mm.usage(1).used, 1 * MiB);
  mm.trim_pools();
  EXPECT_EQ(mm.usage(1).pooled, 0u);
  EXPECT_EQ(mm.usage(1).used, 0u);
}

TEST(MemoryManager, ConcurrentMigrationsOfDistinctBlocks) {
  MemoryManager mm({{"DDR4", 32 * MiB}, {"MCDRAM", 32 * MiB}}, false);
  constexpr int kBlocks = 16;
  std::vector<BlockId> ids;
  for (int i = 0; i < kBlocks; ++i) {
    const BlockId b = mm.register_block(256 * KiB, 0);
    ASSERT_NE(b, kInvalidBlock);
    auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
    std::memset(p, i + 1, 256 * KiB);
    ids.push_back(b);
  }
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = t; i < kBlocks; i += 4) {
        const BlockId b = ids[static_cast<std::size_t>(i)];
        for (int round = 0; round < 8; ++round) {
          ASSERT_TRUE(mm.migrate(b, 1).ok);
          ASSERT_TRUE(mm.migrate(b, 0).ok);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kBlocks; ++i) {
    auto* p = static_cast<unsigned char*>(
        mm.block_ptr(ids[static_cast<std::size_t>(i)]));
    for (std::size_t j = 0; j < 256 * KiB; j += 4096) {
      ASSERT_EQ(p[j], i + 1);
    }
  }
}

// ------------------------------------------------ zero-copy admission

TEST(MemoryManagerZeroCopy, RoundTripMigrationBecomesSwap) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(256 * KiB, 0);
  auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
  std::memset(p, 0x5A, 256 * KiB);

  // First hop copies (no shadow yet) but retains the source buffer.
  const auto up = mm.migrate(b, 1);
  ASSERT_TRUE(up.ok);
  EXPECT_FALSE(up.zero_copy);
  EXPECT_EQ(mm.usage(0).shadow, 256 * KiB);

  // The hop back lands where the shadow lives: pointer swap, no copy.
  const auto down = mm.migrate(b, 0);
  ASSERT_TRUE(down.ok);
  EXPECT_TRUE(down.zero_copy);
  EXPECT_EQ(mm.zero_copy_admissions(), 1u);
  EXPECT_EQ(mm.zero_copy_bytes(), 256 * KiB);

  // Data must be byte-identical through the swap.
  p = static_cast<unsigned char*>(mm.block_ptr(b));
  for (std::size_t i = 0; i < 256 * KiB; i += 997) ASSERT_EQ(p[i], 0x5A);

  // Ping-pong stays zero-copy: the displaced buffer is the new shadow.
  EXPECT_TRUE(mm.migrate(b, 1).zero_copy);
  EXPECT_TRUE(mm.migrate(b, 0).zero_copy);
  EXPECT_EQ(mm.zero_copy_admissions(), 3u);
}

TEST(MemoryManagerZeroCopy, LogicalStatsMatchCopyingRun) {
  // The equivalence contract: migration_stats() counts logical moves,
  // so a zero-copy run reports exactly what the copying run would.
  auto run = [](bool zc) {
    auto mm = make_two_tier();
    mm.set_zero_copy(zc);
    const BlockId b = mm.register_block(128 * KiB, 0);
    for (int i = 0; i < 4; ++i) {
      EXPECT_TRUE(mm.migrate(b, 1).ok);
      EXPECT_TRUE(mm.migrate(b, 0).ok);
    }
    return std::pair{mm.migration_stats(0, 1), mm.migration_stats(1, 0)};
  };
  const auto off = run(false);
  const auto on = run(true);
  EXPECT_EQ(off.first.count, on.first.count);
  EXPECT_EQ(off.first.bytes, on.first.bytes);
  EXPECT_EQ(off.second.count, on.second.count);
  EXPECT_EQ(off.second.bytes, on.second.bytes);
}

TEST(MemoryManagerZeroCopy, MarkDirtyInvalidatesShadow) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  std::memset(mm.block_ptr(b), 1, 64 * KiB);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_EQ(mm.usage(0).shadow, 64 * KiB);

  // A write makes the shadow stale; the next hop must copy.
  std::memset(mm.block_ptr(b), 2, 64 * KiB);
  mm.mark_dirty(b);
  EXPECT_EQ(mm.shadow_invalidations(), 1u);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  const auto down = mm.migrate(b, 0);
  ASSERT_TRUE(down.ok);
  EXPECT_FALSE(down.zero_copy);
  EXPECT_EQ(static_cast<unsigned char*>(mm.block_ptr(b))[0], 2);
}

TEST(MemoryManagerZeroCopy, MarkDirtyWithoutShadowIsANoop) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  mm.mark_dirty(b);
  EXPECT_EQ(mm.shadow_invalidations(), 0u);
}

TEST(MemoryManagerZeroCopy, ShadowsAreReclaimedUnderPressure) {
  // Fast tier: 2 MiB.  Park a 1 MiB shadow there, then demand more
  // fast memory than remains free — the shadow must be sacrificed
  // rather than failing the allocation.
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId a = mm.register_block(1 * MiB, 1);
  ASSERT_TRUE(mm.migrate(a, 0).ok); // leaves a 1 MiB shadow on fast
  ASSERT_EQ(mm.usage(1).shadow, 1 * MiB);

  const BlockId b = mm.register_block(1536 * KiB, 1);
  ASSERT_NE(b, kInvalidBlock);
  EXPECT_EQ(mm.usage(1).shadow, 0u); // reclaimed to make room
  EXPECT_GE(mm.shadow_invalidations(), 1u);
  mm.unregister_block(b);
  mm.unregister_block(a);
}

TEST(MemoryManagerZeroCopy, UnregisterFreesShadowCapacity) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(512 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_EQ(mm.usage(0).shadow, 512 * KiB);
  mm.unregister_block(b);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  EXPECT_EQ(mm.usage(0).used, 0u);
  EXPECT_EQ(mm.usage(1).used, 0u);
}

TEST(MemoryManagerZeroCopy, DisabledManagerNeverRetains) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(128 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  ASSERT_TRUE(mm.migrate(b, 0).ok);
  EXPECT_EQ(mm.zero_copy_admissions(), 0u);
  EXPECT_EQ(mm.usage(0).shadow, 0u);
  EXPECT_EQ(mm.usage(1).shadow, 0u);
}

TEST(MemoryManagerZeroCopy, ShadowsStayWithinTheTouchedExtent) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId a = mm.register_block(256 * KiB, 0);
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_TRUE(mm.migrate(a, 1).ok);
  ASSERT_TRUE(mm.migrate(a, 0).zero_copy); // a's fast copy stays behind
  ASSERT_EQ(mm.usage(1).shadow, 256 * KiB);

  // b's fetch would have to grow the fast tier's touched extent past
  // a's shadow: the shadow yields and b reuses its space.
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_EQ(mm.usage(1).shadow, 0u);
  EXPECT_EQ(mm.tier_arena(1).touched_extent(), 256 * KiB);
  EXPECT_EQ(mm.usage(1).high_water, 256 * KiB);
  EXPECT_EQ(mm.usage(1).live_blocks, 1u);

  // Shadows inside the touched extent survive: with both blocks once
  // resident, a's round trip leaves b's shadow alone.
  ASSERT_TRUE(mm.migrate(a, 1).ok);
  ASSERT_TRUE(mm.migrate(b, 0).zero_copy);
  ASSERT_TRUE(mm.migrate(a, 0).zero_copy);
  EXPECT_EQ(mm.usage(1).shadow, 512 * KiB);
  EXPECT_TRUE(mm.migrate(a, 1).zero_copy);
  EXPECT_EQ(mm.usage(1).shadow, 256 * KiB);
  EXPECT_EQ(mm.tier_arena(1).touched_extent(), 512 * KiB);
}

TEST(MemoryManagerZeroCopy, LiveBlocksCountsPrimariesOnly) {
  auto mm = make_two_tier(/*pool=*/true);
  mm.set_zero_copy(true);
  const BlockId a = mm.register_block(64 * KiB, 0);
  const BlockId b = mm.register_block(64 * KiB, 0);
  ASSERT_TRUE(mm.migrate(a, 1).ok);
  mm.mark_dirty(a); // a's slow shadow goes to the slow pool
  EXPECT_EQ(mm.usage(0).live_blocks, 1u);
  EXPECT_GT(mm.usage(0).pooled, 0u);
  EXPECT_EQ(mm.usage(1).live_blocks, 1u);
  ASSERT_TRUE(mm.migrate(a, 0).ok); // a's fast buffer stays as a shadow
  EXPECT_EQ(mm.usage(0).live_blocks, 2u);
  EXPECT_EQ(mm.usage(1).live_blocks, 0u);
  EXPECT_EQ(mm.usage(1).shadow, 64 * KiB);
  mm.unregister_block(a);
  mm.unregister_block(b);
  EXPECT_EQ(mm.usage(0).live_blocks, 0u);
}

TEST(MemoryManagerZeroCopy, CoherenceAuditNamesTheBlock) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  mm.set_shadow_audit(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  std::memset(mm.block_ptr(b), 1, 64 * KiB);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_TRUE(mm.migrate(b, 0).zero_copy); // clean: the audit passes
  ASSERT_TRUE(mm.migrate(b, 1).zero_copy);
  // A write nobody declared: the shadow left on tier 0 is now stale.
  static_cast<unsigned char*>(mm.block_ptr(b))[100] = 2;
  EXPECT_DEATH((void)mm.migrate(b, 0), "block 0 .*differs");
}

TEST(MemoryManagerZeroCopy, TrySwapDoesNothingWithoutAShadow) {
  auto mm = make_two_tier();
  mm.set_zero_copy(true);
  const BlockId b = mm.register_block(64 * KiB, 0);
  EXPECT_FALSE(try_swap(mm, b, 1));
  EXPECT_EQ(mm.block_tier(b), 0u);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_FALSE(try_swap(mm, b, 1)); // already there, shadow elsewhere
  EXPECT_TRUE(try_swap(mm, b, 0));
  EXPECT_EQ(mm.block_tier(b), 0u);
  EXPECT_EQ(mm.migration_stats(1, 0).count, 1u);
}

TEST(MemoryManagerConcurrency, ReclaimRaceNeverFailsAMigration) {
  // Regression: a reclaim pass used to retry its allocation only when
  // it had freed something itself, so a thread that found the shadows
  // already unlinked by another (not yet freed) failed with the space
  // about to come free.  Equal-size blocks rule out fragmentation:
  // every migration must succeed.  Two groups of blocks take turns in
  // a fast tier that the other group's shadows fill completely.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 4;
  constexpr int kGroup = kThreads * kPerThread;
  constexpr std::uint64_t kBytes = 64 * KiB;
  MemoryManager mm({{"DDR4", 2 * kGroup * kBytes},
                    {"MCDRAM", kGroup * kBytes}});
  mm.set_zero_copy(true);
  std::vector<BlockId> ids;
  for (int i = 0; i < 2 * kGroup; ++i) {
    ids.push_back(mm.register_block(kBytes, 0));
    ASSERT_NE(ids.back(), kInvalidBlock);
  }
  std::atomic<int> failures{0};
  std::atomic<int> arrived{0};
  auto barrier = [&](int phase) {
    arrived.fetch_add(1);
    while (arrived.load() < kThreads * phase) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      int phase = 0;
      for (int round = 0; round < 64; ++round) {
        const int base = (round % 2) * kGroup + t * kPerThread;
        for (TierId dst : {TierId{1}, TierId{0}}) {
          for (int j = 0; j < kPerThread; ++j) {
            if (!mm.migrate(ids[static_cast<std::size_t>(base + j)], dst)
                     .ok) {
              failures.fetch_add(1);
            }
          }
          barrier(++phase);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(mm.shadow_invalidations(), 0u);
  EXPECT_EQ(mm.usage(1).live_blocks, 0u);
}

// ------------------------------------------------ deferred write-back

/// Zero-copy with deferral into tier 0 (DDR4), the bottom tier.
void defer_into_ddr(MemoryManager& mm) {
  mm.set_zero_copy(true);
  mm.set_write_back_tier(0);
}

void fill(MemoryManager& mm, BlockId b, unsigned char v) {
  std::memset(mm.block_ptr(b), v, mm.block_bytes(b));
  mm.mark_dirty(b);
}

bool holds(MemoryManager& mm, BlockId b, unsigned char v) {
  const auto* p = static_cast<const unsigned char*>(mm.block_ptr(b));
  for (std::uint64_t i = 0; i < mm.block_bytes(b); ++i) {
    if (p[i] != v) return false;
  }
  return true;
}

TEST(MemoryManagerDeferred, DeferThenFetchBackMovesZeroBytes) {
  auto mm = make_two_tier();
  defer_into_ddr(mm);
  const BlockId b = mm.register_block(64 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok); // a copying fetch
  fill(mm, b, 7);                   // written: no shadow left
  void* fast = mm.block_ptr(b);

  const MigrateResult out = mm.migrate(b, 0);
  EXPECT_TRUE(out.ok && out.zero_copy);
  EXPECT_EQ(out.copy_s, 0.0);
  EXPECT_EQ(mm.block_tier(b), 0u);
  EXPECT_EQ(mm.block_ptr(b), fast); // the bytes stayed in fast memory
  EXPECT_EQ(mm.usage(1).deferred, 64 * KiB);
  EXPECT_EQ(mm.usage(1).live_blocks, 0u);
  EXPECT_EQ(mm.usage(0).live_blocks, 1u);
  EXPECT_TRUE(mm.audit_ledger().empty());

  EXPECT_TRUE(try_swap(mm, b, 1)); // a fetch back
  EXPECT_EQ(mm.block_ptr(b), fast);
  EXPECT_EQ(mm.block_tier(b), 1u);
  EXPECT_EQ(mm.usage(1).deferred, 0u);
  EXPECT_TRUE(holds(mm, b, 7));
  EXPECT_EQ(mm.deferrals(), 1u);
  EXPECT_EQ(mm.write_backs(), 0u);
  EXPECT_EQ(mm.zero_copy_bytes(), 128 * KiB);
  // The logical traffic is counted as if both migrations copied.
  EXPECT_EQ(mm.migration_stats(1, 0).count, 1u);
  EXPECT_EQ(mm.migration_stats(0, 1).count, 2u);
  EXPECT_TRUE(mm.audit_ledger().empty());
}

TEST(MemoryManagerDeferred, GrowsBeforeWritingBack) {
  auto mm = make_two_tier();
  defer_into_ddr(mm);
  // d ends up deferred in fast memory and s as a clean shadow there;
  // together they fill the fast tier's 1 MiB touched extent.
  const BlockId d = mm.register_block(512 * KiB, 0);
  const BlockId s = mm.register_block(512 * KiB, 0);
  ASSERT_TRUE(mm.migrate(d, 1).ok);
  ASSERT_TRUE(mm.migrate(s, 1).ok);
  fill(mm, d, 0xCD);
  ASSERT_TRUE(mm.migrate(d, 0).zero_copy); // deferred
  ASSERT_TRUE(mm.migrate(s, 0).zero_copy); // swapped onto its shadow
  ASSERT_EQ(mm.usage(1).shadow, 512 * KiB);
  ASSERT_EQ(mm.usage(1).deferred, 512 * KiB);
  ASSERT_EQ(mm.tier_arena(1).touched_extent(), 1 * MiB);

  // Dropping the shadow makes room: no write-back, no growth.
  const BlockId x = mm.register_block(512 * KiB, 1);
  ASSERT_NE(x, kInvalidBlock);
  EXPECT_EQ(mm.usage(1).shadow, 0u);
  EXPECT_EQ(mm.usage(1).deferred, 512 * KiB);
  EXPECT_EQ(mm.write_backs(), 0u);
  EXPECT_EQ(mm.tier_arena(1).touched_extent(), 1 * MiB);

  // No shadow left: y grows the extent and d stays deferred.
  const BlockId y = mm.register_block(512 * KiB, 1);
  ASSERT_NE(y, kInvalidBlock);
  EXPECT_EQ(mm.write_backs(), 0u);
  EXPECT_EQ(mm.usage(1).deferred, 512 * KiB);
  EXPECT_EQ(mm.tier_arena(1).touched_extent(), 1536 * KiB);
  EXPECT_EQ(mm.block_tier(d), 0u);
  EXPECT_TRUE(mm.tier_arena(1).owns(mm.block_ptr(d)));

  // z takes the tier to capacity by growing; only w, which finds no
  // room even at capacity, writes d back and takes its space.
  const BlockId z = mm.register_block(512 * KiB, 1);
  ASSERT_NE(z, kInvalidBlock);
  EXPECT_EQ(mm.write_backs(), 0u);
  EXPECT_EQ(mm.tier_arena(1).touched_extent(), 2 * MiB);
  const BlockId w = mm.register_block(512 * KiB, 1);
  ASSERT_NE(w, kInvalidBlock);
  EXPECT_EQ(mm.write_backs(), 1u);
  EXPECT_EQ(mm.write_back_bytes(), 512 * KiB);
  EXPECT_EQ(mm.usage(1).deferred, 0u);
  EXPECT_EQ(mm.usage(1).used, 2 * MiB);
  EXPECT_EQ(mm.block_tier(d), 0u);
  EXPECT_TRUE(mm.tier_arena(0).owns(mm.block_ptr(d)));
  EXPECT_TRUE(holds(mm, d, 0xCD));
  EXPECT_TRUE(mm.audit_ledger().empty());
  // A write-back is no migration: the traffic stats do not see it.
  EXPECT_EQ(mm.migration_stats(1, 0).count, 2u);
}

TEST(MemoryManagerDeferred, MixedSizesSettleWithoutWriteBacks) {
  // The shape of perfbench's tenant_mix on a bare MemoryManager.  Each
  // round, two "PEs" each fetch a clean 1 MiB input and a 1 MiB output,
  // and while those are held run eight short tasks on 16 KiB latency
  // blocks (fetch, write, evict).  The latency blocks defer; 1 MiB
  // blocks never do (chunk threshold).  Writing back every deferred
  // block whenever a 1 MiB allocation missed the touched extent made a
  // cycle: the written-back latency blocks came back by copy, first fit
  // from the bottom, and split the hole the next round's 1 MiB block
  // needed, so the extent never grew and every round wrote back again.
  constexpr int kPes = 2;
  constexpr int kLatPerPe = 8;
  constexpr std::size_t kLat = 64;
  constexpr std::size_t kBatch = 8;
  MemoryManager mm({{"DDR4", 48 * MiB}, {"MCDRAM", 16 * MiB}});
  defer_into_ddr(mm);
  mm.set_chunked_copy(/*threshold=*/1 * MiB, /*chunk=*/256 * KiB);
  std::vector<BlockId> lat, in, out;
  for (std::size_t i = 0; i < kLat; ++i) {
    lat.push_back(mm.register_block(16 * KiB, 0));
    fill(mm, lat.back(), 0);
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    in.push_back(mm.register_block(1 * MiB, 0));
    fill(mm, in.back(), static_cast<unsigned char>(1 + i));
    out.push_back(mm.register_block(1 * MiB, 0));
    fill(mm, out.back(), 0);
  }
  std::vector<unsigned char> lat_val(kLat, 0), out_val(kBatch, 0);
  constexpr int kRounds = 50;
  constexpr int kSettle = 5;
  std::uint64_t settled = 0;
  for (int r = 0; r < kRounds; ++r) {
    if (r == kSettle) settled = mm.write_backs();
    std::vector<BlockId> held;
    for (int pe = 0; pe < kPes; ++pe) {
      const std::size_t bi = static_cast<std::size_t>(2 * r + pe) % kBatch;
      const std::size_t bo = (bi + static_cast<std::size_t>(r)) % kBatch;
      ASSERT_TRUE(mm.migrate(in[bi], 1).ok) << "round " << r;
      ASSERT_TRUE(mm.migrate(out[bo], 1).ok) << "round " << r;
      out_val[bo] = static_cast<unsigned char>(out_val[bo] + 1 + bi);
      fill(mm, out[bo], out_val[bo]);
      held.insert(held.end(), {in[bi], out[bo]});
      for (int t = 0; t < kLatPerPe; ++t) {
        const std::size_t li =
            static_cast<std::size_t>(pe) * (kLat / kPes) +
            static_cast<std::size_t>(r * kLatPerPe + t) % (kLat / kPes);
        ASSERT_TRUE(mm.migrate(lat[li], 1).ok) << "round " << r;
        lat_val[li] = static_cast<unsigned char>(lat_val[li] + 1);
        fill(mm, lat[li], lat_val[li]);
        ASSERT_TRUE(mm.migrate(lat[li], 0).ok) << "round " << r;
      }
    }
    for (const BlockId b : held) ASSERT_TRUE(mm.migrate(b, 0).ok);
    ASSERT_TRUE(mm.audit_ledger().empty()) << "round " << r;
  }
  EXPECT_EQ(mm.write_backs(), settled) << "write-backs after round "
                                       << kSettle;
  EXPECT_GT(mm.deferrals(), 0u);
  for (std::size_t i = 0; i < kLat; ++i) {
    EXPECT_TRUE(holds(mm, lat[i], lat_val[i])) << "latency block " << i;
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    EXPECT_TRUE(holds(mm, in[i], static_cast<unsigned char>(1 + i)));
    EXPECT_TRUE(holds(mm, out[i], out_val[i])) << "output block " << i;
  }
}

TEST(MemoryManagerDeferred, UnregisterFreesTheDeferredBuffer) {
  auto mm = make_two_tier();
  defer_into_ddr(mm);
  const BlockId b = mm.register_block(256 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  fill(mm, b, 1);
  ASSERT_TRUE(mm.migrate(b, 0).zero_copy);
  ASSERT_EQ(mm.usage(1).deferred, 256 * KiB);
  mm.unregister_block(b);
  EXPECT_EQ(mm.usage(1).deferred, 0u);
  EXPECT_EQ(mm.usage(1).used, 0u);
  EXPECT_EQ(mm.usage(0).used, 0u);
  EXPECT_EQ(mm.usage(0).live_blocks, 0u);
  EXPECT_TRUE(mm.audit_ledger().empty());
}

TEST(MemoryManagerDeferred, ZeroCopyOffOrChunkSizedBlocksNeverDefer) {
  {
    auto mm = make_two_tier();
    mm.set_write_back_tier(0); // zero-copy stays off
    const BlockId b = mm.register_block(64 * KiB, 0);
    ASSERT_TRUE(mm.migrate(b, 1).ok);
    fill(mm, b, 3);
    const MigrateResult r = mm.migrate(b, 0);
    EXPECT_TRUE(r.ok);
    EXPECT_FALSE(r.zero_copy);
    EXPECT_TRUE(mm.tier_arena(0).owns(mm.block_ptr(b)));
    EXPECT_TRUE(holds(mm, b, 3));
    EXPECT_EQ(mm.deferrals(), 0u);
    EXPECT_EQ(mm.usage(1).used, 0u);
  }
  auto mm = make_two_tier();
  defer_into_ddr(mm);
  mm.set_chunked_copy(/*threshold=*/256 * KiB, /*chunk=*/64 * KiB);
  const BlockId big = mm.register_block(256 * KiB, 0);
  const BlockId small = mm.register_block(128 * KiB, 0);
  for (const BlockId b : {big, small}) {
    ASSERT_TRUE(mm.migrate(b, 1).ok);
    fill(mm, b, 5);
  }
  const MigrateResult r = mm.migrate(big, 0);
  EXPECT_TRUE(r.ok && r.chunked);
  EXPECT_FALSE(r.zero_copy);
  EXPECT_TRUE(mm.tier_arena(0).owns(mm.block_ptr(big)));
  EXPECT_TRUE(holds(mm, big, 5));
  EXPECT_EQ(mm.deferrals(), 0u);
  EXPECT_TRUE(mm.migrate(small, 0).zero_copy); // just under: defers
  EXPECT_EQ(mm.deferrals(), 1u);
  EXPECT_TRUE(mm.audit_ledger().empty());
}

TEST(MemoryManagerDeferred, PromotionToAThirdTierCopiesFromTheBytes) {
  // DDR4 (0), MCDRAM (1) and a bottom NVM tier (2).
  MemoryManager mm(
      {{"DDR4", 4 * MiB}, {"MCDRAM", 2 * MiB}, {"NVM", 8 * MiB}});
  mm.set_zero_copy(true);
  mm.set_write_back_tier(2);
  const BlockId b = mm.register_block(128 * KiB, 2);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  fill(mm, b, 9);
  ASSERT_TRUE(mm.migrate(b, 2).zero_copy); // deferred, bytes on MCDRAM
  ASSERT_EQ(mm.usage(1).deferred, 128 * KiB);

  const MigrateResult r = mm.migrate(b, 0);
  EXPECT_TRUE(r.ok);
  EXPECT_FALSE(r.zero_copy);
  EXPECT_EQ(mm.block_tier(b), 0u);
  EXPECT_TRUE(mm.tier_arena(0).owns(mm.block_ptr(b)));
  EXPECT_TRUE(holds(mm, b, 9));
  // The MCDRAM bytes it copied from stay behind as a clean shadow; the
  // NVM tier never held them.
  EXPECT_EQ(mm.usage(1).deferred, 0u);
  EXPECT_EQ(mm.usage(1).shadow, 128 * KiB);
  EXPECT_EQ(mm.usage(2).used, 0u);
  EXPECT_EQ(mm.migration_stats(2, 0).count, 1u);
  EXPECT_TRUE(mm.audit_ledger().empty());
  EXPECT_TRUE(mm.migrate(b, 1).zero_copy); // swaps onto that shadow
  EXPECT_TRUE(holds(mm, b, 9));
  EXPECT_TRUE(mm.audit_ledger().empty());
}

TEST(MemoryManagerDeferred, LedgerAuditCatchesAnUnaccountedBuffer) {
  auto mm = make_two_tier();
  defer_into_ddr(mm);
  const BlockId b = mm.register_block(64 * KiB, 0);
  ASSERT_TRUE(mm.migrate(b, 1).ok);
  EXPECT_TRUE(mm.audit_ledger().empty());
  // A raw allocation is accounted; a stray arena allocation is not.
  void* raw = mm.alloc_on_tier(4 * KiB, 1);
  EXPECT_TRUE(mm.audit_ledger().empty());
  mm.free_on_tier(raw, 1);
  // Only a bypass of the MemoryManager can leak one; simulate it.
  const_cast<TierArena&>(mm.tier_arena(1)).alloc(4 * KiB);
  const auto v = mm.audit_ledger();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("arena used"), std::string::npos) << v[0];
}

// ------------------------------------------------------- batched swaps

/// Where a block's bytes are, comparable across two managers built the
/// same way: the owning tier and the offset from that tier's anchor (a
/// block registered first on it, never moved; arenas place first fit).
struct Residence {
  TierId tier = 0;
  std::ptrdiff_t offset = 0;
  bool operator==(const Residence&) const = default;
};

TEST(MemoryManagerZeroCopy, BatchSwapMatchesOneByOne) {
  enum : int { kSwapDown, kFetchBack, kDefer, kNoCopy, kMiss, kHere, kSwapUp };
  constexpr int kCases = 7;
  const auto build = [](MemoryManager& mm, std::vector<BlockId>& ids,
                        std::vector<SwapRequest>& reqs) {
    defer_into_ddr(mm);
    std::vector<unsigned char*> anchors;
    for (TierId t : {TierId{0}, TierId{1}}) {
      anchors.push_back(
          static_cast<unsigned char*>(mm.block_ptr(mm.register_block(4 * KiB, t))));
    }
    ids.clear();
    for (int c = 0; c < kCases; ++c) {
      const BlockId b = mm.register_block((c + 1) * 16 * KiB, 0);
      fill(mm, b, static_cast<unsigned char>(c + 1));
      ids.push_back(b);
    }
    // Every copy first: a later allocation could reclaim the shadows
    // and write back the deferred bytes set up below.  Each leaves a
    // shadow on tier 0.
    for (int c : {kSwapDown, kNoCopy, kFetchBack, kDefer, kHere, kSwapUp}) {
      EXPECT_TRUE(mm.migrate(ids[c], 1).ok);
    }
    // Bytes deferred on tier 1 while the block is logically on 0.
    mm.mark_dirty(ids[kFetchBack]);
    EXPECT_TRUE(mm.migrate(ids[kFetchBack], 0).zero_copy);
    // Dirty on tier 1: its eviction into tier 0 defers.
    mm.mark_dirty(ids[kDefer]);
    // Shadow on tier 1.
    EXPECT_TRUE(mm.migrate(ids[kSwapUp], 0).zero_copy);
    reqs = {{ids[kSwapDown], 0, true, false, 0},
            {ids[kFetchBack], 1, true, false, 0},
            {ids[kDefer], 0, true, false, 0},
            {ids[kNoCopy], 0, false, false, 0},
            {ids[kMiss], 1, true, false, 0}, // no shadow, not write-back
            {ids[kHere], 1, true, false, 0},
            {ids[kSwapUp], 1, true, false, 0}};
    return anchors;
  };
  const auto residence = [](MemoryManager& mm,
                            const std::vector<unsigned char*>& anchors,
                            BlockId b) {
    const auto* p = static_cast<unsigned char*>(mm.block_ptr(b));
    for (TierId t = 0; t < 2; ++t) {
      if (mm.tier_arena(t).owns(p)) return Residence{t, p - anchors[t]};
    }
    ADD_FAILURE() << "block " << b << " lives in no arena";
    return Residence{};
  };

  auto one = make_two_tier();
  std::vector<BlockId> ids_one;
  std::vector<SwapRequest> reqs_one;
  const auto anchors_one = build(one, ids_one, reqs_one);
  for (SwapRequest& q : reqs_one) {
    q.ok = try_swap(one, q.block, q.dst, q.copy_contents);
  }

  auto batch = make_two_tier();
  std::vector<BlockId> ids;
  std::vector<SwapRequest> reqs;
  const auto anchors = build(batch, ids, reqs);
  EXPECT_EQ(batch.try_swap_batch(reqs), 5u);

  const std::vector<bool> want = {true, true, true, true, false, false, true};
  for (int c = 0; c < kCases; ++c) {
    EXPECT_EQ(reqs[c].ok, want[c]) << "case " << c;
    EXPECT_EQ(reqs[c].ok, reqs_one[c].ok) << "case " << c;
    EXPECT_EQ(residence(batch, anchors, ids[c]),
              residence(one, anchors_one, ids_one[c]))
        << "case " << c;
    EXPECT_EQ(batch.block_tier(ids[c]), one.block_tier(ids_one[c]));
    if (c != kNoCopy) { // its contents are indeterminate by contract
      EXPECT_TRUE(holds(batch, ids[c], static_cast<unsigned char>(c + 1)))
          << "case " << c;
    }
  }
  for (TierId t = 0; t < 2; ++t) {
    const TierUsage a = batch.usage(t);
    const TierUsage b = one.usage(t);
    EXPECT_EQ(a.used, b.used) << t;
    EXPECT_EQ(a.shadow, b.shadow) << t;
    EXPECT_EQ(a.deferred, b.deferred) << t;
    EXPECT_EQ(a.high_water, b.high_water) << t;
    EXPECT_EQ(a.largest_free, b.largest_free) << t;
    EXPECT_EQ(a.live_blocks, b.live_blocks) << t;
    for (TierId d = 0; d < 2; ++d) {
      EXPECT_EQ(batch.migration_stats(t, d).count,
                one.migration_stats(t, d).count);
      EXPECT_EQ(batch.migration_stats(t, d).bytes,
                one.migration_stats(t, d).bytes);
    }
  }
  EXPECT_EQ(batch.zero_copy_admissions(), one.zero_copy_admissions());
  EXPECT_EQ(batch.zero_copy_bytes(), one.zero_copy_bytes());
  EXPECT_EQ(batch.deferrals(), one.deferrals());
  EXPECT_EQ(batch.shadow_invalidations(), one.shadow_invalidations());
  EXPECT_TRUE(batch.audit_ledger().empty());
  EXPECT_TRUE(one.audit_ledger().empty());
}

TEST(MemoryManagerConcurrency, BatchSwapsOfDistinctBlocks) {
  // Three threads ping-pong disjoint blocks between their primary and
  // shadow in batches while a fourth reads the counters and usage.
  constexpr int kThreads = 3;
  constexpr int kPerThread = 8;
  constexpr int kRounds = 200;
  constexpr std::uint64_t kBytes = 16 * KiB;
  MemoryManager mm({{"DDR4", 8 * MiB}, {"MCDRAM", 8 * MiB}});
  mm.set_zero_copy(true);
  std::vector<BlockId> ids;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    const BlockId b = mm.register_block(kBytes, 0);
    ASSERT_NE(b, kInvalidBlock);
    std::memset(mm.block_ptr(b), i + 1, kBytes);
    ids.push_back(b);
  }
  // After every registration: growing tier 0 would reclaim its shadows.
  for (const BlockId b : ids) {
    ASSERT_TRUE(mm.migrate(b, 1).ok); // copies; the shadow stays on 0
  }
  std::atomic<int> running{kThreads};
  std::atomic<int> misses{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<SwapRequest> reqs;
      for (int r = 0; r < kRounds; ++r) {
        reqs.clear();
        for (int j = 0; j < kPerThread; ++j) {
          reqs.push_back({ids[static_cast<std::size_t>(t * kPerThread + j)],
                          static_cast<TierId>(r % 2 == 0 ? 0 : 1), true,
                          false, 0});
        }
        const std::size_t n = mm.try_swap_batch(reqs);
        misses.fetch_add(kPerThread - static_cast<int>(n));
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last = 0;
  while (running.load() > 0) {
    // Swaps only add to both counts, the copies above only to `moved`.
    const std::uint64_t swapped = mm.zero_copy_admissions();
    const std::uint64_t moved =
        mm.migration_stats(0, 1).count + mm.migration_stats(1, 0).count;
    EXPECT_LE(swapped + ids.size(), moved);
    EXPECT_GE(moved, last); // monotonic
    last = moved;
    for (TierId t : {TierId{0}, TierId{1}}) {
      const TierUsage u = mm.usage(t);
      EXPECT_EQ(u.shadow + u.live_blocks * kBytes, u.used);
    }
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(misses.load(), 0);
  constexpr std::uint64_t kSwaps = kThreads * kPerThread * kRounds;
  EXPECT_EQ(mm.zero_copy_admissions(), kSwaps);
  EXPECT_EQ(mm.zero_copy_bytes(), kSwaps * kBytes);
  EXPECT_EQ(mm.migration_stats(1, 0).count, kSwaps / 2);
  EXPECT_EQ(mm.migration_stats(0, 1).count, kSwaps / 2 + ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(mm.block_tier(ids[i]), 1u); // an even number of swaps
    const auto* p = static_cast<const unsigned char*>(mm.block_ptr(ids[i]));
    EXPECT_EQ(p[0], static_cast<unsigned char>(i + 1));
    EXPECT_EQ(p[kBytes - 1], static_cast<unsigned char>(i + 1));
  }
  EXPECT_TRUE(mm.audit_ledger().empty());
}

TEST(MemoryManager, DeadBlockAccessDies) {
  auto mm = make_two_tier();
  const BlockId b = mm.register_block(64 * KiB, 0);
  mm.unregister_block(b);
  EXPECT_DEATH((void)mm.block_ptr(b), "dead block");
  EXPECT_DEATH((void)mm.migrate(b, 1), "dead block");
}

TEST(MemoryManager, BadTierDies) {
  auto mm = make_two_tier();
  EXPECT_DEATH((void)mm.alloc_on_tier(64, 7), "bad tier");
}

} // namespace
} // namespace hmr::mem
