#include "mem/memory_manager.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "mem/copy_kernel.hpp"
#include "util/check.hpp"

namespace hmr::mem {

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

MemoryManager::MemoryManager(std::vector<TierSpec> tiers, bool enable_pool)
    : pool_enabled_(enable_pool) {
  HMR_CHECK_MSG(!tiers.empty(), "need at least one tier");
  arenas_.reserve(tiers.size());
  for (auto& spec : tiers) {
    auto ts = std::make_unique<TierState>();
    TierArena::Options opts;
    opts.backing = spec.backing;
    opts.hugepage = spec.hugepage;
    opts.numa_node = spec.numa_node;
    ts->arena = std::make_unique<TierArena>(spec.name, spec.capacity,
                                            /*alignment=*/64, opts);
    arenas_.push_back(std::move(ts));
  }
  stats_.resize(arenas_.size() * arenas_.size());
  tier_blocks_.resize(arenas_.size());
}

std::vector<MemoryManager::TierSpec> MemoryManager::specs_from_model(
    const hw::MachineModel& model, double scale) {
  HMR_CHECK(scale > 0);
  std::vector<TierSpec> specs;
  specs.reserve(model.tiers.size());
  for (const auto& t : model.tiers) {
    TierSpec spec;
    spec.name = t.name;
    spec.capacity = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(t.capacity) * scale));
    spec.numa_node = t.numa_node;
    specs.push_back(std::move(spec));
  }
  return specs;
}

MemoryManager MemoryManager::from_model(const hw::MachineModel& model,
                                        double scale, bool enable_pool) {
  return MemoryManager(specs_from_model(model, scale), enable_pool);
}

void* MemoryManager::alloc_locked(TierState& ts, std::uint64_t bytes,
                                  bool* from_pool, bool may_grow) {
  if (from_pool) *from_pool = false;
  if (pool_enabled_) {
    if (void* p = ts.pool.get(bytes)) {
      if (from_pool) *from_pool = true;
      return p;
    }
  }
  return ts.arena->alloc(bytes, may_grow);
}

void MemoryManager::free_locked(TierState& ts, void* p,
                                std::uint64_t bytes) {
  if (pool_enabled_ && bytes > 0) {
    ts.pool.put(p, bytes);
  } else {
    ts.arena->free(p);
  }
}

void* MemoryManager::alloc_storage(TierId t, std::uint64_t bytes,
                                   bool* from_pool) {
  TierState& ts = *arenas_[t];
  {
    std::lock_guard lock(ts.mu);
    // Shadows may only hold space live blocks already touched: with
    // zero-copy on, growing the touched extent waits for a reclaim.
    if (void* p = alloc_locked(ts, bytes, from_pool, !zero_copy_)) return p;
  }
  if (!zero_copy_) return nullptr;
  // Reclaim and retry in one blocks_mu_ section, and retry even when
  // the pass found nothing.  No shadow can be linked in between, and
  // every dropped shadow is back in its arena before blocks_mu_ is
  // released, so a failed retry means the space is really taken
  // (fragmentation or an over-committed budget), not in flight.
  std::lock_guard blocks(blocks_mu_);
  reclaim_shadows(t);
  std::lock_guard lock(ts.mu);
  return alloc_locked(ts, bytes, from_pool, /*may_grow=*/true);
}

void MemoryManager::link_shadow(BlockId b, void* p, TierId t) {
  BlockRec& rec = blocks_[b];
  HMR_DCHECK(rec.shadow == nullptr);
  TierBlocks& tb = tier_blocks_[t];
  rec.shadow = p;
  rec.shadow_tier = t;
  rec.shadow_slot = tb.shadows.size();
  tb.shadows.push_back(b);
  tb.shadow_bytes += rec.bytes;
}

bool MemoryManager::drop_shadow(BlockId b) {
  const TierId t = blocks_[b].shadow_tier;
  void* p = unlink_shadow(b);
  if (p == nullptr) return false;
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  free_locked(ts, p, blocks_[b].bytes);
  return true;
}

void* MemoryManager::unlink_shadow(BlockId b) {
  BlockRec& rec = blocks_[b];
  void* p = rec.shadow;
  if (p == nullptr) return nullptr;
  TierBlocks& tb = tier_blocks_[rec.shadow_tier];
  const BlockId moved = tb.shadows.back();
  tb.shadows[rec.shadow_slot] = moved;
  blocks_[moved].shadow_slot = rec.shadow_slot;
  tb.shadows.pop_back();
  tb.shadow_bytes -= rec.bytes;
  rec.shadow = nullptr;
  return p;
}

void MemoryManager::count_migration(TierId src, TierId dst,
                                    std::uint64_t bytes) {
  std::lock_guard lock(stats_mu_);
  MigrationStats& s = stats_[src * arenas_.size() + dst];
  ++s.count;
  s.bytes += bytes;
}

void* MemoryManager::alloc_on_tier(std::uint64_t bytes, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  return alloc_locked(ts, bytes, nullptr, /*may_grow=*/true);
}

void MemoryManager::free_on_tier(void* p, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  // Raw frees bypass the pool: callers of the numa-style API manage
  // exact lifetimes themselves.
  ts.arena->free(p);
}

BlockId MemoryManager::register_block(std::uint64_t bytes, TierId initial) {
  HMR_CHECK_MSG(initial < arenas_.size(), "bad tier id");
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  void* p = alloc_storage(initial, bytes, nullptr);
  if (!p) return kInvalidBlock;
  std::lock_guard lock(blocks_mu_);
  blocks_.push_back({p, bytes, initial, /*live=*/true, /*migrating=*/false});
  ++tier_blocks_[initial].primaries;
  return static_cast<BlockId>(blocks_.size() - 1);
}

void MemoryManager::unregister_block(BlockId b) {
  void* p = nullptr;
  std::uint64_t bytes = 0;
  TierId tier = 0;
  {
    std::lock_guard lock(blocks_mu_);
    HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live,
                  "unregistering dead block");
    HMR_CHECK_MSG(!blocks_[b].migrating, "unregistering mid-migration");
    BlockRec& rec = blocks_[b];
    p = rec.ptr;
    bytes = rec.bytes;
    tier = rec.tier;
    drop_shadow(b);
    rec.live = false;
    rec.ptr = nullptr;
    --tier_blocks_[tier].primaries;
  }
  TierState& ts = *arenas_[tier];
  std::lock_guard lock(ts.mu);
  free_locked(ts, p, bytes);
}

void* MemoryManager::block_ptr(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].ptr;
}

std::uint64_t MemoryManager::block_bytes(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].bytes;
}

TierId MemoryManager::block_tier(BlockId b) const {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  return blocks_[b].tier;
}

MigrateResult MemoryManager::try_swap(BlockId b, TierId dst,
                                      bool copy_contents) {
  HMR_CHECK_MSG(dst < arenas_.size(), "bad tier id");
  MigrateResult r;
  std::uint64_t bytes = 0;
  TierId src_tier = 0;
  void* dropped = nullptr;
  {
    std::lock_guard lock(blocks_mu_);
    HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
    BlockRec& rec = blocks_[b];
    HMR_CHECK_MSG(!rec.migrating,
                  "concurrent migration of one block (policy bug)");
    if (rec.shadow == nullptr || rec.shadow_tier != dst) return r;
    src_tier = rec.tier;
    bytes = rec.bytes;
    if (shadow_audit_ && std::memcmp(rec.shadow, rec.ptr, bytes) != 0) {
      char msg[256];
      std::snprintf(msg, sizeof msg,
                    "block %llu (%llu bytes): shadow on tier %u differs "
                    "from the primary on tier %u (written through "
                    "block_ptr() without a ReadWrite/WriteOnly dependency)",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned>(dst),
                    static_cast<unsigned>(src_tier));
      ::hmr::detail::check_failed("shadow coherent", __FILE__, __LINE__,
                                  msg);
    }
    // The destination's shadow becomes the primary and the old primary
    // stays behind as the new shadow.  (With copy_contents == false the
    // writer is about to rewrite the block, so the swapped-out primary
    // is dropped instead: its contents will no longer match.)
    void* old_primary = rec.ptr;
    rec.ptr = unlink_shadow(b);
    rec.tier = dst;
    --tier_blocks_[src_tier].primaries;
    ++tier_blocks_[dst].primaries;
    if (copy_contents) {
      link_shadow(b, old_primary, src_tier);
    } else {
      dropped = old_primary;
    }
  }
  if (dropped != nullptr) {
    TierState& ts = *arenas_[src_tier];
    std::lock_guard lock(ts.mu);
    free_locked(ts, dropped, bytes);
  }
  zero_copy_admissions_.fetch_add(1, std::memory_order_relaxed);
  zero_copy_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  // The logical migration still happened: traffic stats stay identical
  // with zero-copy on or off (equivalence contract).
  count_migration(src_tier, dst, bytes);
  r.ok = true;
  r.zero_copy = true;
  return r;
}

MigrateResult MemoryManager::migrate(BlockId b, TierId dst,
                                     bool copy_contents) {
  MigrateResult r = try_swap(b, dst, copy_contents);
  if (r.ok) return r;

  void* src_ptr = nullptr;
  std::uint64_t bytes = 0;
  TierId src_tier = 0;
  {
    std::lock_guard lock(blocks_mu_);
    BlockRec& rec = blocks_[b];
    if (rec.tier == dst) {
      r.ok = true;
      return r;
    }
    src_tier = rec.tier;
    bytes = rec.bytes;
    rec.migrating = true;
    src_ptr = rec.ptr;
    // A single shadow per block: this migration will retain the source
    // buffer (or none), so any older shadow goes now — before step 1,
    // since it may be holding the very capacity the destination alloc
    // needs.
    drop_shadow(b);
  }

  // Step 1: create space on the destination (numa_alloc_onnode).
  // Shadows on the destination yield to it (alloc_storage).
  const double ta = now_s();
  void* dst_ptr = alloc_storage(dst, bytes, &r.pooled);
  r.alloc_s = now_s() - ta;
  if (!dst_ptr) {
    std::lock_guard lock(blocks_mu_);
    blocks_[b].migrating = false;
    r.ok = false;
    return r;
  }

  // Step 2: move the data, outside any lock so migrations of distinct
  // blocks overlap.  Skipped for write-only destinations.  Large
  // copies stream through the ChunkRing so idle IO threads can assist
  // (several cores cooperating on one block).
  if (copy_contents) {
    const double t0 = now_s();
    if (chunk_threshold_ > 0 && bytes >= chunk_threshold_) {
      const CopyOutcome co = ring_.run(dst_ptr, src_ptr, bytes);
      r.chunked = true;
      r.chunks = co.chunks;
      r.assisted_chunks = co.assisted_chunks;
    } else {
      copy(dst_ptr, src_ptr, bytes);
    }
    r.copy_s = now_s() - t0;
  }

  // Step 3: free the source buffer (numa_free) — unless zero-copy
  // retention keeps it as the block's shadow for a later swap back.
  const bool retain = zero_copy_ && copy_contents;
  if (!retain) {
    const double t0 = now_s();
    TierState& ts = *arenas_[src_tier];
    std::lock_guard lock(ts.mu);
    free_locked(ts, src_ptr, bytes);
    r.free_s = now_s() - t0;
  }

  {
    std::lock_guard lock(blocks_mu_);
    BlockRec& rec = blocks_[b];
    rec.ptr = dst_ptr;
    rec.tier = dst;
    rec.migrating = false;
    --tier_blocks_[src_tier].primaries;
    ++tier_blocks_[dst].primaries;
    if (retain) link_shadow(b, src_ptr, src_tier);
  }
  count_migration(src_tier, dst, bytes);
  r.ok = true;
  return r;
}

void MemoryManager::mark_dirty(BlockId b) {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  if (drop_shadow(b)) {
    shadow_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

void MemoryManager::reclaim_shadows(TierId t) {
  TierBlocks& tb = tier_blocks_[t];
  if (tb.shadows.empty()) return;
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  // Straight to the arena (bypassing the pool): reclaim exists to
  // release capacity, and a pooled buffer only helps same-size
  // requests.
  for (const BlockId b : tb.shadows) {
    ts.arena->free(blocks_[b].shadow);
    blocks_[b].shadow = nullptr;
  }
  shadow_invalidations_.fetch_add(tb.shadows.size(),
                                  std::memory_order_relaxed);
  tb.shadows.clear();
  tb.shadow_bytes = 0;
}

void MemoryManager::set_chunked_copy(std::uint64_t threshold,
                                     std::uint64_t chunk) {
  chunk_threshold_ = threshold;
  if (threshold > 0) {
    HMR_CHECK_MSG(chunk > 0, "chunk size must be positive");
    ring_.set_chunk_bytes(chunk);
  }
}

std::size_t MemoryManager::assist_copies() { return ring_.assist(); }

bool MemoryManager::copy_assist_pending() const {
  return chunk_threshold_ > 0 && ring_.assist_pending();
}

TierUsage MemoryManager::usage(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierUsage u;
  {
    const TierState& ts = *arenas_[t];
    std::lock_guard lock(ts.mu);
    u.capacity = ts.arena->capacity();
    u.used = ts.arena->used();
    u.pooled = ts.pool.pooled_bytes();
    u.high_water = ts.arena->high_water();
    u.largest_free = ts.arena->largest_free_range();
  }
  {
    std::lock_guard lock(blocks_mu_);
    u.shadow = tier_blocks_[t].shadow_bytes;
    u.live_blocks = tier_blocks_[t].primaries;
  }
  return u;
}

const TierArena& MemoryManager::tier_arena(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  return *arenas_[t]->arena;
}

MigrationStats MemoryManager::migration_stats(TierId src, TierId dst) const {
  HMR_CHECK(src < arenas_.size() && dst < arenas_.size());
  std::lock_guard lock(stats_mu_);
  return stats_[src * arenas_.size() + dst];
}

PoolStats MemoryManager::pool_stats(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  const TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  return {ts.pool.hits(), ts.pool.misses()};
}

void MemoryManager::trim_pools() {
  for (auto& tsp : arenas_) {
    TierState& ts = *tsp;
    std::lock_guard lock(ts.mu);
    ts.pool.drain([&](void* p) { ts.arena->free(p); });
  }
}

} // namespace hmr::mem
