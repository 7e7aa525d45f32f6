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
    if (void* p = ts.pool.get(ts.arena->footprint(bytes))) {
      if (from_pool) *from_pool = true;
      return p;
    }
  }
  // A deferred block keeps its buffer for long stretches (its fetch
  // back is a swap), so blocks too large to defer are placed from the
  // top of the touched extent down: a small block parked low cannot
  // split the hole a large one needs.
  const bool large = deferral_on() && !deferrable(bytes);
  return ts.arena->alloc(bytes, may_grow, /*from_top=*/large);
}

void MemoryManager::free_locked(TierState& ts, void* p,
                                std::uint64_t bytes) {
  if (pool_enabled_ && bytes > 0) {
    ts.pool.put(p, ts.arena->footprint(bytes));
  } else {
    ts.arena->free(p);
  }
}

void* MemoryManager::alloc_storage(TierId t, std::uint64_t bytes,
                                   bool* from_pool) {
  TierState& ts = *arenas_[t];
  {
    std::lock_guard lock(ts.mu);
    // Shadows and deferred bytes may only hold space live blocks
    // already touched: with zero-copy on, growing the touched extent
    // waits for them to yield.
    if (void* p = alloc_locked(ts, bytes, from_pool, !zero_copy_)) return p;
  }
  if (!zero_copy_) return nullptr;
  std::lock_guard blocks(blocks_mu_);
  return alloc_reclaiming(t, bytes, from_pool);
}

void* MemoryManager::alloc_reclaiming(TierId t, std::uint64_t bytes,
                                      bool* from_pool) {
  // Each step retries even when it released nothing itself.  No
  // residence can be linked in between, and every released buffer is
  // back in its arena before blocks_mu_ is, so a failed final retry
  // means the space is really taken (fragmentation or an over-committed
  // budget), not in flight.  Clean shadows go first: dropping one costs
  // nothing.  Shadows never grow the touched extent, but deferred bytes
  // may: growing costs no copy, while writing every deferred block back
  // costs one copy now and another when each is fetched again.  A
  // deferred block's bytes are resident in one tier or the other anyway.
  TierState& ts = *arenas_[t];
  const auto attempt = [&](bool may_grow) {
    std::lock_guard lock(ts.mu);
    return alloc_locked(ts, bytes, from_pool, may_grow);
  };
  if (void* p = attempt(false)) return p;
  reclaim_shadows(t);
  if (void* p = attempt(false)) return p;
  if (void* p = attempt(true)) return p;
  write_back_deferred(t);
  return attempt(true);
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

void MemoryManager::link_deferred(BlockId b) {
  BlockRec& rec = blocks_[b];
  TierBlocks& tb = tier_blocks_[rec.ptr_tier];
  rec.deferred_slot = tb.deferred.size();
  tb.deferred.push_back(b);
  tb.deferred_bytes += rec.bytes;
}

void MemoryManager::unlink_deferred(BlockId b) {
  BlockRec& rec = blocks_[b];
  TierBlocks& tb = tier_blocks_[rec.ptr_tier];
  const BlockId moved = tb.deferred.back();
  tb.deferred[rec.deferred_slot] = moved;
  blocks_[moved].deferred_slot = rec.deferred_slot;
  tb.deferred.pop_back();
  tb.deferred_bytes -= rec.bytes;
}

void MemoryManager::count_migration(TierId src, TierId dst,
                                    std::uint64_t bytes) {
  MigrationStats& s = stats_[src * arenas_.size() + dst];
  ++s.count;
  s.bytes += bytes;
}

void* MemoryManager::alloc_on_tier(std::uint64_t bytes, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  void* p = alloc_locked(ts, bytes, nullptr, /*may_grow=*/true);
  if (p != nullptr) ts.raw_bytes += ts.arena->footprint(bytes);
  return p;
}

void MemoryManager::free_on_tier(void* p, TierId t) {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  TierState& ts = *arenas_[t];
  std::lock_guard lock(ts.mu);
  // Raw frees bypass the pool: callers of the numa-style API manage
  // exact lifetimes themselves.
  ts.raw_bytes -= ts.arena->free(p);
}

BlockId MemoryManager::register_block(std::uint64_t bytes, TierId initial) {
  HMR_CHECK_MSG(initial < arenas_.size(), "bad tier id");
  HMR_CHECK_MSG(bytes > 0, "zero-byte block");
  void* p = alloc_storage(initial, bytes, nullptr);
  if (!p) return kInvalidBlock;
  std::lock_guard lock(blocks_mu_);
  BlockRec rec;
  rec.ptr = p;
  rec.bytes = bytes;
  rec.tier = initial;
  rec.ptr_tier = initial;
  rec.live = true;
  blocks_.push_back(rec);
  ++tier_blocks_[initial].primaries;
  return static_cast<BlockId>(blocks_.size() - 1);
}

void MemoryManager::unregister_block(BlockId b) {
  std::lock_guard blocks(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live,
                "unregistering dead block");
  HMR_CHECK_MSG(!blocks_[b].migrating, "unregistering mid-migration");
  BlockRec& rec = blocks_[b];
  drop_shadow(b);
  if (rec.deferred()) unlink_deferred(b);
  --tier_blocks_[rec.tier].primaries;
  TierState& ts = *arenas_[rec.ptr_tier];
  {
    std::lock_guard lock(ts.mu);
    free_locked(ts, rec.ptr, rec.bytes);
  }
  rec.live = false;
  rec.ptr = nullptr;
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

std::size_t MemoryManager::try_swap_batch(std::span<SwapRequest> reqs) {
  std::size_t n = 0;
  std::lock_guard lock(blocks_mu_);
  for (SwapRequest& q : reqs) {
    q.ok = swap_locked(q.block, q.dst, q.copy_contents);
    q.bytes = blocks_[q.block].bytes;
    n += q.ok;
  }
  return n;
}

bool MemoryManager::swap_locked(BlockId b, TierId dst, bool copy_contents) {
  HMR_CHECK_MSG(dst < arenas_.size(), "bad tier id");
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  BlockRec& rec = blocks_[b];
  HMR_CHECK_MSG(!rec.migrating,
                "concurrent migration of one block (policy bug)");
  if (rec.tier == dst) return false;
  const TierId src_tier = rec.tier;
  const std::uint64_t bytes = rec.bytes;
  if (rec.shadow != nullptr && rec.shadow_tier == dst) {
    if (shadow_audit_ && std::memcmp(rec.shadow, rec.ptr, bytes) != 0) {
      char msg[256];
      std::snprintf(msg, sizeof msg,
                    "block %llu (%llu bytes): shadow on tier %u differs "
                    "from the primary on tier %u (written through "
                    "block_ptr() without a ReadWrite/WriteOnly "
                    "dependency)",
                    static_cast<unsigned long long>(b),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned>(dst),
                    static_cast<unsigned>(rec.ptr_tier));
      ::hmr::detail::check_failed("shadow coherent", __FILE__, __LINE__,
                                  msg);
    }
    // The destination's shadow becomes the primary and the old primary
    // stays behind as the new shadow.  (With copy_contents == false the
    // writer is about to rewrite the block, so the swapped-out primary
    // is dropped instead: its contents will no longer match.)
    if (rec.deferred()) unlink_deferred(b);
    void* old_primary = rec.ptr;
    const TierId old_tier = rec.ptr_tier;
    rec.ptr = unlink_shadow(b);
    rec.ptr_tier = dst;
    if (copy_contents) {
      link_shadow(b, old_primary, old_tier);
    } else {
      TierState& ts = *arenas_[old_tier];
      std::lock_guard tier_lock(ts.mu);
      free_locked(ts, old_primary, bytes);
    }
  } else if (rec.ptr_tier == dst) {
    // Fetch back: the deferred bytes never left dst.
    unlink_deferred(b);
  } else if (dst == write_back_tier_ && deferrable(bytes)) {
    // Deferral: only the logical tier moves; the bytes stay put until
    // their tier needs the space (write_back_deferred).
    link_deferred(b);
    ++counters_.deferrals;
  } else {
    return false;
  }
  rec.tier = dst;
  --tier_blocks_[src_tier].primaries;
  ++tier_blocks_[dst].primaries;
  ++counters_.zero_copy_admissions;
  counters_.zero_copy_bytes += bytes;
  // The logical migration still happened: traffic stats stay identical
  // with zero-copy on or off (equivalence contract).
  count_migration(src_tier, dst, bytes);
  return true;
}

MigrateResult MemoryManager::migrate(BlockId b, TierId dst,
                                     bool copy_contents) {
  MigrateResult r;
  void* src_ptr = nullptr;
  std::uint64_t bytes = 0;
  TierId src_tier = 0; // logical source, for the traffic stats
  TierId src_home = 0; // where the source bytes are
  bool was_deferred = false;
  {
    std::lock_guard lock(blocks_mu_);
    if (swap_locked(b, dst, copy_contents)) {
      r.ok = r.zero_copy = true;
      return r;
    }
    BlockRec& rec = blocks_[b];
    if (rec.tier == dst) {
      r.ok = true;
      return r;
    }
    src_tier = rec.tier;
    src_home = rec.ptr_tier;
    bytes = rec.bytes;
    rec.migrating = true;
    src_ptr = rec.ptr;
    // A single shadow per block: this migration will retain the source
    // buffer (or none), so any older shadow goes now — before step 1,
    // since it may be holding the very capacity the destination alloc
    // needs.
    drop_shadow(b);
    // A deferred block copies from where its bytes are; unlinked, they
    // are out of a concurrent write-back's reach until step 3.
    was_deferred = rec.deferred();
    if (was_deferred) unlink_deferred(b);
  }

  // Step 1: create space on the destination (numa_alloc_onnode).
  // Shadows on the destination yield to it (alloc_storage).
  const double ta = now_s();
  void* dst_ptr = alloc_storage(dst, bytes, &r.pooled);
  r.alloc_s = now_s() - ta;
  if (!dst_ptr) {
    std::lock_guard lock(blocks_mu_);
    blocks_[b].migrating = false;
    if (was_deferred) link_deferred(b);
    r.ok = false;
    return r;
  }

  // Step 2: move the data, outside any lock so migrations of distinct
  // blocks overlap.  Skipped for write-only destinations.  Large
  // copies stream through the ChunkRing so idle threads can assist
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
    TierState& ts = *arenas_[src_home];
    std::lock_guard lock(ts.mu);
    free_locked(ts, src_ptr, bytes);
    r.free_s = now_s() - t0;
  }

  {
    std::lock_guard lock(blocks_mu_);
    BlockRec& rec = blocks_[b];
    rec.ptr = dst_ptr;
    rec.tier = dst;
    rec.ptr_tier = dst;
    rec.migrating = false;
    --tier_blocks_[src_tier].primaries;
    ++tier_blocks_[dst].primaries;
    if (retain) link_shadow(b, src_ptr, src_home);
    count_migration(src_tier, dst, bytes);
  }
  r.ok = true;
  return r;
}

void MemoryManager::mark_dirty(BlockId b) {
  std::lock_guard lock(blocks_mu_);
  HMR_CHECK_MSG(b < blocks_.size() && blocks_[b].live, "dead block");
  if (drop_shadow(b)) ++counters_.shadow_invalidations;
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
  counters_.shadow_invalidations += tb.shadows.size();
  tb.shadows.clear();
  tb.shadow_bytes = 0;
}

void MemoryManager::write_back_deferred(TierId t) {
  TierBlocks& tb = tier_blocks_[t];
  TierState& ts = *arenas_[t];
  while (!tb.deferred.empty()) {
    const BlockId b = tb.deferred.back();
    BlockRec& rec = blocks_[b];
    // The logical tier is the bottom one and holds no deferred bytes,
    // so this nests one level at most.
    void* home = alloc_reclaiming(rec.tier, rec.bytes, nullptr);
    if (home == nullptr) return; // the rest stay deferred
    copy(home, rec.ptr, rec.bytes);
    unlink_deferred(b);
    {
      // Straight to the arena, as in reclaim_shadows.
      std::lock_guard lock(ts.mu);
      ts.arena->free(rec.ptr);
    }
    rec.ptr = home;
    rec.ptr_tier = rec.tier;
    ++counters_.write_backs;
    counters_.write_back_bytes += rec.bytes;
  }
}

void MemoryManager::set_write_back_tier(TierId t) {
  HMR_CHECK_MSG(t == kNoTier || t < arenas_.size(), "bad tier id");
  write_back_tier_ = t;
}

void MemoryManager::set_chunked_copy(std::uint64_t threshold,
                                     std::uint64_t chunk) {
  chunk_threshold_ = threshold;
  if (threshold > 0) {
    HMR_CHECK_MSG(chunk > 0, "chunk size must be positive");
    ring_.set_chunk_bytes(chunk);
  }
}

std::size_t MemoryManager::assist_copies(std::size_t max_chunks) {
  return ring_.assist(max_chunks);
}

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
    u.deferred = tier_blocks_[t].deferred_bytes;
    u.live_blocks = tier_blocks_[t].primaries;
  }
  return u;
}

std::vector<std::string> MemoryManager::audit_ledger() const {
  std::vector<std::string> v;
  std::lock_guard blocks(blocks_mu_);
  const std::size_t n = arenas_.size();
  std::vector<std::unique_lock<std::mutex>> tier_locks;
  for (const auto& ts : arenas_) tier_locks.emplace_back(ts->mu);
  const auto block_str = [](BlockId b) {
    return "block " + std::to_string(b) + ": ";
  };
  // Recount every per-tier figure from the block records.
  std::vector<std::uint64_t> held(n), shadow_bytes(n), deferred_bytes(n);
  std::vector<std::uint64_t> shadows(n), deferred(n), primaries(n);
  const auto check_residence = [&](BlockId b, const void* p, TierId t,
                                   std::uint64_t bytes) {
    const TierArena& a = *arenas_[t]->arena;
    if (!a.owns(p)) {
      v.push_back(block_str(b) + "residence is not a live allocation of " +
                  a.name());
    }
    held[t] += a.footprint(bytes);
  };
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    const BlockRec& rec = blocks_[b];
    if (!rec.live) continue;
    if (rec.migrating) return {}; // buffers in flight: nothing to compare
    ++primaries[rec.tier];
    check_residence(b, rec.ptr, rec.ptr_tier, rec.bytes);
    if (rec.deferred()) {
      const TierBlocks& tb = tier_blocks_[rec.ptr_tier];
      if (rec.tier != write_back_tier_ ||
          rec.deferred_slot >= tb.deferred.size() ||
          tb.deferred[rec.deferred_slot] != b) {
        v.push_back(block_str(b) +
                    "deferred residence missing from its tier's list");
      }
      ++deferred[rec.ptr_tier];
      deferred_bytes[rec.ptr_tier] += rec.bytes;
    }
    if (rec.shadow != nullptr) {
      const TierBlocks& tb = tier_blocks_[rec.shadow_tier];
      if (rec.shadow_tier == rec.ptr_tier ||
          rec.shadow_slot >= tb.shadows.size() ||
          tb.shadows[rec.shadow_slot] != b) {
        v.push_back(block_str(b) + "shadow missing from its tier's list");
      }
      check_residence(b, rec.shadow, rec.shadow_tier, rec.bytes);
      ++shadows[rec.shadow_tier];
      shadow_bytes[rec.shadow_tier] += rec.bytes;
    }
  }
  for (std::size_t t = 0; t < n; ++t) {
    const TierBlocks& tb = tier_blocks_[t];
    const TierState& ts = *arenas_[t];
    const std::string tier = "tier " + ts.arena->name() + ": ";
    const auto expect = [&](const char* what, std::uint64_t listed,
                            std::uint64_t counted) {
      if (listed == counted) return;
      v.push_back(tier + what + " " + std::to_string(listed) +
                  " != " + std::to_string(counted) + " in block records");
    };
    expect("shadow list length", tb.shadows.size(), shadows[t]);
    expect("shadow bytes", tb.shadow_bytes, shadow_bytes[t]);
    expect("deferred list length", tb.deferred.size(), deferred[t]);
    expect("deferred bytes", tb.deferred_bytes, deferred_bytes[t]);
    expect("resident blocks", tb.primaries, primaries[t]);
    const std::uint64_t accounted =
        held[t] + ts.pool.pooled_bytes() + ts.raw_bytes;
    if (accounted != ts.arena->used()) {
      v.push_back(tier + "arena used " + std::to_string(ts.arena->used()) +
                  " != residences + pooled + raw " +
                  std::to_string(accounted));
    }
  }
  return v;
}

const TierArena& MemoryManager::tier_arena(TierId t) const {
  HMR_CHECK_MSG(t < arenas_.size(), "bad tier id");
  return *arenas_[t]->arena;
}

MigrationStats MemoryManager::migration_stats(TierId src, TierId dst) const {
  HMR_CHECK(src < arenas_.size() && dst < arenas_.size());
  std::lock_guard lock(blocks_mu_);
  return stats_[src * arenas_.size() + dst];
}

MemoryManager::Counters MemoryManager::counters() const {
  std::lock_guard lock(blocks_mu_);
  return counters_;
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
