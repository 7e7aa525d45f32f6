#pragma once
// MemoryManager: the node-level heterogeneous-memory substrate.
//
// Owns one TierArena per memory tier plus a registry of *blocks* — the
// unit the runtime migrates (the paper's CkIOHandle-backed data blocks).
// A copying migration follows the paper's §IV-C recipe:
//
//   1. numa_alloc_onnode on the destination tier   (alloc_on_tier)
//   2. memcpy src -> dst                           (real bytes move)
//   3. numa_free the source buffer                 (free_on_tier)
//
// In zero-copy mode (every rt::Runtime) many migrations skip it: clean
// blocks move by swapping with a retained shadow, and a dirty block's
// eviction into the write-back tier leaves its bytes where they are
// until that space is needed (docs/PERF.md §4).
//
// An optional per-tier pooling allocator implements the paper's stated
// future optimization ("the creating of space in destination memory
// could be avoided if we maintain a memory pool in each memory type");
// bench/abl_pool_migrate measures what it buys.
//
// Thread safety: all block metadata operations take one internal
// mutex, and the counters are updated inside the sections that already
// hold it.  The memcpy itself runs outside the lock, so concurrent
// migrations of *different* blocks proceed in parallel.  Callers (the
// ooc policy) guarantee a block is never migrated concurrently with
// itself or with a task reading it — that is precisely the
// refcount/state protocol the paper's runtime enforces.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hw/machine_model.hpp"
#include "mem/arena.hpp"
#include "mem/chunked_copy.hpp"
#include "mem/pool.hpp"

namespace hmr::mem {

using hw::TierId;

/// Handle for a registered, migratable data block.
using BlockId = std::uint64_t;
inline constexpr BlockId kInvalidBlock = ~0ull;

/// Timing breakdown of one migration (for bench/fig07 and abl_pool).
struct MigrateResult {
  bool ok = false;       // false: destination tier had no space
  double alloc_s = 0;    // step 1 (0 when served from the pool)
  double copy_s = 0;     // step 2
  double free_s = 0;     // step 3 (0 when returned to the pool)
  bool pooled = false;   // destination buffer came from the pool
  bool chunked = false;  // step 2 went through the ChunkRing
  bool zero_copy = false; // admitted via a retained shadow: no memcpy
  std::uint32_t chunks = 0;          // chunks copied (chunked only)
  std::uint32_t assisted_chunks = 0; // copied by assisting threads
  double total() const { return alloc_s + copy_s + free_s; }
};

/// One request of MemoryManager::try_swap_batch(), with its outcome in
/// `ok` and `bytes`.  Trivial, so a batch can sit in an uninitialized
/// stack buffer.
struct SwapRequest {
  BlockId block;
  TierId dst;
  bool copy_contents;
  bool ok;             // out: completed without a copy
  std::uint64_t bytes; // out: the block's size
};

struct TierUsage {
  std::uint64_t capacity = 0;
  std::uint64_t used = 0;        // live blocks + pooled + shadows + deferred
  std::uint64_t pooled = 0;      // bytes parked in the pool
  std::uint64_t shadow = 0;      // bytes held by zero-copy shadows
  std::uint64_t deferred = 0;    // bytes of blocks whose write-back is
                                 // deferred (logically on another tier)
  std::uint64_t high_water = 0;
  std::uint64_t largest_free = 0; // largest allocatable range
  std::uint64_t live_blocks = 0;  // blocks logically resident here
};

struct MigrationStats {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

class MemoryManager {
public:
  struct TierSpec {
    std::string name;
    std::uint64_t capacity = 0;
    TierArena::Backing backing = TierArena::Backing::NewDelete;
    bool hugepage = true; ///< MADV_HUGEPAGE when backing == Mmap
    int numa_node = -1;   ///< libnuma binding (HMR_NUMA builds only)
  };

  explicit MemoryManager(std::vector<TierSpec> tiers,
                         bool enable_pool = false);

  /// Tier specs shaped like `model`, scaled by `scale` (e.g. 1/1024
  /// turns the 16 GB / 96 GB KNL node into a 16 MiB / 96 MiB testbed).
  static std::vector<TierSpec> specs_from_model(const hw::MachineModel& model,
                                                double scale);

  /// Convenience: construct directly from a scaled model.
  static MemoryManager from_model(const hw::MachineModel& model,
                                  double scale, bool enable_pool = false);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  std::size_t num_tiers() const { return arenas_.size(); }

  // ---- raw numa_alloc_onnode-shaped API ----

  /// Allocate `bytes` on tier `t`; nullptr when the tier is full.
  void* alloc_on_tier(std::uint64_t bytes, TierId t);
  void free_on_tier(void* p, TierId t);

  // ---- block registry (the unit of prefetch/eviction) ----

  /// Register a new block and allocate its storage on `initial`.
  /// Returns kInvalidBlock when the tier has no space.
  BlockId register_block(std::uint64_t bytes, TierId initial);

  /// Release a block's storage and forget it.
  void unregister_block(BlockId b);

  void* block_ptr(BlockId b) const;
  std::uint64_t block_bytes(BlockId b) const;
  TierId block_tier(BlockId b) const;

  /// Migrate block `b` to tier `dst` (alloc + memcpy + free).  Returns
  /// ok=false and leaves the block untouched when `dst` has no space.
  /// No-op success when the block already lives on `dst`.
  /// `copy_contents = false` skips the memcpy (valid only when the
  /// next access is write-only — the writeonly_nocopy optimization);
  /// the destination buffer's contents are then indeterminate.
  MigrateResult migrate(BlockId b, TierId dst, bool copy_contents = true);

  // ---- cooperative chunked copies ----
  //
  // With chunking enabled, migrate() streams copies of at least
  // `threshold` bytes through a ChunkRing in `chunk` -byte pieces, and
  // idle threads (the runtime's IO threads and parked PEs) can join in
  // via assist_copies() so several cores share one large transfer.

  /// Enable (threshold > 0) or disable (threshold = 0) chunked copies.
  /// Not thread-safe against concurrent migrate(): configure before
  /// the executor starts moving data.
  void set_chunked_copy(std::uint64_t threshold, std::uint64_t chunk);

  bool chunked_copy_enabled() const { return chunk_threshold_ > 0; }
  std::uint64_t chunk_threshold() const { return chunk_threshold_; }

  /// Copy up to `max_chunks` chunks of any in-flight chunked
  /// migration; returns chunks copied (0 = nothing pending).  Safe
  /// from any thread.
  std::size_t assist_copies(std::size_t max_chunks = SIZE_MAX);

  /// Cheap poll for idle loops (IO threads, parked PEs).
  bool copy_assist_pending() const;

  /// The ring's monotonic counters (jobs / chunks / assisted chunks).
  const ChunkRing& chunk_ring() const { return ring_; }

  // ---- zero-copy admission (docs/PERF.md §4) ----
  //
  // With zero-copy enabled, a copying migration retains the *source*
  // buffer as the block's "shadow": a byte-identical stale residence.
  // A later migration whose destination still holds a valid shadow is
  // admitted by swapping primary and shadow — no alloc, no memcpy, no
  // free — which covers both a re-fetch of a block that was demoted
  // unmodified and a demotion returning to where the block came from.
  // Shadows are invalidated by writes (the runtime calls mark_dirty
  // after every writing task) and are a cache, not a reservation: they
  // may only occupy arena space live blocks have already touched, so an
  // allocation that would grow its tier's touched extent — or fail —
  // first reclaims every shadow on that tier.  One shadow per block: a
  // newer residence replaces an older one.  rt::Runtime always enables
  // shadows; a bare MemoryManager starts with them off.

  /// Enable/disable shadow retention.  Configure before traffic;
  /// disabling does not free already-retained shadows.
  void set_zero_copy(bool on) { zero_copy_ = on; }

  /// Copy-free migrations, in request order under one hold of the
  /// block lock.  A request completes without an alloc, copy or free
  /// when `dst` holds the block's valid shadow (a swap), holds its
  /// deferred bytes (a fetch back), or is the write-back tier and the
  /// block may defer; otherwise nothing happens to it.  Sets each
  /// request's `ok` and `bytes` and returns how many completed, so a
  /// caller can route the rest by size without asking for it again.
  /// `copy_contents` has migrate()'s meaning.  The runtime attempts each
  /// command batch this way, on whichever thread receives it; migrate()
  /// makes the same attempt first.
  std::size_t try_swap_batch(std::span<SwapRequest> reqs);

  /// Coherence audit: every swap first compares the shadow with the
  /// primary and aborts, naming the block, if they differ — i.e. if
  /// someone wrote through block_ptr() without a ReadWrite/WriteOnly
  /// dependency (or a mark_dirty call).  Costs one memcmp per swap.
  void set_shadow_audit(bool on) { shadow_audit_ = on; }

  /// The block's contents changed: drop its shadow (if any).  Must be
  /// called between a write and the block's next migration; the
  /// runtime does this for every ReadWrite/WriteOnly dependency.
  void mark_dirty(BlockId b);

  /// Migrations admitted without a copy, and the bytes they skipped.
  std::uint64_t zero_copy_admissions() const {
    return counters().zero_copy_admissions;
  }
  std::uint64_t zero_copy_bytes() const { return counters().zero_copy_bytes; }
  /// Shadows dropped by mark_dirty (writes) and by capacity reclaim.
  std::uint64_t shadow_invalidations() const {
    return counters().shadow_invalidations;
  }

  // ---- deferred write-back (docs/PERF.md §4) ----
  //
  // With zero-copy on, a migration into the write-back tier (the
  // runtime's bottom tier) that no shadow can satisfy completes without
  // a copy: the block's logical tier becomes the destination while its
  // bytes stay in their buffer as a *deferred* residence.  Migrating
  // the block back to the tier holding its bytes is then a pointer-only
  // fetch back; migrating it anywhere else copies from where the bytes
  // are.  The write-back itself (alloc on the logical tier, copy, free)
  // runs only when an allocation on the holding tier still finds no
  // room after that tier's shadows are reclaimed and its touched extent
  // has grown as far as capacity allows.  Blocks of at least
  // chunk_threshold() bytes never defer: they keep the chunked copy.
  // A write-back moves the block's storage, so block_ptr() stays valid
  // only while the caller holds the block resident.

  /// Set the write-back tier (kNoTier, the default, disables deferral).
  /// Configure before traffic.
  void set_write_back_tier(TierId t);
  static constexpr TierId kNoTier = ~TierId{0};

  /// Migrations completed as a deferral, and deferred blocks copied
  /// out to their logical tier (with the bytes copied).
  std::uint64_t deferrals() const { return counters().deferrals; }
  std::uint64_t write_backs() const { return counters().write_backs; }
  std::uint64_t write_back_bytes() const {
    return counters().write_back_bytes;
  }

  /// Ledger audit: the shadow and deferred lists match the block
  /// records, every residence is a live allocation of its tier, and
  /// each tier's residences, pooled and raw bytes sum to its arena's
  /// `used`.  One line per violation; empty when consistent, and also
  /// while a migration is in flight (its buffers belong to no ledger
  /// yet).
  std::vector<std::string> audit_ledger() const;

  // ---- introspection ----

  TierUsage usage(TierId t) const;
  /// Migration traffic observed from tier `src` to tier `dst`.
  MigrationStats migration_stats(TierId src, TierId dst) const;

  /// Buffer-pool hit/miss counters for tier `t`.
  PoolStats pool_stats(TierId t) const;
  /// Drop all pooled buffers back to the arenas (frees their capacity).
  void trim_pools();

  /// The arena backing tier `t` (backing mode / NUMA introspection).
  const TierArena& tier_arena(TierId t) const;

private:
  struct BlockRec {
    void* ptr = nullptr;
    std::uint64_t bytes = 0;
    TierId tier = 0;     // logical tier (where the policy placed it)
    TierId ptr_tier = 0; // tier whose arena holds ptr; != tier while the
                         // write-back is deferred
    bool live = false;
    bool migrating = false; // guards the paper's "one migration at a time"
    // Zero-copy shadow: a stale residence whose contents are
    // byte-identical to ptr's (or nullptr), and its index in its tier's
    // shadow list.  Guarded by blocks_mu_.
    void* shadow = nullptr;
    TierId shadow_tier = 0;
    std::size_t shadow_slot = 0;
    std::size_t deferred_slot = 0; // index in ptr_tier's deferred list
    bool deferred() const { return ptr_tier != tier; }
  };

  struct TierState {
    std::unique_ptr<TierArena> arena;
    BufferPool pool;
    std::uint64_t raw_bytes = 0; // alloc_on_tier allocations
    mutable std::mutex mu;
  };

  /// Zero-copy and write-back counters, guarded by blocks_mu_: every
  /// event they count already holds it.
  struct Counters {
    std::uint64_t zero_copy_admissions = 0;
    std::uint64_t zero_copy_bytes = 0;
    std::uint64_t shadow_invalidations = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t write_backs = 0;
    std::uint64_t write_back_bytes = 0;
  };

  /// Per-tier block bookkeeping, guarded by blocks_mu_.
  struct TierBlocks {
    std::vector<BlockId> shadows;  // blocks whose shadow lives here
    std::uint64_t shadow_bytes = 0;
    std::vector<BlockId> deferred; // deferred blocks whose bytes live here
    std::uint64_t deferred_bytes = 0;
    std::uint64_t primaries = 0;   // blocks logically here
  };

  void* alloc_locked(TierState& ts, std::uint64_t bytes, bool* from_pool,
                     bool may_grow);
  bool deferral_on() const {
    return zero_copy_ && write_back_tier_ != kNoTier;
  }
  /// Deferral is on and a block of `bytes` is small enough to defer.
  bool deferrable(std::uint64_t bytes) const {
    return deferral_on() &&
           (chunk_threshold_ == 0 || bytes < chunk_threshold_);
  }
  void free_locked(TierState& ts, void* p, std::uint64_t bytes);
  /// Allocate block storage on tier `t`; with zero-copy on, make room
  /// first when the allocation would grow the touched extent or fail.
  void* alloc_storage(TierId t, std::uint64_t bytes, bool* from_pool);
  // Shadow and deferral maintenance, all with blocks_mu_ held.  Freed
  // buffers go back inside that section (tier mutex nested inside
  // blocks_mu_, never the reverse), so a residence is always either
  // linked or back in its arena.
  /// alloc_storage's slow path: reclaim t's shadows and retry without
  /// growing, then grow the touched extent up to capacity, and only
  /// then write back t's deferred blocks.
  void* alloc_reclaiming(TierId t, std::uint64_t bytes, bool* from_pool);
  /// Free every retained shadow on tier `t`.
  void reclaim_shadows(TierId t);
  /// Copy every deferred block held on tier `t` out to its logical
  /// tier; stops early if that tier has no room.
  void write_back_deferred(TierId t);
  /// Free b's shadow; false when it had none.
  bool drop_shadow(BlockId b);
  void link_shadow(BlockId b, void* p, TierId t);
  /// Unlink b's shadow without freeing it (it becomes the primary).
  void* unlink_shadow(BlockId b);
  void link_deferred(BlockId b);
  void unlink_deferred(BlockId b);
  /// One copy-free attempt (blocks_mu_ held); true when the migration
  /// completed.
  bool swap_locked(BlockId b, TierId dst, bool copy_contents);
  /// Logical traffic of one completed migration.
  void count_migration(TierId src, TierId dst, std::uint64_t bytes);
  Counters counters() const;

  std::vector<std::unique_ptr<TierState>> arenas_;
  bool pool_enabled_;
  bool zero_copy_ = false;
  bool shadow_audit_ = false;
  TierId write_back_tier_ = kNoTier;
  std::uint64_t chunk_threshold_ = 0; // 0 = chunking off
  ChunkRing ring_;

  // Block metadata, residence lists and every counter, under one lock.
  mutable std::mutex blocks_mu_;
  std::vector<BlockRec> blocks_;
  std::vector<TierBlocks> tier_blocks_;
  Counters counters_;
  // stats_[src * num_tiers + dst]
  std::vector<MigrationStats> stats_;
};

} // namespace hmr::mem
