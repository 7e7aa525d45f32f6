#pragma once
// TierArena: a first-fit free-list allocator over one contiguous
// reserved region, standing in for one libnuma memory node.
//
// The paper allocates with numa_alloc_onnode(size, node) and releases
// with numa_free; capacity of the node is a hard limit (16 GB MCDRAM).
// TierArena reproduces that interface shape on plain host memory: a
// fixed-capacity region per tier, allocation failure (nullptr) when the
// tier is full, and real pointers so migration can actually memcpy.
//
// Two backing modes (docs/PERF.md §4):
//   NewDelete — aligned operator new[], the portable default.
//   Mmap      — anonymous mmap with MADV_HUGEPAGE, and, when the build
//               has libnuma (-DHMR_NUMA=ON) and the tier's MachineModel
//               entry names a node, the region is bound to that NUMA
//               node the way the paper binds MCDRAM.  Every step
//               degrades gracefully (mmap -> new[], no THP, no NUMA).
//
// Not thread-safe by itself: MemoryManager serializes access.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace hmr::mem {

enum class ArenaBacking : std::uint8_t { NewDelete = 0, Mmap };

struct ArenaOptions {
  ArenaBacking backing = ArenaBacking::NewDelete;
  bool hugepage = true; ///< MADV_HUGEPAGE on Mmap backing
  int numa_node = -1;   ///< bind Mmap region to this node (-1 = none;
                        ///< needs an HMR_NUMA build + NUMA hardware)
};

class TierArena {
public:
  using Backing = ArenaBacking;
  using Options = ArenaOptions;

  /// Reserves `capacity` bytes of host memory up front.  All returned
  /// pointers are aligned to `alignment` (default one cache line).
  TierArena(std::string name, std::uint64_t capacity,
            std::size_t alignment = 64, Options opts = Options());
  ~TierArena();

  TierArena(const TierArena&) = delete;
  TierArena& operator=(const TierArena&) = delete;

  /// First-fit allocation.  Returns nullptr when no free range of
  /// `bytes` exists (capacity or fragmentation), or — with
  /// `may_grow = false` — when the first fit would end past the touched
  /// extent.  `from_top` instead takes the highest fit that ends within
  /// the touched extent, falling back to first fit when none does.
  /// Zero-byte requests are rejected.
  void* alloc(std::uint64_t bytes, bool may_grow = true,
              bool from_top = false);

  /// Releases a pointer previously returned by alloc() and returns the
  /// bytes it occupied (its footprint).  Coalesces with adjacent free
  /// ranges.  Freeing a foreign or already-freed pointer aborts
  /// (HMR_CHECK) — this is an API-contract violation.
  std::uint64_t free(void* p);

  /// True if `p` is a live allocation from this arena.
  bool owns(const void* p) const;

  /// Bytes an allocation of `bytes` occupies (rounded to the alignment).
  std::uint64_t footprint(std::uint64_t bytes) const;

  const std::string& name() const { return name_; }
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t high_water() const { return high_water_; }
  /// Largest end offset ever handed out: the prefix of the region that
  /// live data has touched.  Never shrinks.
  std::uint64_t touched_extent() const { return touched_; }
  std::uint64_t live_allocations() const { return live_.size(); }

  /// Size of the largest single allocatable range (fragmentation
  /// probe).  O(free ranges): a scan, kept off the alloc/free path.
  std::uint64_t largest_free_range() const;

  /// Backing actually in effect ("new[]" or "mmap"); Mmap requests fall
  /// back to "new[]" when mmap is unavailable or fails.
  const char* backing_name() const;
  Backing backing() const { return actual_backing_; }
  /// NUMA node the region was bound to, or -1 (no binding requested,
  /// non-NUMA build, or no NUMA hardware at runtime).
  int bound_node() const { return bound_node_; }

private:
  /// Carve [at, at + need) out of the free range `it`.
  void* take(std::map<std::uint64_t, std::uint64_t>::iterator it,
             std::uint64_t at, std::uint64_t need);
  void reserve_region(const Options& opts);
  void release_region();

  std::string name_;
  std::uint64_t capacity_;
  std::size_t alignment_;
  std::byte* base_ = nullptr;
  std::uint64_t region_len_ = 0; // page-rounded length of a Mmap region
  Backing actual_backing_ = Backing::NewDelete;
  int bound_node_ = -1;

  // Free ranges keyed by offset (ordered, for coalescing) -> length.
  std::map<std::uint64_t, std::uint64_t> free_ranges_;
  // Live allocations: offset -> length.
  std::unordered_map<std::uint64_t, std::uint64_t> live_;

  std::uint64_t used_ = 0;
  std::uint64_t high_water_ = 0;
  std::uint64_t touched_ = 0;
};

} // namespace hmr::mem
