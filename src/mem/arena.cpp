#include "mem/arena.hpp"

#include <algorithm>
#include <new>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define HMR_ARENA_HAVE_MMAP 1
#include <sys/mman.h>
#include <unistd.h>
#else
#define HMR_ARENA_HAVE_MMAP 0
#endif

#if defined(HMR_HAVE_NUMA)
#include <numa.h>
#endif

namespace hmr::mem {

TierArena::TierArena(std::string name, std::uint64_t capacity,
                     std::size_t alignment, Options opts)
    : name_(std::move(name)), capacity_(capacity), alignment_(alignment) {
  HMR_CHECK_MSG(alignment_ != 0 && (alignment_ & (alignment_ - 1)) == 0,
                "alignment must be a power of two");
  // Round the region itself so every offset-aligned pointer is aligned.
  if (capacity_ > 0) {
    reserve_region(opts);
    free_ranges_.emplace(0, capacity_);
  }
}

TierArena::~TierArena() { release_region(); }

void TierArena::reserve_region(const Options& opts) {
#if HMR_ARENA_HAVE_MMAP
  const auto page = static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  // mmap returns page-aligned memory; offsets are alignment_-rounded,
  // so the backing works whenever the alignment divides the page size.
  if (opts.backing == Backing::Mmap && page % alignment_ == 0) {
    region_len_ = (capacity_ + page - 1) / page * page;
    void* p = ::mmap(nullptr, region_len_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p != MAP_FAILED) {
      base_ = static_cast<std::byte*>(p);
      actual_backing_ = Backing::Mmap;
#if defined(MADV_HUGEPAGE)
      // Transparent hugepages are advisory; ignore rejection (e.g.
      // THP disabled host-wide).
      if (opts.hugepage) (void)::madvise(p, region_len_, MADV_HUGEPAGE);
#endif
#if defined(HMR_HAVE_NUMA)
      if (opts.numa_node >= 0 && ::numa_available() != -1 &&
          opts.numa_node <= ::numa_max_node()) {
        ::numa_tonode_memory(p, region_len_, opts.numa_node);
        bound_node_ = opts.numa_node;
      }
#endif
      return;
    }
    region_len_ = 0; // mmap failed: fall through to the portable path
  }
#else
  (void)opts;
#endif
  base_ = static_cast<std::byte*>(
      ::operator new[](capacity_, std::align_val_t(alignment_)));
  actual_backing_ = Backing::NewDelete;
}

void TierArena::release_region() {
  if (base_ == nullptr) return;
#if HMR_ARENA_HAVE_MMAP
  if (actual_backing_ == Backing::Mmap) {
    ::munmap(base_, region_len_);
    base_ = nullptr;
    return;
  }
#endif
  ::operator delete[](base_, std::align_val_t(alignment_));
  base_ = nullptr;
}

const char* TierArena::backing_name() const {
  return actual_backing_ == Backing::Mmap ? "mmap" : "new[]";
}

std::uint64_t TierArena::footprint(std::uint64_t bytes) const {
  const std::uint64_t a = alignment_;
  return (bytes + a - 1) / a * a;
}

void* TierArena::alloc(std::uint64_t bytes, bool may_grow, bool from_top) {
  HMR_CHECK_MSG(bytes > 0, "zero-byte tier allocation");
  const std::uint64_t need = footprint(bytes);
  if (from_top) {
    for (auto it = free_ranges_.rbegin(); it != free_ranges_.rend(); ++it) {
      const std::uint64_t end = std::min(it->first + it->second, touched_);
      if (end >= it->first + need) {
        return take(std::prev(it.base()), end - need, need);
      }
    }
  }
  for (auto it = free_ranges_.begin(); it != free_ranges_.end(); ++it) {
    if (it->second < need) continue;
    // First fit has the lowest start, hence the lowest end, of all fits.
    if (!may_grow && it->first + need > touched_) return nullptr;
    return take(it, it->first, need);
  }
  return nullptr;
}

void* TierArena::take(std::map<std::uint64_t, std::uint64_t>::iterator it,
                      std::uint64_t at, std::uint64_t need) {
  const std::uint64_t off = it->first;
  const std::uint64_t len = it->second;
  free_ranges_.erase(it);
  if (at > off) free_ranges_.emplace(off, at - off);
  if (off + len > at + need) {
    free_ranges_.emplace(at + need, off + len - (at + need));
  }
  live_.emplace(at, need);
  used_ += need;
  high_water_ = std::max(high_water_, used_);
  touched_ = std::max(touched_, at + need);
  return base_ + at;
}

std::uint64_t TierArena::free(void* p) {
  HMR_CHECK_MSG(p != nullptr, "freeing nullptr");
  const auto* bp = static_cast<const std::byte*>(p);
  HMR_CHECK_MSG(base_ != nullptr && bp >= base_ && bp < base_ + capacity_,
                "pointer not from this arena");
  const std::uint64_t off = static_cast<std::uint64_t>(bp - base_);
  auto it = live_.find(off);
  HMR_CHECK_MSG(it != live_.end(), "double free or interior pointer");
  const std::uint64_t freed = it->second;
  std::uint64_t len = freed;
  live_.erase(it);
  used_ -= len;

  // Coalesce with successor, then predecessor.
  auto next = free_ranges_.lower_bound(off);
  if (next != free_ranges_.end() && off + len == next->first) {
    len += next->second;
    next = free_ranges_.erase(next);
  }
  std::uint64_t start = off;
  if (next != free_ranges_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == off) {
      start = prev->first;
      len += prev->second;
      free_ranges_.erase(prev);
    }
  }
  free_ranges_.emplace(start, len);
  return freed;
}

bool TierArena::owns(const void* p) const {
  if (base_ == nullptr || p == nullptr) return false;
  const auto* bp = static_cast<const std::byte*>(p);
  if (bp < base_ || bp >= base_ + capacity_) return false;
  return live_.count(static_cast<std::uint64_t>(bp - base_)) != 0;
}

std::uint64_t TierArena::largest_free_range() const {
  std::uint64_t best = 0;
  for (const auto& [off, len] : free_ranges_) best = std::max(best, len);
  return best;
}

} // namespace hmr::mem
