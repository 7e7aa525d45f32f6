#pragma once

#include <cstddef>
#include <cstdint>

/// Data-movement kernel layer (docs/PERF.md §4).
///
/// `hmr::mem::copy` is the single copy primitive under every migration
/// path (`MemoryManager::migrate`, `ChunkRing::work_on`, the small-copy
/// fast path).  Below the non-temporal threshold it is `std::memcpy`;
/// at or above it the dispatched SIMD kernel uses streaming
/// (non-temporal) stores, so multi-MiB tier migrations stop evicting
/// the PEs' working sets from cache on the way through.
///
/// The implementation is picked once per process, at first use, from
/// what the CPU actually supports (AVX-512F > AVX2 > SSE2 > scalar) via
/// `__builtin_cpu_supports`.  Environment overrides for experiments:
///
///   HMR_COPY_IMPL=scalar|sse2|avx2|avx512   force an implementation
///   HMR_COPY_NT_THRESHOLD=<bytes>           NT-store cutover (0 = off);
///                                           plain decimal digits only,
///                                           anything else keeps the
///                                           L2-size default
namespace hmr::mem {

enum class CopyImpl : std::uint8_t { Scalar = 0, SSE2, AVX2, AVX512 };

/// Human-readable name ("scalar", "sse2", "avx2", "avx512").
const char* copy_impl_name(CopyImpl impl);

/// True when `impl` can run on this CPU (Scalar always can).
bool copy_impl_supported(CopyImpl impl);

/// The implementation `copy` dispatches to (resolved on first call).
CopyImpl copy_impl();

/// Force the dispatched implementation (tests/benches).  Aborts via
/// HMR_CHECK when the CPU does not support it.
void set_copy_impl(CopyImpl impl);

/// Byte size at which `copy` switches to non-temporal stores.  0 means
/// NT stores are disabled and every copy is a plain memcpy.
std::uint64_t copy_nt_threshold();
void set_copy_nt_threshold(std::uint64_t bytes);

/// The threshold a process starts with, as a pure function of its
/// inputs: `env` (the value of HMR_COPY_NT_THRESHOLD, or null) when it
/// is plain decimal digits, else `l2_bytes` (the per-core L2 size that
/// sysconf(_SC_LEVEL2_CACHE_SIZE) reports) when positive, else 1 MiB.
std::uint64_t initial_nt_threshold(const char* env, long l2_bytes);

/// Streaming-store policy for a single copy call.
enum class Stream : std::uint8_t {
  Auto,   ///< NT stores iff bytes >= copy_nt_threshold()
  Always, ///< force NT stores (caller knows the *job* is large, e.g. a
          ///< ChunkRing slice of a multi-MiB migration)
  Never,  ///< plain memcpy regardless of size
};

/// THE copy primitive.  [dst,dst+bytes) and [src,src+bytes) must not
/// overlap (HMR_CHECK'd — migrations move between distinct arenas).
void copy(void* dst, const void* src, std::size_t bytes,
          Stream stream = Stream::Auto);

/// Run a copy through a specific implementation (equivalence tests and
/// the copy_bw bench).  Same overlap contract as `copy`.
void copy_with(CopyImpl impl, void* dst, const void* src, std::size_t bytes,
               Stream stream = Stream::Auto);

/// Process-wide counters: copies that took the NT-store path, and the
/// bytes they moved.  Exported as hmr_copy_nt_* metrics.
std::uint64_t copy_nt_copies();
std::uint64_t copy_nt_bytes();

} // namespace hmr::mem
