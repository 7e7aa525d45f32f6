#include "mem/copy_kernel.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unistd.h>

#include "util/check.hpp"
#include "util/parse.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define HMR_COPY_X86 1
#include <immintrin.h>
#else
#define HMR_COPY_X86 0
#endif

namespace hmr::mem {
namespace {

// Cutover when the host reports no L2 size (the paper's KNL has 1 MiB
// of L2 per tile, so there the two rules agree).
constexpr std::uint64_t kFallbackNtThreshold = 1ull << 20; // 1 MiB

std::atomic<std::uint64_t> g_nt_threshold{kFallbackNtThreshold};
std::atomic<std::uint64_t> g_nt_copies{0};
std::atomic<std::uint64_t> g_nt_bytes{0};

// ------------------------------------------------------ NT kernels
//
// Shared shape: a scalar head up to the destination's vector
// alignment, an unrolled body of unaligned loads + aligned streaming
// stores, a memcpy tail, and one sfence so the weakly-ordered NT
// stores are globally visible before the migration is declared done.
// The source is never assumed aligned — arenas align to 64 but chunk
// offsets and test harnesses do not.

#if HMR_COPY_X86

__attribute__((target("sse2"))) void nt_copy_sse2(std::byte* dst,
                                                  const std::byte* src,
                                                  std::size_t n) {
  std::size_t head =
      (-reinterpret_cast<std::uintptr_t>(dst)) & (sizeof(__m128i) - 1);
  if (head > n) head = n; // tiny copy: everything is "head"
  if (head != 0) {
    std::memcpy(dst, src, head);
    dst += head;
    src += head;
    n -= head;
  }
  while (n >= 4 * sizeof(__m128i)) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src) + 1);
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src) + 2);
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src) + 3);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst), a);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst) + 1, b);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst) + 2, c);
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst) + 3, d);
    dst += 4 * sizeof(__m128i);
    src += 4 * sizeof(__m128i);
    n -= 4 * sizeof(__m128i);
  }
  while (n >= sizeof(__m128i)) {
    _mm_stream_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    dst += sizeof(__m128i);
    src += sizeof(__m128i);
    n -= sizeof(__m128i);
  }
  if (n != 0) std::memcpy(dst, src, n);
  _mm_sfence();
}

__attribute__((target("avx2"))) void nt_copy_avx2(std::byte* dst,
                                                  const std::byte* src,
                                                  std::size_t n) {
  std::size_t head =
      (-reinterpret_cast<std::uintptr_t>(dst)) & (sizeof(__m256i) - 1);
  if (head > n) head = n; // tiny copy: everything is "head"
  if (head != 0) {
    std::memcpy(dst, src, head);
    dst += head;
    src += head;
    n -= head;
  }
  while (n >= 4 * sizeof(__m256i)) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src) + 1);
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src) + 2);
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src) + 3);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst), a);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst) + 1, b);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst) + 2, c);
    _mm256_stream_si256(reinterpret_cast<__m256i*>(dst) + 3, d);
    dst += 4 * sizeof(__m256i);
    src += 4 * sizeof(__m256i);
    n -= 4 * sizeof(__m256i);
  }
  while (n >= sizeof(__m256i)) {
    _mm256_stream_si256(
        reinterpret_cast<__m256i*>(dst),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src)));
    dst += sizeof(__m256i);
    src += sizeof(__m256i);
    n -= sizeof(__m256i);
  }
  if (n != 0) std::memcpy(dst, src, n);
  _mm_sfence();
}

__attribute__((target("avx512f"))) void nt_copy_avx512(std::byte* dst,
                                                       const std::byte* src,
                                                       std::size_t n) {
  std::size_t head =
      (-reinterpret_cast<std::uintptr_t>(dst)) & (sizeof(__m512i) - 1);
  if (head > n) head = n; // tiny copy: everything is "head"
  if (head != 0) {
    std::memcpy(dst, src, head);
    dst += head;
    src += head;
    n -= head;
  }
  while (n >= 4 * sizeof(__m512i)) {
    const __m512i a = _mm512_loadu_si512(src);
    const __m512i b = _mm512_loadu_si512(src + sizeof(__m512i));
    const __m512i c = _mm512_loadu_si512(src + 2 * sizeof(__m512i));
    const __m512i d = _mm512_loadu_si512(src + 3 * sizeof(__m512i));
    _mm512_stream_si512(reinterpret_cast<__m512i*>(dst), a);
    _mm512_stream_si512(reinterpret_cast<__m512i*>(dst) + 1, b);
    _mm512_stream_si512(reinterpret_cast<__m512i*>(dst) + 2, c);
    _mm512_stream_si512(reinterpret_cast<__m512i*>(dst) + 3, d);
    dst += 4 * sizeof(__m512i);
    src += 4 * sizeof(__m512i);
    n -= 4 * sizeof(__m512i);
  }
  while (n >= sizeof(__m512i)) {
    _mm512_stream_si512(reinterpret_cast<__m512i*>(dst),
                        _mm512_loadu_si512(src));
    dst += sizeof(__m512i);
    src += sizeof(__m512i);
    n -= sizeof(__m512i);
  }
  if (n != 0) std::memcpy(dst, src, n);
  _mm_sfence();
}

#endif // HMR_COPY_X86

// ------------------------------------------------------- dispatch

bool impl_supported(CopyImpl impl) {
  switch (impl) {
    case CopyImpl::Scalar:
      return true;
#if HMR_COPY_X86
    case CopyImpl::SSE2:
      return __builtin_cpu_supports("sse2") != 0;
    case CopyImpl::AVX2:
      return __builtin_cpu_supports("avx2") != 0;
    case CopyImpl::AVX512:
      return __builtin_cpu_supports("avx512f") != 0;
#else
    default:
      return false;
#endif
  }
  return false;
}

CopyImpl pick_impl() {
  if (const char* env = std::getenv("HMR_COPY_IMPL")) {
    const std::string want(env);
    CopyImpl forced = CopyImpl::Scalar;
    bool known = true;
    if (want == "scalar") {
      forced = CopyImpl::Scalar;
    } else if (want == "sse2") {
      forced = CopyImpl::SSE2;
    } else if (want == "avx2") {
      forced = CopyImpl::AVX2;
    } else if (want == "avx512") {
      forced = CopyImpl::AVX512;
    } else {
      known = false;
    }
    if (known && impl_supported(forced)) return forced;
    // Unknown or unsupported override: fall through to auto-detection
    // rather than crashing a run over an env typo.
  }
  if (impl_supported(CopyImpl::AVX512)) return CopyImpl::AVX512;
  if (impl_supported(CopyImpl::AVX2)) return CopyImpl::AVX2;
  if (impl_supported(CopyImpl::SSE2)) return CopyImpl::SSE2;
  return CopyImpl::Scalar;
}

std::atomic<CopyImpl>& impl_slot() {
  static std::atomic<CopyImpl> slot{pick_impl()};
  return slot;
}

struct ThresholdEnvInit {
  ThresholdEnvInit() {
    g_nt_threshold.store(
        initial_nt_threshold(std::getenv("HMR_COPY_NT_THRESHOLD"),
                             ::sysconf(_SC_LEVEL2_CACHE_SIZE)));
  }
};
ThresholdEnvInit g_threshold_env_init;

void dispatch_nt(CopyImpl impl, std::byte* dst, const std::byte* src,
                 std::size_t n) {
  switch (impl) {
#if HMR_COPY_X86
    case CopyImpl::SSE2:
      nt_copy_sse2(dst, src, n);
      return;
    case CopyImpl::AVX2:
      nt_copy_avx2(dst, src, n);
      return;
    case CopyImpl::AVX512:
      nt_copy_avx512(dst, src, n);
      return;
#endif
    default:
      // Scalar has no NT-store form: plain memcpy, documented parity
      // (docs/PERF.md §4).
      std::memcpy(dst, src, n);
      return;
  }
}

void check_no_overlap(const void* dst, const void* src, std::size_t n) {
  const auto d = reinterpret_cast<std::uintptr_t>(dst);
  const auto s = reinterpret_cast<std::uintptr_t>(src);
  HMR_CHECK_MSG(d + n <= s || s + n <= d,
                "mem::copy ranges overlap (migrations move between "
                "distinct arenas; use memmove for aliasing copies)");
}

} // namespace

const char* copy_impl_name(CopyImpl impl) {
  switch (impl) {
    case CopyImpl::Scalar:
      return "scalar";
    case CopyImpl::SSE2:
      return "sse2";
    case CopyImpl::AVX2:
      return "avx2";
    case CopyImpl::AVX512:
      return "avx512";
  }
  return "?";
}

bool copy_impl_supported(CopyImpl impl) { return impl_supported(impl); }

CopyImpl copy_impl() { return impl_slot().load(std::memory_order_relaxed); }

void set_copy_impl(CopyImpl impl) {
  HMR_CHECK_MSG(impl_supported(impl),
                "forced copy impl not supported on this CPU");
  impl_slot().store(impl, std::memory_order_relaxed);
}

std::uint64_t copy_nt_threshold() {
  return g_nt_threshold.load(std::memory_order_relaxed);
}

void set_copy_nt_threshold(std::uint64_t bytes) {
  g_nt_threshold.store(bytes, std::memory_order_relaxed);
}

std::uint64_t initial_nt_threshold(const char* env, long l2_bytes) {
  if (env != nullptr) {
    if (const auto v = parse_u64(env)) return *v;
  }
  return l2_bytes > 0 ? static_cast<std::uint64_t>(l2_bytes)
                      : kFallbackNtThreshold;
}

std::uint64_t copy_nt_copies() {
  return g_nt_copies.load(std::memory_order_relaxed);
}

std::uint64_t copy_nt_bytes() {
  return g_nt_bytes.load(std::memory_order_relaxed);
}

void copy_with(CopyImpl impl, void* dst, const void* src, std::size_t bytes,
               Stream stream) {
  if (bytes == 0) return;
  check_no_overlap(dst, src, bytes);
  const std::uint64_t threshold =
      g_nt_threshold.load(std::memory_order_relaxed);
  const bool nt = stream == Stream::Always ||
                  (stream == Stream::Auto && threshold != 0 &&
                   bytes >= threshold);
  if (!nt || impl == CopyImpl::Scalar) {
    std::memcpy(dst, src, bytes);
    return;
  }
  dispatch_nt(impl, static_cast<std::byte*>(dst),
              static_cast<const std::byte*>(src), bytes);
  g_nt_copies.fetch_add(1, std::memory_order_relaxed);
  g_nt_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void copy(void* dst, const void* src, std::size_t bytes, Stream stream) {
  copy_with(copy_impl(), dst, src, bytes, stream);
}

} // namespace hmr::mem
