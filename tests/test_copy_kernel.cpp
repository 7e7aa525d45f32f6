// Tests for the data-movement kernel layer (mem/copy_kernel.*): every
// implementation the host supports must be byte-for-byte equivalent to
// std::memcpy over sizes from 1 byte to 8 MiB at every source and
// destination misalignment 0..63, with streaming stores both off and
// forced on.  The overlap contract (migrations copy between distinct
// arenas, never aliasing ranges) is a death test.

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "mem/copy_kernel.hpp"

namespace {

using hmr::mem::CopyImpl;
using hmr::mem::Stream;

constexpr CopyImpl kAll[] = {CopyImpl::Scalar, CopyImpl::SSE2,
                             CopyImpl::AVX2, CopyImpl::AVX512};

std::vector<CopyImpl> supported_impls() {
  std::vector<CopyImpl> out;
  for (const CopyImpl impl : kAll) {
    if (hmr::mem::copy_impl_supported(impl)) out.push_back(impl);
  }
  return out;
}

/// One buffer pair with guard zones: dst is pre-poisoned so both an
/// under-copy and an out-of-range write show up in the full-buffer
/// memcmp against the memcpy reference.
void expect_equivalent(CopyImpl impl, std::size_t n, std::size_t soff,
                       std::size_t doff, Stream stream,
                       const std::vector<unsigned char>& src) {
  ASSERT_LE(soff + n, src.size());
  std::vector<unsigned char> dst(n + 128, 0xEE), ref(n + 128, 0xEE);
  hmr::mem::copy_with(impl, dst.data() + doff, src.data() + soff, n,
                      stream);
  std::memcpy(ref.data() + doff, src.data() + soff, n);
  ASSERT_EQ(0, std::memcmp(dst.data(), ref.data(), dst.size()))
      << "impl=" << hmr::mem::copy_impl_name(impl) << " n=" << n
      << " soff=" << soff << " doff=" << doff
      << " stream=" << static_cast<int>(stream);
}

TEST(CopyKernel, ScalarAlwaysSupported) {
  EXPECT_TRUE(hmr::mem::copy_impl_supported(CopyImpl::Scalar));
  // Whatever the dispatcher picked must itself be supported.
  EXPECT_TRUE(hmr::mem::copy_impl_supported(hmr::mem::copy_impl()));
}

TEST(CopyKernel, EveryImplMatchesMemcpyAtEveryMisalignment) {
  // Sizes chosen to hit every kernel phase: pure-head, head+tail,
  // single vector, unrolled body, body+tail straddles.
  const std::size_t sizes[] = {1,   2,    3,    15,  16,  17,   31,  32,
                               33,  63,   64,   65,  127, 128,  129, 255,
                               256, 1023, 4096, 4097, 65536, 65599};
  std::vector<unsigned char> src((65599 + 64) + 64);
  std::mt19937 rng(42);
  for (auto& b : src) b = static_cast<unsigned char>(rng());
  for (const CopyImpl impl : supported_impls()) {
    for (const std::size_t n : sizes) {
      for (std::size_t off = 0; off < 64; ++off) {
        // Sweep source and destination misalignment independently (one
        // varying, the other fixed off-zero) — a full 64x64 cross per
        // size is slow and adds nothing: the kernels only align dst.
        expect_equivalent(impl, n, off, 11, Stream::Always, src);
        expect_equivalent(impl, n, 7, off, Stream::Always, src);
        expect_equivalent(impl, n, off, off, Stream::Never, src);
      }
    }
  }
}

TEST(CopyKernel, LargeCopiesMatchUpTo8MiB) {
  constexpr std::size_t kMax = 8u << 20;
  std::vector<unsigned char> src(kMax + 64);
  std::mt19937 rng(7);
  for (auto& b : src) b = static_cast<unsigned char>(rng());
  for (const CopyImpl impl : supported_impls()) {
    for (const std::size_t n : {std::size_t{1} << 20, kMax - 63, kMax}) {
      expect_equivalent(impl, n, 3, 5, Stream::Always, src);
      expect_equivalent(impl, n, 0, 0, Stream::Auto, src);
    }
  }
}

TEST(CopyKernel, FuzzRandomSizesAndOffsets) {
  std::mt19937 rng(2026);
  std::vector<unsigned char> src((1u << 20) + 128);
  for (auto& b : src) b = static_cast<unsigned char>(rng());
  const auto impls = supported_impls();
  std::uniform_int_distribution<std::size_t> size_dist(1, 1u << 20);
  std::uniform_int_distribution<std::size_t> off_dist(0, 63);
  for (int i = 0; i < 200; ++i) {
    const CopyImpl impl = impls[static_cast<std::size_t>(i) % impls.size()];
    const std::size_t n = size_dist(rng);
    const Stream st = i % 2 == 0 ? Stream::Always : Stream::Auto;
    expect_equivalent(impl, n, off_dist(rng), off_dist(rng), st, src);
  }
}

TEST(CopyKernel, ZeroBytesIsANoop) {
  unsigned char a = 1, b = 2;
  for (const CopyImpl impl : supported_impls()) {
    hmr::mem::copy_with(impl, &a, &b, 0, Stream::Always);
  }
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(CopyKernel, NtCountersAdvanceOnStreamingPath) {
  const CopyImpl impl = hmr::mem::copy_impl();
  if (impl == CopyImpl::Scalar) {
    GTEST_SKIP() << "scalar has no NT path (documented parity)";
  }
  std::vector<unsigned char> src(1u << 16, 3), dst(1u << 16);
  const auto copies0 = hmr::mem::copy_nt_copies();
  const auto bytes0 = hmr::mem::copy_nt_bytes();
  hmr::mem::copy(dst.data(), src.data(), src.size(), Stream::Always);
  EXPECT_EQ(hmr::mem::copy_nt_copies(), copies0 + 1);
  EXPECT_EQ(hmr::mem::copy_nt_bytes(), bytes0 + src.size());
  // Stream::Never must not count.
  hmr::mem::copy(dst.data(), src.data(), src.size(), Stream::Never);
  EXPECT_EQ(hmr::mem::copy_nt_copies(), copies0 + 1);
}

TEST(CopyKernel, ThresholdGatesAutoStreaming) {
  if (hmr::mem::copy_impl() == CopyImpl::Scalar) {
    GTEST_SKIP() << "scalar has no NT path (documented parity)";
  }
  const auto saved = hmr::mem::copy_nt_threshold();
  std::vector<unsigned char> src(4096, 9), dst(4096);
  hmr::mem::set_copy_nt_threshold(0); // 0 disables NT entirely
  const auto c0 = hmr::mem::copy_nt_copies();
  hmr::mem::copy(dst.data(), src.data(), src.size());
  EXPECT_EQ(hmr::mem::copy_nt_copies(), c0);
  hmr::mem::set_copy_nt_threshold(1024); // now 4 KiB is over threshold
  hmr::mem::copy(dst.data(), src.data(), src.size());
  EXPECT_EQ(hmr::mem::copy_nt_copies(), c0 + 1);
  hmr::mem::set_copy_nt_threshold(saved);
}

TEST(CopyKernel, InitialThresholdTakesPlainDigitsElseTheL2Size) {
  using hmr::mem::initial_nt_threshold;
  constexpr long kL2 = 2l << 20;
  constexpr std::uint64_t kFallback = 1u << 20;
  // No override: the reported L2 size, or 1 MiB when there is none.
  EXPECT_EQ(initial_nt_threshold(nullptr, kL2), std::uint64_t{kL2});
  EXPECT_EQ(initial_nt_threshold(nullptr, 0), kFallback);
  EXPECT_EQ(initial_nt_threshold(nullptr, -1), kFallback);
  // A plain decimal override wins; 0 still turns NT stores off.
  EXPECT_EQ(initial_nt_threshold("4096", kL2), 4096u);
  EXPECT_EQ(initial_nt_threshold("0", kL2), 0u);
  // Signs, blanks, trailing text, empty and overflowing values are
  // malformed and keep the host default instead of a misread number
  // ("-1" would otherwise read as 2^64-1 and never stream).
  for (const char* bad : {"-1", " 12", "12abc", "+12", "", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EQ(initial_nt_threshold(bad, kL2), std::uint64_t{kL2}) << bad;
    EXPECT_EQ(initial_nt_threshold(bad, 0), kFallback) << bad;
  }
}

TEST(CopyKernelDeathTest, OverlappingRangesAreRejected) {
  std::vector<unsigned char> buf(256, 1);
  EXPECT_DEATH(hmr::mem::copy(buf.data() + 16, buf.data(), 64), "overlap");
  EXPECT_DEATH(hmr::mem::copy(buf.data(), buf.data() + 16, 64), "overlap");
  // Exactly adjacent ranges do not alias and must be accepted.
  hmr::mem::copy(buf.data() + 64, buf.data(), 64);
}

} // namespace
