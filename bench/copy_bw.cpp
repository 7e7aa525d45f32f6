// copy_bw: bandwidth + correctness sweep of the data-movement kernels
// (docs/PERF.md §4).
//
// For every implementation the host supports (scalar, SSE2, AVX2,
// AVX-512) x a size ladder from 4 KiB to 16 MiB, measures GB/s with
// streaming (non-temporal) stores forced on and off, against plain
// std::memcpy as the reference.  The ladder brackets the NT cutover,
// which defaults to the host's per-core L2 size (printed, and recorded
// in the JSON): below it migrations use cached stores, because the
// task that fetched a block reads it next; at and above it they
// stream.  The headline number is the dispatched kernel vs scalar
// memcpy at 4 MiB with NT on, a copy above the L2 of common hosts,
// where NT stores stop the destination from evicting the source (and
// everything else) out of cache.  On hosts where the copy is bound far
// below the SIMD width (single hardware thread, small LLC), parity is
// the expected and documented outcome — see docs/PERF.md §4.
//
// --check runs the correctness sweep only (every impl x sizes x
// misalignments, memcmp vs memcpy) and exits nonzero on any mismatch;
// CI uses it as a ctest entry.  --json writes BENCH_copy_bw.json: the
// `supported` flags and `check` leaves are deterministic and gated;
// the gbps leaves are wall-clock, and l2_bytes / nt_threshold_bytes
// are facts of the host, so both are only recorded.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "mem/copy_kernel.hpp"
#include "util/argparse.hpp"
#include "util/check.hpp"

namespace {

using namespace hmr;
using mem::CopyImpl;
using mem::Stream;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr CopyImpl kImpls[] = {CopyImpl::Scalar, CopyImpl::SSE2,
                               CopyImpl::AVX2, CopyImpl::AVX512};

/// memcmp equivalence of one impl over a size ladder x misalignments.
/// Returns the number of failures (0 = all byte-identical).
int check_impl(CopyImpl impl) {
  constexpr std::size_t kMax = 1u << 20;
  std::vector<unsigned char> src(kMax + 128), dst(kMax + 128),
      ref(kMax + 128);
  std::mt19937 rng(7);
  for (auto& b : src) b = static_cast<unsigned char>(rng());
  int failures = 0;
  const std::size_t sizes[] = {1,    3,    64,   65,    255,   4096,
                               4097, 8191, 65536, 65599, kMax};
  for (const std::size_t n : sizes) {
    for (const std::size_t soff : {0u, 1u, 17u, 63u}) {
      for (const std::size_t doff : {0u, 9u, 32u}) {
        for (const Stream st : {Stream::Never, Stream::Always}) {
          std::memset(dst.data(), 0xEE, dst.size());
          std::memset(ref.data(), 0xEE, ref.size());
          mem::copy_with(impl, dst.data() + doff, src.data() + soff, n,
                         st);
          std::memcpy(ref.data() + doff, src.data() + soff, n);
          if (std::memcmp(dst.data(), ref.data(), dst.size()) != 0) {
            std::fprintf(stderr,
                         "MISMATCH impl=%s n=%zu soff=%zu doff=%zu "
                         "stream=%d\n",
                         mem::copy_impl_name(impl), n, soff, doff,
                         static_cast<int>(st));
            ++failures;
          }
        }
      }
    }
  }
  return failures;
}

struct Row {
  CopyImpl impl;
  std::uint64_t bytes = 0;
  double gbps_cached = 0; // Stream::Never
  double gbps_nt = 0;     // Stream::Always
};

/// Best-of-reps GB/s for one impl x size, NT off and on.
Row measure(CopyImpl impl, std::uint64_t bytes, int reps) {
  Row row;
  row.impl = impl;
  row.bytes = bytes;
  // 64-byte aligned buffers: the migrate path always hands the kernels
  // arena-aligned pointers, so that is the case worth measuring.
  struct Free {
    void operator()(void* p) const { ::operator delete[](
        p, std::align_val_t(64)); }
  };
  std::unique_ptr<unsigned char, Free> src(static_cast<unsigned char*>(
      ::operator new[](bytes, std::align_val_t(64))));
  std::unique_ptr<unsigned char, Free> dst(static_cast<unsigned char*>(
      ::operator new[](bytes, std::align_val_t(64))));
  std::memset(src.get(), 0xAB, bytes);
  std::memset(dst.get(), 0, bytes); // touch pages
  const double gb = static_cast<double>(bytes) / 1e9;
  for (const Stream st : {Stream::Never, Stream::Always}) {
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      const double t0 = now_s();
      mem::copy_with(impl, dst.get(), src.get(), bytes, st);
      const double s = now_s() - t0;
      if (s > 0) best = std::max(best, gb / s);
    }
    (st == Stream::Never ? row.gbps_cached : row.gbps_nt) = best;
  }
  HMR_CHECK(dst.get()[0] == 0xAB && dst.get()[bytes - 1] == 0xAB);
  return row;
}

} // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool json = false;
  std::int64_t reps = 7;
  ArgParser ap("copy_bw",
               "bandwidth + correctness sweep of the mem::copy kernels "
               "(scalar/SSE2/AVX2/AVX-512, NT stores on/off)");
  ap.add_flag("check", "correctness sweep only (CI gate)", &check);
  ap.add_flag("json", "write BENCH_copy_bw.json", &json);
  ap.add_flag("reps", "best-of-N timing repetitions", &reps);
  if (!ap.parse(argc, argv)) return 1;

  int failures = 0;
  std::vector<CopyImpl> supported;
  for (const CopyImpl impl : kImpls) {
    if (!mem::copy_impl_supported(impl)) continue;
    supported.push_back(impl);
    failures += check_impl(impl);
  }
  std::printf("correctness: %zu impl(s) x sizes x misalignments -> %s\n",
              supported.size(), failures == 0 ? "all byte-identical"
                                              : "FAILURES");
  if (failures > 0) return 1;
  if (check && !json) {
    std::printf("dispatched kernel on this host: %s\n",
                mem::copy_impl_name(mem::copy_impl()));
    return 0;
  }

  const long l2_bytes = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  const std::uint64_t nt_threshold = mem::copy_nt_threshold();
  std::printf("reported L2: %ld bytes; NT cutover in effect: %llu bytes\n",
              l2_bytes, static_cast<unsigned long long>(nt_threshold));

  const std::uint64_t sizes[] = {4u << 10,  64u << 10, 512u << 10, 1u << 20,
                                 2u << 20, 4u << 20,  16u << 20};
  std::printf("\n%-8s %12s %14s %14s\n", "impl", "size", "cached GB/s",
              "NT GB/s");
  std::vector<Row> rows;
  for (const CopyImpl impl : supported) {
    for (const std::uint64_t bytes : sizes) {
      const Row r = measure(impl, bytes, static_cast<int>(reps));
      rows.push_back(r);
      std::printf("%-8s %9llu KiB %14.2f %14.2f\n",
                  mem::copy_impl_name(impl),
                  static_cast<unsigned long long>(bytes >> 10),
                  r.gbps_cached, r.gbps_nt);
    }
  }

  // Headline: dispatched kernel vs scalar memcpy, >= 4 MiB, NT on.
  double dispatched_4mib = 0, scalar_4mib = 0;
  const CopyImpl dispatched = mem::copy_impl();
  for (const Row& r : rows) {
    if (r.bytes != 4u << 20) continue;
    if (r.impl == dispatched) dispatched_4mib = r.gbps_nt;
    if (r.impl == CopyImpl::Scalar) scalar_4mib = r.gbps_cached;
  }
  const double nt_speedup =
      scalar_4mib > 0 ? dispatched_4mib / scalar_4mib : 0;
  std::printf("\ndispatched (%s, NT) vs scalar memcpy at 4 MiB: %.2fx\n",
              mem::copy_impl_name(dispatched), nt_speedup);
  if (nt_speedup < 1.2) {
    std::printf("  (parity/regression on this host is expected when the "
                "copy is core-bound; see docs/PERF.md §4)\n");
  }

  if (json) {
    const char* path = "BENCH_copy_bw.json";
    std::FILE* f = std::fopen(path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"copy_bw\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"l2_bytes\": %ld,\n", l2_bytes);
    std::fprintf(f, "  \"nt_threshold_bytes\": %llu,\n",
                 static_cast<unsigned long long>(nt_threshold));
    std::fprintf(f, "  \"check\": {\"impls_verified\": %zu, "
                 "\"failures\": %d},\n",
                 supported.size(), failures);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(
          f,
          "    {\"name\": \"%s_%llukib\", \"bytes\": %llu, "
          "\"cached_gbps\": %.3f, \"nt_gbps\": %.3f}%s\n",
          mem::copy_impl_name(r.impl),
          static_cast<unsigned long long>(r.bytes >> 10),
          static_cast<unsigned long long>(r.bytes), r.gbps_cached,
          r.gbps_nt, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"dispatched\": \"%s\",\n",
                 mem::copy_impl_name(dispatched));
    std::fprintf(f, "  \"nt_speedup_vs_scalar_4mib\": %.3f\n}\n",
                 nt_speedup);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  }
  return 0;
}
