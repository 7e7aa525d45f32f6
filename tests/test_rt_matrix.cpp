// Configuration-matrix sweep of the threaded runtime: every scheduling
// strategy crossed with eviction mode and the write-only no-copy
// optimization, all validated on a data-integrity workload with real
// migration.

#include <gtest/gtest.h>

#include <atomic>
#include <tuple>

#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "util/units.hpp"

namespace hmr::rt {
namespace {

using MatrixParam =
    std::tuple<ooc::Strategy, bool /*eager*/, bool /*nocopy*/>;

std::string matrix_name(const ::testing::TestParamInfo<MatrixParam>& info) {
  const auto& [s, eager, nocopy] = info.param;
  std::string n = ooc::strategy_name(s);
  n += eager ? "_eager" : "_lazy";
  if (nocopy) n += "_nocopy";
  return n;
}

class RtMatrix : public ::testing::TestWithParam<MatrixParam> {};

TEST_P(RtMatrix, PipelineComputesCorrectly) {
  const auto& [strategy, eager, nocopy] = GetParam();
  Runtime::Config cfg;
  cfg.strategy = strategy;
  cfg.num_pes = 3;
  cfg.mem_scale = 1.0 / 8192; // 2 MiB fast tier
  cfg.eager_evict = eager;
  cfg.writeonly_nocopy = nocopy;
  Runtime rt(cfg);

  // A 3-stage pipeline over 6 independent lanes: src -> mid -> dst,
  // each stage a [prefetch] task; the working set (6 lanes x 3 blocks
  // x 256 KiB = 4.5 MiB) overflows the 2 MiB fast tier.
  constexpr int kLanes = 6;
  constexpr std::uint64_t kElems = 32 * KiB; // 256 KiB per block
  std::vector<IoHandle<double>> src, mid, dst;
  for (int l = 0; l < kLanes; ++l) {
    src.emplace_back(rt, kElems);
    mid.emplace_back(rt, kElems);
    dst.emplace_back(rt, kElems);
    for (std::uint64_t i = 0; i < kElems; ++i) {
      src.back()[i] = l * 1000.0 + static_cast<double>(i % 101);
    }
  }

  for (int l = 0; l < kLanes; ++l) {
    auto& s = src[static_cast<std::size_t>(l)];
    auto& m = mid[static_cast<std::size_t>(l)];
    rt.send_prefetch(l % 3,
                     {s.dep(ooc::AccessMode::ReadOnly),
                      m.dep(ooc::AccessMode::WriteOnly)},
                     [&s, &m] {
                       for (std::uint64_t i = 0; i < kElems; ++i) {
                         m[i] = s[i] * 2.0;
                       }
                     });
  }
  rt.wait_idle();
  for (int l = 0; l < kLanes; ++l) {
    auto& m = mid[static_cast<std::size_t>(l)];
    auto& d = dst[static_cast<std::size_t>(l)];
    rt.send_prefetch(l % 3,
                     {m.dep(ooc::AccessMode::ReadOnly),
                      d.dep(ooc::AccessMode::WriteOnly)},
                     [&m, &d] {
                       for (std::uint64_t i = 0; i < kElems; ++i) {
                         d[i] = m[i] + 1.0;
                       }
                     });
  }
  rt.wait_idle();

  for (int l = 0; l < kLanes; ++l) {
    auto& d = dst[static_cast<std::size_t>(l)];
    for (std::uint64_t i = 0; i < kElems; i += 1003) {
      ASSERT_EQ(d[i], (l * 1000.0 + static_cast<double>(i % 101)) * 2 + 1)
          << "lane " << l << " elem " << i;
    }
  }

  const auto st = rt.policy_stats();
  EXPECT_EQ(st.tasks_run, 2u * kLanes);
  if (ooc::strategy_moves_data(strategy)) {
    EXPECT_GT(st.fetches, 0u);
    if (eager) {
      // Every block returns to the slow tier at quiescence (clean
      // copies may stay behind in the fast tier as shadows).
      EXPECT_EQ(rt.memory().usage(cfg.model.fast).live_blocks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtMatrix,
    ::testing::Combine(
        ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::SingleIo,
                          ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo),
        ::testing::Bool(),  // eager / lazy eviction
        ::testing::Bool()), // writeonly_nocopy
    matrix_name);

} // namespace
} // namespace hmr::rt
