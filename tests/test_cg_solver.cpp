// Tests for the conjugate-gradient Poisson solver app.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>

#include "apps/cg_solver.hpp"
#include "apps/reference.hpp"
#include "rt/runtime.hpp"

namespace hmr::apps {
namespace {

rt::Runtime::Config cfg(ooc::Strategy s, int pes = 2) {
  rt::Runtime::Config c;
  c.strategy = s;
  c.num_pes = pes;
  c.mem_scale = 1.0 / 4096;
  return c;
}

TEST(Laplacian, MatchesStencilDefinition) {
  // A delta function maps to the 5-point star.
  constexpr int n = 5;
  std::vector<double> v(n * n, 0.0), y;
  v[2 * n + 2] = 1.0;
  CgSolver::apply_laplacian(v, y, n);
  EXPECT_DOUBLE_EQ(y[2 * n + 2], 4.0);
  EXPECT_DOUBLE_EQ(y[1 * n + 2], -1.0);
  EXPECT_DOUBLE_EQ(y[3 * n + 2], -1.0);
  EXPECT_DOUBLE_EQ(y[2 * n + 1], -1.0);
  EXPECT_DOUBLE_EQ(y[2 * n + 3], -1.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(Laplacian, SymmetricPositiveDefinitePropertyHolds) {
  // v' A v > 0 for random nonzero v (SPD is what CG requires).
  constexpr int n = 8;
  std::vector<double> v(n * n), y;
  fill_pattern(v.data(), v.size(), 9);
  CgSolver::apply_laplacian(v, y, n);
  double vav = 0;
  for (std::size_t i = 0; i < v.size(); ++i) vav += v[i] * y[i];
  EXPECT_GT(vav, 0.0);
}

TEST(SerialCg, ConvergesAndSolves) {
  constexpr int n = 16;
  std::vector<double> b(n * n), x;
  fill_pattern(b.data(), b.size(), 3);
  const auto r = CgSolver::serial_solve(b, n, 500, 1e-16, x);
  EXPECT_TRUE(r.converged);
  // Check A x ~= b.
  std::vector<double> ax;
  CgSolver::apply_laplacian(x, ax, n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    ASSERT_NEAR(ax[i], b[i], 1e-6);
  }
}

class CgStrategies : public ::testing::TestWithParam<ooc::Strategy> {};

TEST_P(CgStrategies, MatchesSerialSolver) {
  CgParams p;
  p.n = 24;
  p.strips = 4;
  p.max_iterations = 300;
  p.tolerance = 1e-18;
  rt::Runtime rt(cfg(GetParam(), /*pes=*/4));
  CgSolver app(rt, p);
  const auto res = app.solve();
  EXPECT_TRUE(res.converged);

  std::vector<double> x_ref;
  const auto ref = CgSolver::serial_solve(app.rhs(), p.n,
                                          p.max_iterations, p.tolerance,
                                          x_ref);
  EXPECT_TRUE(ref.converged);
  // Reduction order differs from serial: small drift allowed.
  EXPECT_NEAR(res.iterations, ref.iterations, 2);
  const auto x = app.solution();
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], x_ref[i], 1e-7) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, CgStrategies,
    ::testing::Values(ooc::Strategy::Naive, ooc::Strategy::SingleIo,
                      ooc::Strategy::SyncNoIo, ooc::Strategy::MultiIo),
    [](const auto& pi) { return ooc::strategy_name(pi.param); });

TEST(CgSolver, ResidualIsActuallySmall) {
  CgParams p;
  p.n = 16;
  p.strips = 2;
  p.tolerance = 1e-14;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo));
  CgSolver app(rt, p);
  const auto res = app.solve();
  ASSERT_TRUE(res.converged);
  // Independently verify ||A x - b||.
  std::vector<double> ax;
  CgSolver::apply_laplacian(app.solution(), ax, p.n);
  const auto b = app.rhs();
  double err2 = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err2 += (ax[i] - b[i]) * (ax[i] - b[i]);
  }
  EXPECT_LT(std::sqrt(err2), 1e-5);
}

TEST(CgSolver, SingleStripDegenerateCase) {
  CgParams p;
  p.n = 12;
  p.strips = 1;
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo, 1));
  CgSolver app(rt, p);
  EXPECT_TRUE(app.solve().converged);
}

TEST(CgSolver, StreamsThroughTheFastTier) {
  CgParams p;
  p.n = 32;
  p.strips = 8;
  p.max_iterations = 10;
  p.tolerance = 0.0; // run all 10 iterations
  rt::Runtime rt(cfg(ooc::Strategy::MultiIo, 4));
  CgSolver app(rt, p);
  (void)app.solve();
  const auto st = rt.policy_stats();
  // 4 waves x 8 strips x 10 iterations of annotated tasks.
  EXPECT_EQ(st.tasks_run, 4u * 8 * 10);
  EXPECT_GT(st.fetch_bytes, 0u);
}

// Grid shapes that reach every peeled and tail path of the strip
// kernels: one row per strip, n not a multiple of 4, one strip, and the
// 1x1 grid, whose only column is both the first and the last.
struct CgShape {
  const char* name;
  int n;
  int strips;
};

void PrintTo(const CgShape& s, std::ostream* os) { *os << s.name; }

class CgSolverShapes
    : public ::testing::TestWithParam<std::tuple<CgShape, ooc::Strategy>> {
protected:
  CgParams params(int max_iterations, double tolerance) const {
    CgParams p;
    p.n = std::get<0>(GetParam()).n;
    p.strips = std::get<0>(GetParam()).strips;
    p.max_iterations = max_iterations;
    p.tolerance = tolerance;
    return p;
  }
  rt::Runtime::Config config() const {
    return cfg(std::get<1>(GetParam()), /*pes=*/2);
  }
};

TEST_P(CgSolverShapes, OneIterationMatchesSerialSolver) {
  const CgParams p = params(/*max_iterations=*/1, /*tolerance=*/0.0);
  rt::Runtime rt(config());
  CgSolver app(rt, p);
  const auto res = app.solve();
  ASSERT_EQ(res.iterations, 1);

  std::vector<double> x_ref;
  const auto ref = CgSolver::serial_solve(app.rhs(), p.n, 1, 0.0, x_ref);
  ASSERT_EQ(ref.iterations, 1);
  EXPECT_EQ(res.converged, ref.converged);
  EXPECT_NEAR(res.residual_norm2, ref.residual_norm2,
              1e-12 * ref.residual_norm2);
  const auto x = app.solution();
  ASSERT_EQ(x.size(), x_ref.size());
  double scale = 0;
  for (const double v : x_ref) scale = std::max(scale, std::abs(v));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_LE(std::abs(x[i] - x_ref[i]), 1e-12 * scale) << "at " << i;
  }
}

TEST_P(CgSolverShapes, ConvergedSolveMatchesSerialSolver) {
  const CgParams p = params(/*max_iterations=*/300, /*tolerance=*/1e-18);
  rt::Runtime rt(config());
  CgSolver app(rt, p);
  const auto res = app.solve();
  EXPECT_TRUE(res.converged);

  std::vector<double> x_ref;
  const auto ref = CgSolver::serial_solve(app.rhs(), p.n, p.max_iterations,
                                          p.tolerance, x_ref);
  EXPECT_TRUE(ref.converged);
  const auto x = app.solution();
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_NEAR(x[i], x_ref[i], 1e-7) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, CgSolverShapes,
    ::testing::Combine(
        ::testing::Values(CgShape{"RowPerStrip", 8, 8},
                          CgShape{"N13RowPerStrip", 13, 13},
                          CgShape{"N15Rows3", 15, 5},
                          CgShape{"OneStrip", 14, 1},
                          CgShape{"OneByOne", 1, 1}),
        ::testing::Values(ooc::Strategy::MultiIo, ooc::Strategy::SyncNoIo)),
    [](const auto& pi) {
      return std::string(std::get<0>(pi.param).name) + "_" +
             ooc::strategy_name(std::get<1>(pi.param));
    });

} // namespace
} // namespace hmr::apps
