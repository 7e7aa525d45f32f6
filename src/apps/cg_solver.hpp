#pragma once
// Conjugate-gradient Poisson solver on the threaded runtime: a third
// bandwidth-sensitive application beyond the paper's two benchmarks.
//
// Solves A x = b for the 2D 5-point Laplacian (matrix-free) on an
// n x n grid, decomposed into horizontal strips of rows owned by
// chares.  Each CG iteration is four waves of entry methods:
//
//   1. exchange — send p's boundary rows into the neighbours' ghost
//      buffers                        [readonly: p, writeonly: ghosts]
//   2. matvec   — Ap = A p using the ghosts; contribute dot(p, Ap)
//                                     [readonly: p+ghosts, writeonly: Ap]
//   3. update   — x += a p; r -= a Ap; contribute dot(r, r)
//                                     [readwrite: x r, readonly: p Ap]
//   4. direction — p = r + b p        [readwrite: p, readonly: r]
//
// The scalar recurrences (alpha, beta) run on the driver thread from
// Reduction results, exactly like a Charm++ main chare.  Every vector
// lives in IoHandles, so the whole Krylov state streams through the
// fast tier under any scheduling strategy.
//
// The strip kernels and solve()'s b.b keep four independent partial
// sums per dot product, added up in a fixed order, so no loop waits on
// one floating-point add at a time and each strip's contribution is the
// same on every run.  matvec peels the first and the last column, so
// its inner loop has no branches.  serial_solve and apply_laplacian
// stay the plain single-accumulator code and share nothing with these
// kernels: they are the independent reference the checks compare
// against (docs/PERF.md §5).

#include <memory>
#include <vector>

#include "rt/chare.hpp"
#include "rt/collectives.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"

namespace hmr::apps {

struct CgParams {
  int n = 64;          // grid points per side (unknowns: n*n)
  int strips = 4;      // chare count; must divide n
  int max_iterations = 200;
  double tolerance = 1e-10; // on ||r||^2 / ||b||^2
  std::uint64_t seed = 13;  // right-hand side fill
};

struct CgResult {
  int iterations = 0;
  double residual_norm2 = 0; // final ||r||^2
  bool converged = false;
};

class CgSolver {
public:
  struct Strip : rt::Chare {
    int row0 = 0, rows = 0;
    rt::IoHandle<double> x, r, p, ap;
    rt::IoHandle<double> ghost_up;   // neighbour row above (row0 - 1)
    rt::IoHandle<double> ghost_down; // neighbour row below
  };

  CgSolver(rt::Runtime& rt, CgParams params);

  /// Run CG to convergence or max_iterations.
  CgResult solve();

  /// Dense copies for validation.
  std::vector<double> solution() const;  // x
  std::vector<double> rhs() const;       // b (implied by the fill)

  const CgParams& params() const { return p_; }

  /// Serial reference: identical algorithm on one thread.
  static CgResult serial_solve(const std::vector<double>& b, int n,
                               int max_iterations, double tolerance,
                               std::vector<double>& x_out);

  /// y = A v for the 2D 5-point Laplacian (Dirichlet boundary).
  static void apply_laplacian(const std::vector<double>& v,
                              std::vector<double>& y, int n);

private:
  void do_exchange(Strip& s);
  void do_matvec(Strip& s);
  void do_update(Strip& s);
  void do_direction(Strip& s);

  rt::Runtime* rt_;
  CgParams p_;
  std::vector<double> b_; // dense right-hand side (driver-owned)
  std::unique_ptr<rt::ChareArray<Strip>> strips_;
  std::size_t kExchange_ = 0, kMatvec_ = 0, kUpdate_ = 0, kDirection_ = 0;

  // Scalars of the current iteration (read by entry methods).
  double alpha_ = 0;
  double beta_ = 0;
  std::unique_ptr<rt::Reduction<double>> pap_red_;
  std::unique_ptr<rt::Reduction<double>> rr_red_;
};

} // namespace hmr::apps
