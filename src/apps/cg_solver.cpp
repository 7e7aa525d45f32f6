#include "apps/cg_solver.hpp"

#include <cmath>
#include <cstring>

#include "apps/reference.hpp"
#include "util/check.hpp"

namespace hmr::apps {

namespace {

// The reference dot product: one accumulator, one dependent add per
// element.  serial_solve uses it, so the checks compare against a plain
// summation that shares no code with the kernels below.
double reference_dot(const double* a, const double* b, std::size_t n) {
  double s = 0;
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

// The kernels below keep four independent partial sums, so no loop
// waits on one floating-point add at a time, and add them up in a fixed
// order, so each strip's contribution is the same on every run.  Their
// pointers are __restrict and their scalars arrive by value, so GCC at
// -O2 keeps values in registers and pairs the unrolled lanes into SSE2
// operations.
double sum4(double s0, double s1, double s2, double s3) {
  return (s0 + s1) + (s2 + s3);
}

double dot(const double* __restrict a, const double* __restrict b,
           std::size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return sum4(s0, s1, s2, s3);
}

// out = A row for one grid row: the 5-point stencil with zeros beyond
// the first and the last column.  Both end columns are peeled, so the
// interior loop has no branches.  Returns row . out.
double stencil_row(const double* __restrict row,
                   const double* __restrict above,
                   const double* __restrict below, double* __restrict out,
                   std::size_t n) {
  if (n == 1) {
    out[0] = 4.0 * row[0] - above[0] - below[0];
    return row[0] * out[0];
  }
  out[0] = 4.0 * row[0] - above[0] - below[0] - row[1];
  for (std::size_t c = 1; c + 1 < n; ++c) {
    out[c] = 4.0 * row[c] - above[c] - below[c] - row[c - 1] - row[c + 1];
  }
  out[n - 1] = 4.0 * row[n - 1] - above[n - 1] - below[n - 1] - row[n - 2];
  return dot(row, out, n);
}

// x += alpha p; r -= alpha ap; returns r . r.
double update_strip(double alpha, const double* __restrict p,
                    const double* __restrict ap, double* __restrict x,
                    double* __restrict r, std::size_t n) {
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    x[i] += alpha * p[i];
    x[i + 1] += alpha * p[i + 1];
    x[i + 2] += alpha * p[i + 2];
    x[i + 3] += alpha * p[i + 3];
    r[i] -= alpha * ap[i];
    r[i + 1] -= alpha * ap[i + 1];
    r[i + 2] -= alpha * ap[i + 2];
    r[i + 3] -= alpha * ap[i + 3];
    s0 += r[i] * r[i];
    s1 += r[i + 1] * r[i + 1];
    s2 += r[i + 2] * r[i + 2];
    s3 += r[i + 3] * r[i + 3];
  }
  for (; i < n; ++i) {
    x[i] += alpha * p[i];
    r[i] -= alpha * ap[i];
    s0 += r[i] * r[i];
  }
  return sum4(s0, s1, s2, s3);
}

// p = r + beta p.
void direction_strip(double beta, const double* __restrict r,
                     double* __restrict p, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    p[i] = r[i] + beta * p[i];
    p[i + 1] = r[i + 1] + beta * p[i + 1];
    p[i + 2] = r[i + 2] + beta * p[i + 2];
    p[i + 3] = r[i + 3] + beta * p[i + 3];
  }
  for (; i < n; ++i) p[i] = r[i] + beta * p[i];
}

} // namespace

void CgSolver::apply_laplacian(const std::vector<double>& v,
                               std::vector<double>& y, int n) {
  HMR_CHECK(v.size() == static_cast<std::size_t>(n) * n);
  y.resize(v.size());
  auto at = [&](int row, int col) -> double {
    if (row < 0 || row >= n || col < 0 || col >= n) return 0.0;
    return v[static_cast<std::size_t>(row) * n + col];
  };
  for (int row = 0; row < n; ++row) {
    for (int col = 0; col < n; ++col) {
      y[static_cast<std::size_t>(row) * n + col] =
          4.0 * at(row, col) - at(row - 1, col) - at(row + 1, col) -
          at(row, col - 1) - at(row, col + 1);
    }
  }
}

CgSolver::CgSolver(rt::Runtime& rt, CgParams params)
    : rt_(&rt), p_(params) {
  HMR_CHECK(p_.n > 0 && p_.strips > 0);
  HMR_CHECK_MSG(p_.n % p_.strips == 0, "strips must divide n");
  const int rows = p_.n / p_.strips;
  HMR_CHECK_MSG(p_.strips <= rt.num_pes() * 64, "too many strips");

  b_.resize(static_cast<std::size_t>(p_.n) * p_.n);
  fill_pattern(b_.data(), b_.size(), p_.seed);

  strips_ = std::make_unique<rt::ChareArray<Strip>>(
      *rt_, p_.strips, [&](Strip& s) {
        s.row0 = s.index * rows;
        s.rows = rows;
        const auto elems =
            static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(p_.n);
        s.x = rt::IoHandle<double>(*rt_, elems);
        s.r = rt::IoHandle<double>(*rt_, elems);
        s.p = rt::IoHandle<double>(*rt_, elems);
        s.ap = rt::IoHandle<double>(*rt_, elems);
        s.ghost_up = rt::IoHandle<double>(*rt_, static_cast<std::uint64_t>(p_.n));
        s.ghost_down =
            rt::IoHandle<double>(*rt_, static_cast<std::uint64_t>(p_.n));
        // x = 0; r = p = b (the CG start with x0 = 0).
        std::memset(s.x.data(), 0, elems * sizeof(double));
        std::memcpy(s.r.data(),
                    b_.data() + static_cast<std::size_t>(s.row0) * p_.n,
                    elems * sizeof(double));
        std::memcpy(s.p.data(), s.r.data(), elems * sizeof(double));
        std::memset(s.ghost_up.data(), 0, p_.n * sizeof(double));
        std::memset(s.ghost_down.data(), 0, p_.n * sizeof(double));
      });

  kExchange_ = strips_->register_entry(
      "exchange", true, [this](Strip& s) { do_exchange(s); },
      [this](Strip& s) {
        rt::Runtime::DepList deps{s.p.dep(ooc::AccessMode::ReadOnly)};
        if (s.index > 0) {
          deps.push_back((*strips_)[s.index - 1].ghost_down.dep(
              ooc::AccessMode::WriteOnly));
        }
        if (s.index + 1 < p_.strips) {
          deps.push_back((*strips_)[s.index + 1].ghost_up.dep(
              ooc::AccessMode::WriteOnly));
        }
        return deps;
      });
  kMatvec_ = strips_->register_entry(
      "matvec", true, [this](Strip& s) { do_matvec(s); },
      [](Strip& s) {
        return rt::Runtime::DepList{
            s.p.dep(ooc::AccessMode::ReadOnly),
            s.ghost_up.dep(ooc::AccessMode::ReadOnly),
            s.ghost_down.dep(ooc::AccessMode::ReadOnly),
            s.ap.dep(ooc::AccessMode::WriteOnly)};
      },
      /*work_factor=*/5.0);
  kUpdate_ = strips_->register_entry(
      "update", true, [this](Strip& s) { do_update(s); },
      [](Strip& s) {
        return rt::Runtime::DepList{
            s.x.dep(ooc::AccessMode::ReadWrite),
            s.r.dep(ooc::AccessMode::ReadWrite),
            s.p.dep(ooc::AccessMode::ReadOnly),
            s.ap.dep(ooc::AccessMode::ReadOnly)};
      });
  kDirection_ = strips_->register_entry(
      "direction", true, [this](Strip& s) { do_direction(s); },
      [](Strip& s) {
        return rt::Runtime::DepList{s.p.dep(ooc::AccessMode::ReadWrite),
                                    s.r.dep(ooc::AccessMode::ReadOnly)};
      });
}

void CgSolver::do_exchange(Strip& s) {
  const double* p = s.p.data();
  if (s.index > 0) {
    double* g = (*strips_)[s.index - 1].ghost_down.data();
    std::memcpy(g, p, static_cast<std::size_t>(p_.n) * sizeof(double));
  }
  if (s.index + 1 < p_.strips) {
    double* g = (*strips_)[s.index + 1].ghost_up.data();
    std::memcpy(g,
                p + static_cast<std::size_t>(s.rows - 1) * p_.n,
                static_cast<std::size_t>(p_.n) * sizeof(double));
  }
}

void CgSolver::do_matvec(Strip& s) {
  const double* p = s.p.data();
  const double* up = s.ghost_up.data();     // row row0-1 (zeros at top)
  const double* down = s.ghost_down.data(); // row row0+rows
  double* ap = s.ap.data();
  const auto n = static_cast<std::size_t>(p_.n);
  const auto rows = static_cast<std::size_t>(s.rows);
  double pap = 0;
  for (std::size_t lr = 0; lr < rows; ++lr) {
    const double* row = p + lr * n;
    const double* above = lr > 0 ? row - n : up;
    const double* below = lr + 1 < rows ? row + n : down;
    pap += stencil_row(row, above, below, ap + lr * n, n);
  }
  pap_red_->contribute(pap);
}

void CgSolver::do_update(Strip& s) {
  const auto elems =
      static_cast<std::size_t>(s.rows) * static_cast<std::size_t>(p_.n);
  rr_red_->contribute(update_strip(alpha_, s.p.data(), s.ap.data(),
                                   s.x.data(), s.r.data(), elems));
}

void CgSolver::do_direction(Strip& s) {
  const auto elems =
      static_cast<std::size_t>(s.rows) * static_cast<std::size_t>(p_.n);
  direction_strip(beta_, s.r.data(), s.p.data(), elems);
}

CgResult CgSolver::solve() {
  const auto chares = static_cast<std::uint64_t>(p_.strips);
  auto sum = [](const double& a, const double& b) { return a + b; };

  double rr = dot(b_.data(), b_.data(), b_.size()); // r0 = b
  const double rr0 = rr;
  CgResult result;
  for (int it = 0; it < p_.max_iterations; ++it) {
    pap_red_ = std::make_unique<rt::Reduction<double>>(chares, 0.0, sum);
    rr_red_ = std::make_unique<rt::Reduction<double>>(chares, 0.0, sum);

    strips_->broadcast(kExchange_);
    rt_->wait_idle();
    strips_->broadcast(kMatvec_);
    const double pap = pap_red_->wait();
    rt_->wait_idle();

    alpha_ = rr / pap;
    strips_->broadcast(kUpdate_);
    const double rr_new = rr_red_->wait();
    rt_->wait_idle();

    result.iterations = it + 1;
    result.residual_norm2 = rr_new;
    if (rr_new <= p_.tolerance * rr0) {
      result.converged = true;
      return result;
    }
    beta_ = rr_new / rr;
    rr = rr_new;
    strips_->broadcast(kDirection_);
    rt_->wait_idle();
  }
  return result;
}

std::vector<double> CgSolver::solution() const {
  std::vector<double> out(static_cast<std::size_t>(p_.n) * p_.n);
  for (int i = 0; i < p_.strips; ++i) {
    const Strip& s = (*strips_)[i];
    std::memcpy(out.data() + static_cast<std::size_t>(s.row0) * p_.n,
                s.x.data(),
                static_cast<std::size_t>(s.rows) * p_.n * sizeof(double));
  }
  return out;
}

std::vector<double> CgSolver::rhs() const { return b_; }

CgResult CgSolver::serial_solve(const std::vector<double>& b, int n,
                                int max_iterations, double tolerance,
                                std::vector<double>& x_out) {
  const std::size_t nn = b.size();
  HMR_CHECK(nn == static_cast<std::size_t>(n) * n);
  x_out.assign(nn, 0.0);
  std::vector<double> r = b, p = b, ap;
  double rr = reference_dot(r.data(), r.data(), nn);
  const double rr0 = rr;
  CgResult result;
  for (int it = 0; it < max_iterations; ++it) {
    apply_laplacian(p, ap, n);
    const double pap = reference_dot(p.data(), ap.data(), nn);
    const double alpha = rr / pap;
    double rr_new = 0;
    for (std::size_t i = 0; i < nn; ++i) {
      x_out[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
      rr_new += r[i] * r[i];
    }
    result.iterations = it + 1;
    result.residual_norm2 = rr_new;
    if (rr_new <= tolerance * rr0) {
      result.converged = true;
      return result;
    }
    const double beta = rr_new / rr;
    rr = rr_new;
    for (std::size_t i = 0; i < nn; ++i) p[i] = r[i] + beta * p[i];
  }
  return result;
}

} // namespace hmr::apps
