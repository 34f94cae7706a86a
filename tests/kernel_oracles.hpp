#pragma once
// Scalar oracles of LU's blocked panel kernels, and the comparison their
// contract is stated in.
//
// getrf_panel, trsm_left_lower_unit and trsm_right_upper were once these
// loops; they are now blocked (each column block solved by the loop, the
// rest one packed update with A negated) and must reproduce every
// non-NaN result of the loops bit for bit. The loops' arithmetic is kept
// here verbatim, serial and without the argument checks, as the reference:
// the tests, the determinism sweep and perf_wallclock's --smoke identity
// guards compare against it.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "common/span2d.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace rcs::oracle {

/// Gaussian elimination without pivoting, one column at a time, skipping
/// an exact-zero multiplier (getrf_panel's former loop; n >= b).
inline void getrf_panel(Span2D<double> a) {
  const std::size_t n = a.rows();
  const std::size_t b = a.cols();
  for (std::size_t k = 0; k < b; ++k) {
    const double pivot = a(k, k);
    const double inv = 1.0 / pivot;
    for (std::size_t i = k + 1; i < n; ++i) a(i, k) *= inv;
    for (std::size_t i = k + 1; i < n; ++i) {
      const double lik = a(i, k);
      if (lik == 0.0) continue;
      double* ai = a.row(i);
      const double* ak = a.row(k);
      for (std::size_t j = k + 1; j < b; ++j) ai[j] -= lik * ak[j];
    }
  }
}

/// Forward substitution L X = B, L unit lower, skipping an exact-zero
/// L[i,j] (trsm_left_lower_unit's former loop).
inline void trsm_left_lower_unit(Span2D<const double> l, Span2D<double> b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double* bi = b.row(i);
    for (std::size_t j = 0; j < i; ++j) {
      const double lij = l(i, j);
      if (lij == 0.0) continue;
      const double* bj = b.row(j);
      for (std::size_t col = 0; col < b.cols(); ++col) bi[col] -= lij * bj[col];
    }
    // Unit diagonal: no divide.
  }
}

namespace detail {
template <std::size_t R>
void trsm_right_upper_rows(Span2D<const double> u, const double* inv,
                           double* const (&x)[R]) {
  const std::size_t n = u.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double xi[R];
    for (std::size_t q = 0; q < R; ++q) xi[q] = x[q][i] *= inv[i];
    const double* ui = u.row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double uij = ui[j];
      for (std::size_t q = 0; q < R; ++q) x[q][j] -= xi[q] * uij;
    }
  }
}
}  // namespace detail

/// X U = B, U upper non-unit, right-looking per row: x[i] is scaled by
/// 1 / U[i,i], then leaves every later x[j] (trsm_right_upper's former
/// loop, four rows at a time).
inline void trsm_right_upper(Span2D<const double> u, Span2D<double> b) {
  const std::size_t n = u.rows();
  std::vector<double> inv(n);
  for (std::size_t j = 0; j < n; ++j) inv[j] = 1.0 / u(j, j);
  const std::size_t m = b.rows();
  std::size_t r = 0;
  for (; r + 4 <= m; r += 4) {
    double* const x[4] = {b.row(r), b.row(r + 1), b.row(r + 2), b.row(r + 3)};
    detail::trsm_right_upper_rows(u, inv.data(), x);
  }
  for (; r < m; ++r) {
    double* const x[1] = {b.row(r)};
    detail::trsm_right_upper_rows(u, inv.data(), x);
  }
}

/// getrf_blocked with the oracles for its panel and opU steps and
/// gemm_naive for the trailing product: the reference of every blocked LU
/// in the repo (getrf_blocked, lu_functional).
inline void getrf_blocked(Span2D<double> a, std::size_t b) {
  const std::size_t n = a.rows();
  for (std::size_t k = 0; k < n; k += b) {
    const std::size_t kb = b < n - k ? b : n - k;
    getrf_panel(a.block(k, k, n - k, kb));
    if (k + kb >= n) break;
    const std::size_t rest = n - k - kb;
    trsm_left_lower_unit(a.block(k, k, kb, kb), a.block(k, k + kb, kb, rest));
    linalg::Matrix prod(rest, rest);
    linalg::gemm_naive(a.block(k + kb, k, rest, kb),
                       a.block(k, k + kb, kb, rest), prod.view());
    linalg::matrix_sub(a.block(k + kb, k + kb, rest, rest), prod.view());
  }
}

/// The kernels' contract: every non-NaN entry is bit-identical, and a NaN
/// entry is NaN in both at the same position, with payload and sign free
/// (packing A negated flips a NaN's sign, and which NaN wins when two meet
/// in one add is the compiler's choice of operand order).
inline bool equal_up_to_nan_payload(Span2D<const double> a,
                                    Span2D<const double> b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      const double x = a(r, c);
      const double y = b(r, c);
      if (std::isnan(x) || std::isnan(y)) {
        if (!(std::isnan(x) && std::isnan(y))) return false;
      } else if (std::memcmp(&x, &y, sizeof x) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace rcs::oracle
