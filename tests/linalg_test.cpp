// Tests for the dense linear-algebra substrate: gemm variants (including
// bit-identity between the naive and blocked paths), triangular solves, LU
// factorization (unblocked, panel, blocked), and the generators.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/matrix.hpp"

namespace la = rcs::linalg;

namespace {

TEST(Matrix, BasicsAndViews) {
  la::Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_EQ(m.view()(1, 2), 5.0);
  auto blk = m.block(0, 1, 2, 2);
  EXPECT_EQ(blk(1, 1), 5.0);
}

TEST(Matrix, IdentityAndEquality) {
  la::Matrix i = la::Matrix::identity(3);
  EXPECT_EQ(i(0, 0), 1.0);
  EXPECT_EQ(i(0, 1), 0.0);
  la::Matrix j = la::Matrix::identity(3);
  EXPECT_TRUE(i == j);
  j(2, 2) = 2.0;
  EXPECT_FALSE(i == j);
}

TEST(Matrix, CopyStridedView) {
  la::Matrix m = la::random_matrix(6, 6, 1);
  la::Matrix sub = la::Matrix::from_view(m.block(2, 3, 3, 2));
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c)
      EXPECT_EQ(sub(r, c), m(2 + r, 3 + c));
}

TEST(Matrix, Norms) {
  la::Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(0, 1) = 4.0;
  EXPECT_DOUBLE_EQ(la::frobenius_norm(m.view()), 5.0);
  EXPECT_DOUBLE_EQ(la::max_abs(m.view()), 4.0);
}

TEST(Matrix, BitEqual) {
  la::Matrix a = la::random_matrix(4, 4, 2);
  la::Matrix b = a;
  EXPECT_TRUE(la::bit_equal(a.view(), b.view()));
  b(3, 3) = -b(3, 3);
  EXPECT_FALSE(la::bit_equal(a.view(), b.view()));
}

TEST(Gemm, MatchesHandComputed) {
  la::Matrix a(2, 2), b(2, 2), c(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 3; a(1, 1) = 4;
  b(0, 0) = 5; b(0, 1) = 6; b(1, 0) = 7; b(1, 1) = 8;
  la::gemm(a.view(), b.view(), c.view());
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(Gemm, AccumulatesIntoC) {
  la::Matrix a = la::Matrix::identity(3);
  la::Matrix b = la::random_matrix(3, 3, 3);
  la::Matrix c(3, 3, 1.0);
  la::gemm(a.view(), b.view(), c.view());
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(c(i, j), 1.0 + b(i, j));
}

class GemmShapes
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmShapes, BlockedBitIdenticalToNaive) {
  const auto [m, k, n] = GetParam();
  la::Matrix a = la::random_matrix(m, k, 11);
  la::Matrix b = la::random_matrix(k, n, 13);
  la::Matrix c1 = la::random_matrix(m, n, 17);
  la::Matrix c2 = c1;
  la::gemm_naive(a.view(), b.view(), c1.view());
  la::gemm(a.view(), b.view(), c2.view());
  EXPECT_TRUE(la::bit_equal(c1.view(), c2.view()))
      << "shape " << m << "x" << k << "x" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{3, 5, 7},
                      std::tuple{16, 16, 16}, std::tuple{64, 64, 64},
                      std::tuple{65, 70, 129}, std::tuple{100, 1, 100},
                      std::tuple{1, 128, 1}, std::tuple{130, 257, 66}));

TEST(Gemm, ShapeMismatchThrows) {
  la::Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(la::gemm(a.view(), b.view(), c.view()), rcs::Error);
}

TEST(Gemm, StridedBlocksCompose) {
  la::Matrix big = la::random_matrix(8, 8, 5);
  la::Matrix c(4, 4);
  la::gemm_overwrite(big.block(0, 0, 4, 4), big.block(4, 4, 4, 4), c.view());
  la::Matrix a = la::Matrix::from_view(big.block(0, 0, 4, 4));
  la::Matrix b = la::Matrix::from_view(big.block(4, 4, 4, 4));
  la::Matrix ref(4, 4);
  la::gemm_naive(a.view(), b.view(), ref.view());
  EXPECT_TRUE(la::bit_equal(c.view(), ref.view()));
}

TEST(Matrix, StorageIs64ByteAligned) {
  const auto aligned = [](const la::Matrix& m) {
    return reinterpret_cast<std::uintptr_t>(m.data()) % 64 == 0;
  };
  for (std::size_t cols : {1, 3, 7, 8, 33}) {
    const la::Matrix a = la::random_matrix(5, cols, 3);
    EXPECT_TRUE(aligned(a)) << "construct cols=" << cols;
    la::Matrix copy = a;
    EXPECT_TRUE(aligned(copy)) << "copy cols=" << cols;
    la::Matrix assigned(2, 2);
    assigned = a;
    EXPECT_TRUE(aligned(assigned)) << "copy-assign cols=" << cols;
    const la::Matrix moved = std::move(copy);
    EXPECT_TRUE(aligned(moved)) << "move cols=" << cols;
    const la::Matrix sub = la::Matrix::from_view(a.block(1, 0, 3, cols));
    EXPECT_TRUE(aligned(sub)) << "from_view cols=" << cols;
    EXPECT_EQ(sub.view().stride(), cols);  // rows stay packed, no padding
  }
}

TEST(Trsm, LeftLowerUnitSolves) {
  const std::size_t n = 24, m = 10;
  la::Matrix l = la::random_matrix(n, n, 19, 0.1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    l(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  la::Matrix x = la::random_matrix(n, m, 23);
  la::Matrix bmat(n, m);
  la::gemm_overwrite(l.view(), x.view(), bmat.view());
  la::trsm_left_lower_unit(l.view(), bmat.view());
  EXPECT_LT(la::max_abs_diff(bmat.view(), x.view()), 1e-9);
}

TEST(Trsm, RightUpperSolves) {
  const std::size_t n = 24, m = 10;
  la::Matrix u = la::random_matrix(n, n, 29, 0.1, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    u(i, i) = 2.0 + double(i % 3);  // keep well-conditioned
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
  }
  la::Matrix x = la::random_matrix(m, n, 31);
  la::Matrix bmat(m, n);
  la::gemm_overwrite(x.view(), u.view(), bmat.view());
  la::trsm_right_upper(u.view(), bmat.view());
  EXPECT_LT(la::max_abs_diff(bmat.view(), x.view()), 1e-9);
}

// trsm_right_upper's former left-looking loop, kept verbatim as the oracle
// of the right-looking one: each x[j] is a dot product walking column j of
// U, x[j] = (b[j] - sum_{i<j} x[i] U[i,j]) * (1 / U[j,j]).
void trsm_right_upper_dot(rcs::Span2D<const double> u, rcs::Span2D<double> b) {
  const std::size_t n = u.rows();
  std::vector<double> inv(n);
  for (std::size_t j = 0; j < n; ++j) inv[j] = 1.0 / u(j, j);
  for (std::size_t r = 0; r < b.rows(); ++r) {
    double* x = b.row(r);
    for (std::size_t j = 0; j < n; ++j) {
      double acc = x[j];
      for (std::size_t i = 0; i < j; ++i) acc -= x[i] * u(i, j);
      x[j] = acc * inv[j];
    }
  }
}

// Right-looking vs the dot-product oracle, bitwise: ragged triangle orders
// and right-hand-side counts, U and B as strided blocks of wider matrices,
// B salted with +0 and -0 (a -0 entry whose subtractions are all +0 must
// stay -0) and, in every third row, NaNs of both signs (NaN payloads must
// come out the same; a NaN poisons the rest of its row, so the other rows
// stay finite and show any change of operation order in their rounding).
TEST(Trsm, RightUpperBitIdenticalToDotProductLoop) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0, -0.0, nan, -nan};
  for (std::size_t n : {1, 2, 7, 8, 9, 33, 192, 257}) {
    for (std::size_t m : {1, 3, 17}) {
      la::Matrix wu = la::random_matrix(n + 3, n + 5, 41, -0.1, 0.1);
      const auto u = wu.block(2, 3, n, n);
      for (std::size_t i = 0; i < n; ++i) {
        u(i, i) = (i % 2 == 0 ? 2.0 : -3.0) + 0.01 * static_cast<double>(i);
        for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
      }
      la::Matrix wb = la::random_matrix(m + 2, n + 4, 43);
      for (std::size_t r = 0; r < m; ++r) {
        const std::size_t kinds = r % 3 == 2 ? 4 : 2;
        for (std::size_t j = r % 5; j < n; j += 11) {
          wb(1 + r, 2 + j) = specials[(r + j) % kinds];
        }
      }
      la::Matrix ref = wb;
      trsm_right_upper_dot(u, ref.block(1, 2, m, n));
      la::Matrix got = wb;
      la::trsm_right_upper(u, got.block(1, 2, m, n));
      EXPECT_TRUE(la::bit_equal(got.view(), ref.view()))
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(Trsm, SingularUpperThrows) {
  la::Matrix u = la::Matrix::identity(3);
  u(1, 1) = 0.0;
  la::Matrix bmat(2, 3, 1.0);
  EXPECT_THROW(la::trsm_right_upper(u.view(), bmat.view()), rcs::Error);
}

TEST(MatrixSub, Elementwise) {
  la::Matrix a(2, 2, 5.0), b(2, 2, 2.0);
  la::matrix_sub(a.view(), b.view());
  EXPECT_EQ(a(0, 0), 3.0);
  la::matrix_add(a.view(), b.view());
  EXPECT_EQ(a(1, 1), 5.0);
}

TEST(Getrf, ReconstructsSmallMatrix) {
  la::Matrix a = la::diagonally_dominant(16, 37);
  la::Matrix f = a;
  la::getrf_unblocked(f.view());
  EXPECT_LT(la::lu_residual(a.view(), f.view()), 1e-12);
}

TEST(Getrf, ZeroPivotThrows) {
  la::Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 1.0;
  EXPECT_THROW(la::getrf_unblocked(a.view()), rcs::Error);
}

TEST(Getrf, PanelUpdatesRowsBelow) {
  // A tall panel's top square must factor exactly like the unblocked LU of
  // the square, and the rows below must become L entries.
  la::Matrix a = la::diagonally_dominant(12, 41);
  la::Matrix panel = la::Matrix::from_view(a.block(0, 0, 12, 4));
  la::getrf_panel(panel.view());
  la::Matrix square = la::Matrix::from_view(a.block(0, 0, 4, 4));
  la::getrf_unblocked(square.view());
  EXPECT_TRUE(la::bit_equal(panel.block(0, 0, 4, 4), square.view()));
}

class GetrfBlocked : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GetrfBlocked, BitIdenticalToUnblockedResidual) {
  const auto [n, b] = GetParam();
  la::Matrix a = la::diagonally_dominant(n, 43 + n + b);
  la::Matrix f = a;
  la::getrf_blocked(f.view(), b);
  EXPECT_LT(la::lu_residual(a.view(), f.view()), 1e-12) << "n=" << n
                                                        << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GetrfBlocked,
                         ::testing::Values(std::tuple{8, 2}, std::tuple{16, 4},
                                           std::tuple{32, 8},
                                           std::tuple{48, 16},
                                           std::tuple{60, 20},
                                           std::tuple{64, 64},
                                           std::tuple{30, 7}));

TEST(GetrfPivoted, FactorsMatrixThatNeedsPivoting) {
  // Zero on the (0,0) pivot: the unpivoted factorization must refuse, the
  // pivoted one must succeed with P A = L U.
  la::Matrix a(3, 3);
  a(0, 0) = 0; a(0, 1) = 2; a(0, 2) = 1;
  a(1, 0) = 4; a(1, 1) = 1; a(1, 2) = 0;
  a(2, 0) = 2; a(2, 1) = 0; a(2, 2) = 3;
  la::Matrix bad = a;
  EXPECT_THROW(la::getrf_unblocked(bad.view()), rcs::Error);

  la::Matrix f = a;
  std::vector<std::size_t> piv;
  la::getrf_pivoted(f.view(), piv);
  la::Matrix l, u;
  la::split_lu(f.view(), l, u);
  la::Matrix lu(3, 3);
  la::gemm_overwrite(l.view(), u.view(), lu.view());
  la::Matrix pa = a;
  la::apply_pivots(pa.view(), piv);
  EXPECT_LT(la::max_abs_diff(lu.view(), pa.view()), 1e-12);
}

TEST(GetrfPivoted, RandomMatricesFactorStably) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const la::Matrix a = la::random_matrix(40, 40, seed);  // not dominant!
    la::Matrix f = a;
    std::vector<std::size_t> piv;
    la::getrf_pivoted(f.view(), piv);
    la::Matrix l, u;
    la::split_lu(f.view(), l, u);
    la::Matrix lu(40, 40);
    la::gemm_overwrite(l.view(), u.view(), lu.view());
    la::Matrix pa = a;
    la::apply_pivots(pa.view(), piv);
    EXPECT_LT(la::max_abs_diff(lu.view(), pa.view()),
              1e-11 * la::max_abs(a.view()))
        << "seed " << seed;
    // Partial pivoting keeps |L| <= 1 below the diagonal.
    for (std::size_t i = 0; i < 40; ++i)
      for (std::size_t j = 0; j < i; ++j)
        EXPECT_LE(std::fabs(l(i, j)), 1.0 + 1e-12);
  }
}

TEST(GetrfPivoted, NoPivotingNeededMatchesUnpivoted) {
  // On a diagonally dominant matrix partial pivoting never swaps, so the
  // factors coincide bitwise with the unpivoted routine.
  const la::Matrix a = la::diagonally_dominant(24, 59);
  la::Matrix f1 = a, f2 = a;
  la::getrf_unblocked(f1.view());
  std::vector<std::size_t> piv;
  la::getrf_pivoted(f2.view(), piv);
  EXPECT_TRUE(la::bit_equal(f1.view(), f2.view()));
  for (std::size_t k = 0; k < piv.size(); ++k) EXPECT_EQ(piv[k], k);
}

TEST(GetrfPivoted, SingularMatrixThrows) {
  la::Matrix a(3, 3);  // rank 1
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = double(i + 1);
  std::vector<std::size_t> piv;
  EXPECT_THROW(la::getrf_pivoted(a.view(), piv), rcs::Error);
}

TEST(Getrf, SplitLuRoundTrips) {
  la::Matrix a = la::diagonally_dominant(10, 47);
  la::Matrix f = a;
  la::getrf_unblocked(f.view());
  la::Matrix l, u;
  la::split_lu(f.view(), l, u);
  EXPECT_EQ(l(0, 0), 1.0);
  EXPECT_EQ(l(0, 5), 0.0);
  EXPECT_EQ(u(5, 0), 0.0);
  la::Matrix lu(10, 10);
  la::gemm_overwrite(l.view(), u.view(), lu.view());
  EXPECT_LT(la::max_abs_diff(lu.view(), a.view()),
            1e-10 * la::max_abs(a.view()));
}

TEST(Generators, DiagonallyDominantIsDominant) {
  la::Matrix a = la::diagonally_dominant(20, 53);
  for (std::size_t i = 0; i < 20; ++i) {
    double off = 0.0;
    for (std::size_t j = 0; j < 20; ++j)
      if (j != i) off += std::fabs(a(i, j));
    EXPECT_GT(a(i, i), off);
  }
}

TEST(Generators, RandomMatrixRangeAndDeterminism) {
  la::Matrix a = la::random_matrix(5, 5, 99, -2.0, 3.0);
  la::Matrix b = la::random_matrix(5, 5, 99, -2.0, 3.0);
  EXPECT_TRUE(la::bit_equal(a.view(), b.view()));
  for (std::size_t i = 0; i < 5; ++i)
    for (std::size_t j = 0; j < 5; ++j) {
      EXPECT_GE(a(i, j), -2.0);
      EXPECT_LT(a(i, j), 3.0);
    }
}

TEST(FlopCounts, Formulas) {
  EXPECT_EQ(la::gemm_flops(2, 3, 4), 48);
  EXPECT_EQ(la::trsm_flops(3, 4), 36);
  EXPECT_EQ(la::getrf_flops(3), 18);
}

}  // namespace
