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
#include "linalg/gemm_kernel.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "kernel_oracles.hpp"

namespace la = rcs::linalg;
namespace oracle = rcs::oracle;

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

// Blocked right-looking vs the dot-product oracle: ragged triangle orders
// and right-hand-side counts, U and B as strided blocks of wider matrices,
// B salted with +0 and -0 (a -0 entry whose subtractions are all +0 must
// stay -0) and, in every third row, NaNs of both signs (a NaN must stay NaN
// at the same position; its sign and payload are free, since the packed
// update negates it. A NaN poisons the rest of its row, so the other rows
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
      EXPECT_TRUE(oracle::equal_up_to_nan_payload(got.view(), ref.view()))
          << "n=" << n << " m=" << m;
    }
  }
}

// ---------------------------------------------------------------------------
// The blocked panel kernels against their former scalar loops (kept in
// kernel_oracles.hpp). Sizes straddle the column-block width (one block,
// one block plus one column, two blocks plus a ragged tail) up to LU's
// block sizes; every operand is a strided block of a wider matrix.

constexpr std::size_t kNB = la::detail::kPanelNB;
const std::size_t kPanelSizes[] = {1,       kNB - 1, kNB, kNB + 1,
                                   2 * kNB + 3, 192, 256};
const double kInf = std::numeric_limits<double>::infinity();

/// What a test salts into the operands. Exact zeros in the multipliers take
/// the update's scalar path (its skip is a behaviour); -0.0 must keep its
/// sign through +0 subtractions; +-inf meeting a skipped zero multiplier
/// must not become NaN, and the NaNs it does produce elsewhere only need
/// to match in position.
enum class Salt { None, Zeros, ZerosAndInf };

const char* salt_name(Salt salt) {
  switch (salt) {
    case Salt::None: return "none";
    case Salt::Zeros: return "zeros";
    case Salt::ZerosAndInf: return "zeros+inf";
  }
  return "?";
}

::testing::AssertionResult matches_oracle(const la::Matrix& got,
                                          const la::Matrix& want, Salt salt) {
  const bool ok = salt == Salt::ZerosAndInf
                      ? oracle::equal_up_to_nan_payload(got.view(), want.view())
                      : la::bit_equal(got.view(), want.view());
  if (ok) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "max-diff=" << la::max_abs_diff(got.view(), want.view());
}

/// Salt B's interior (rows r0.., cols c0..) with -0.0 and, for ZerosAndInf,
/// +-inf in a sparse diagonal pattern.
void salt_rhs(la::Matrix& w, std::size_t r0, std::size_t c0, std::size_t rows,
              std::size_t cols, Salt salt) {
  if (salt == Salt::None) return;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = (r * 3) % 7; c < cols; c += 7) {
      w(r0 + r, c0 + c) = -0.0;
    }
    if (salt == Salt::ZerosAndInf && r % 5 == 1) {
      w(r0 + r, c0 + (r * 11) % cols) = r % 2 == 0 ? kInf : -kInf;
    }
  }
}

TEST(PanelKernels, GetrfPanelMatchesScalarLoop) {
  for (Salt salt : {Salt::None, Salt::Zeros, Salt::ZerosAndInf}) {
    for (std::size_t b : kPanelSizes) {
      for (std::size_t n : {b, b + 37}) {  // square and tall
        // Rows of a diagonally dominant matrix: the top b x b square is
        // dominant, the rows below are random multiples.
        la::Matrix w(n + 3, b + 5, 7.0);
        const la::Matrix dd = la::diagonally_dominant(n, 61 + n + b);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < b; ++j) w(2 + i, 1 + j) = dd(i, j);
        }
        if (salt != Salt::None) {
          // A row whose first z entries are zero keeps exact zeros in its
          // first z multipliers (every update to them is skipped).
          for (std::size_t i = 1; i < n; i += 3) {
            const std::size_t z = std::min({i, b, (i * 7) % (b + 1)});
            for (std::size_t j = 0; j < z; ++j) w(2 + i, 1 + j) = 0.0;
          }
        }
        if (salt == Salt::ZerosAndInf) {
          // inf in U rows whose multipliers below are partly zero.
          for (std::size_t k = 0; k + 1 < b; k += 9) {
            w(2 + k, 1 + b - 1 - k / 2) = k % 2 == 0 ? kInf : -kInf;
          }
        }
        la::Matrix want = w;
        oracle::getrf_panel(want.block(2, 1, n, b));
        la::Matrix got = w;
        la::getrf_panel(got.block(2, 1, n, b));
        EXPECT_TRUE(matches_oracle(got, want, salt))
            << "n=" << n << " b=" << b << " salt=" << salt_name(salt);
      }
    }
  }
}

TEST(PanelKernels, TrsmLeftLowerUnitMatchesScalarLoop) {
  for (Salt salt : {Salt::None, Salt::Zeros, Salt::ZerosAndInf}) {
    for (std::size_t n : kPanelSizes) {
      for (std::size_t m : {1, 3, 7, 8, 37}) {
        la::Matrix wl = la::random_matrix(n + 4, n + 2, 71 + n, -0.5, 0.5);
        const auto l = wl.block(3, 1, n, n);
        if (salt != Salt::None) {
          for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i % 4; j < i; j += 4) l(i, j) = 0.0;
          }
        }
        la::Matrix wb = la::random_matrix(n + 2, m + 6, 73 + m);
        salt_rhs(wb, 1, 4, n, m, salt);
        la::Matrix want = wb;
        oracle::trsm_left_lower_unit(l, want.block(1, 4, n, m));
        la::Matrix got = wb;
        la::trsm_left_lower_unit(l, got.block(1, 4, n, m));
        EXPECT_TRUE(matches_oracle(got, want, salt))
            << "n=" << n << " m=" << m << " salt=" << salt_name(salt);
      }
    }
  }
}

TEST(PanelKernels, TrsmRightUpperMatchesScalarLoop) {
  for (Salt salt : {Salt::None, Salt::Zeros, Salt::ZerosAndInf}) {
    for (std::size_t n : kPanelSizes) {
      for (std::size_t m : {1, 3, 7, 8, 37}) {
        la::Matrix wu = la::random_matrix(n + 3, n + 5, 79 + n, -0.1, 0.1);
        const auto u = wu.block(2, 3, n, n);
        for (std::size_t i = 0; i < n; ++i) {
          u(i, i) = (i % 2 == 0 ? 2.0 : -3.0) + 0.01 * static_cast<double>(i);
          if (salt != Salt::None) {
            for (std::size_t j = i + 1 + i % 3; j < n; j += 5) u(i, j) = 0.0;
          }
        }
        la::Matrix wb = la::random_matrix(m + 2, n + 4, 83 + m);
        salt_rhs(wb, 1, 2, m, n, salt);
        la::Matrix want = wb;
        oracle::trsm_right_upper(u, want.block(1, 2, m, n));
        la::Matrix got = wb;
        la::trsm_right_upper(u, got.block(1, 2, m, n));
        EXPECT_TRUE(matches_oracle(got, want, salt))
            << "n=" << n << " m=" << m << " salt=" << salt_name(salt);
      }
    }
  }
}

// getrf_blocked composes getrf_panel, trsm_left_lower_unit and gemm; with
// the blocked kernels inside it must still equal the all-scalar reference.
TEST(PanelKernels, GetrfBlockedMatchesScalarReference) {
  for (auto [n, b] : {std::pair<std::size_t, std::size_t>{256, 64},
                      {200, 96},
                      {131, 33}}) {
    const la::Matrix a = la::diagonally_dominant(n, 89 + n);
    la::Matrix want = a;
    oracle::getrf_blocked(want.view(), b);
    la::Matrix got = a;
    la::getrf_blocked(got.view(), b);
    EXPECT_TRUE(la::bit_equal(got.view(), want.view()))
        << "n=" << n << " b=" << b;
  }
}

// The narrowed contract, on every kernel that runs the packed or narrow
// SIMD paths: NaNs of both signs salted into the operands of gemm (packed
// and narrow), both triangular solves and getrf come out as NaN at the
// same positions as the references, and every other entry bit-identical.
// Checked at every SIMD level the CPU supports.
TEST(NanContract, KernelsKeepNanPositionsAndOtherBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto salt_nans = [&](la::Matrix& w, std::size_t every) {
    std::size_t t = 0;
    for (std::size_t r = 0; r < w.rows(); ++r) {
      for (std::size_t c = r % every; c < w.cols(); c += every, ++t) {
        if (r % 4 == 1) w(r, c) = t % 2 == 0 ? nan : -nan;
      }
    }
  };
  namespace simd = rcs::linalg::simd;
  const simd::Level saved = simd::active_level();
  const std::size_t n = 97;
  la::Matrix a = la::random_matrix(n, n, 91);
  la::Matrix b = la::random_matrix(n, n, 92);
  salt_nans(a, 41);
  salt_nans(b, 37);
  const la::Matrix c0 = la::random_matrix(n, n, 93);
  la::Matrix gemm_want = c0;
  la::gemm_naive(a.view(), b.view(), gemm_want.view());
  la::Matrix narrow_want = la::Matrix::from_view(c0.block(0, 0, n, 3));
  la::gemm_naive(a.view(), b.block(0, 0, n, 3), narrow_want.view());

  la::Matrix lower = la::random_matrix(n, n, 94, -0.5, 0.5);
  la::Matrix upper = la::random_matrix(n, n, 95, -0.1, 0.1);
  for (std::size_t i = 0; i < n; ++i) upper(i, i) = 2.0;
  la::Matrix rhs = la::random_matrix(n, 40, 96);
  salt_nans(rhs, 53);
  la::Matrix rhs_t = la::random_matrix(40, n, 97);
  salt_nans(rhs_t, 53);
  la::Matrix left_want = rhs;
  oracle::trsm_left_lower_unit(lower.view(), left_want.view());
  la::Matrix right_want = rhs_t;
  oracle::trsm_right_upper(upper.view(), right_want.view());

  la::Matrix lu0 = la::diagonally_dominant(n, 98);
  lu0(70, 75) = nan;  // late enough to leave most of the factors finite
  lu0(80, 66) = -nan;
  la::Matrix lu_want = lu0;
  oracle::getrf_panel(lu_want.view());

  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    const simd::Level level = static_cast<simd::Level>(lv);
    simd::set_level(level);
    const std::string tag = std::string(" simd=") + simd::level_name(level);
    la::Matrix c = c0;
    la::gemm(a.view(), b.view(), c.view());
    EXPECT_TRUE(oracle::equal_up_to_nan_payload(c.view(), gemm_want.view()))
        << "gemm" << tag;
    la::Matrix narrow = la::Matrix::from_view(c0.block(0, 0, n, 3));
    la::gemm(a.view(), b.block(0, 0, n, 3), narrow.view());
    EXPECT_TRUE(
        oracle::equal_up_to_nan_payload(narrow.view(), narrow_want.view()))
        << "gemm narrow" << tag;
    la::Matrix left = rhs;
    la::trsm_left_lower_unit(lower.view(), left.view());
    EXPECT_TRUE(oracle::equal_up_to_nan_payload(left.view(), left_want.view()))
        << "trsm_left_lower_unit" << tag;
    la::Matrix right = rhs_t;
    la::trsm_right_upper(upper.view(), right.view());
    EXPECT_TRUE(
        oracle::equal_up_to_nan_payload(right.view(), right_want.view()))
        << "trsm_right_upper" << tag;
    la::Matrix lu = lu0;
    la::getrf_unblocked(lu.view());
    EXPECT_TRUE(oracle::equal_up_to_nan_payload(lu.view(), lu_want.view()))
        << "getrf" << tag;
  }
  simd::set_level(saved);
}

TEST(NanContract, HelperComparesNanPositionsAndOtherBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  la::Matrix x(1, 3), y(1, 3);
  x(0, 0) = nan;
  y(0, 0) = -nan;
  x(0, 1) = y(0, 1) = 1.5;
  x(0, 2) = y(0, 2) = -0.0;
  EXPECT_TRUE(oracle::equal_up_to_nan_payload(x.view(), y.view()));
  EXPECT_FALSE(la::bit_equal(x.view(), y.view()));
  y(0, 2) = 0.0;  // signed zeros differ
  EXPECT_FALSE(oracle::equal_up_to_nan_payload(x.view(), y.view()));
  y(0, 2) = -0.0;
  y(0, 0) = 0.0;  // NaN against a number
  EXPECT_FALSE(oracle::equal_up_to_nan_payload(x.view(), y.view()));
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
  EXPECT_EQ(a(1, 1), 3.0);
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
