// Tests for the Floyd–Warshall substrate: the reference algorithm, the
// blocked formulation (bit-identity with the reference), the generalized
// block kernel under every aliasing pattern at every SIMD level (and its
// rejection of partial overlap), and path reconstruction.

#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"

namespace gr = rcs::graph;
namespace simd = rcs::linalg::simd;
using rcs::Span2D;
using rcs::linalg::Matrix;

namespace {

Matrix triangle_graph() {
  // 0 ->(1) 1 ->(2) 2, plus the direct edge 0 ->(5) 2.
  Matrix d(3, 3, gr::kNoEdge);
  for (int i = 0; i < 3; ++i) d(i, i) = 0.0;
  d(0, 1) = 1.0;
  d(1, 2) = 2.0;
  d(0, 2) = 5.0;
  return d;
}

TEST(FloydWarshall, PrefersShorterTwoHopPath) {
  Matrix d = triangle_graph();
  gr::floyd_warshall(d);
  EXPECT_EQ(d(0, 2), 3.0);  // via vertex 1
  EXPECT_EQ(d(0, 1), 1.0);
  EXPECT_EQ(d(2, 0), gr::kNoEdge);  // directed: no way back
}

TEST(FloydWarshall, DiagonalStaysZero) {
  Matrix d = gr::random_digraph(16, 7);
  gr::floyd_warshall(d);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(d(i, i), 0.0);
}

TEST(FloydWarshall, TriangleInequalityHolds) {
  Matrix d = gr::random_digraph(24, 9, 0.4);
  gr::floyd_warshall(d);
  for (int i = 0; i < 24; ++i)
    for (int j = 0; j < 24; ++j)
      for (int k = 0; k < 24; ++k)
        EXPECT_LE(d(i, j), d(i, k) + d(k, j) + 1e-12);
}

TEST(FloydWarshall, UnreachableStaysInfinite) {
  Matrix d(4, 4, gr::kNoEdge);
  for (int i = 0; i < 4; ++i) d(i, i) = 0.0;
  d(0, 1) = 1.0;
  d(2, 3) = 1.0;  // two disconnected components
  gr::floyd_warshall(d);
  EXPECT_EQ(d(0, 3), gr::kNoEdge);
  EXPECT_EQ(d(2, 1), gr::kNoEdge);
  EXPECT_EQ(d(0, 1), 1.0);
}

TEST(FwBlock, Op1EqualsWholeMatrixFwForSingleBlock) {
  Matrix d = gr::random_digraph(12, 11, 0.6);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::fw_block(d.view(), d.view(), d.view());  // op1 on the whole matrix
  EXPECT_TRUE(rcs::linalg::bit_equal(d.view(), ref.view()));
}

TEST(FwBlock, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3), c(2, 3);
  EXPECT_THROW(gr::fw_block(c.view(), a.view(), b.view()), rcs::Error);
}

// The scalar loop every fw_block kernel must match bit for bit: k outer,
// a[i][k] read before row i is updated, the branchy select of the original.
void fw_block_oracle(Span2D<double> c, Span2D<const double> a,
                     Span2D<const double> b) {
  for (std::size_t k = 0; k < a.cols(); ++k) {
    for (std::size_t i = 0; i < c.rows(); ++i) {
      const double aik = a(i, k);
      for (std::size_t j = 0; j < c.cols(); ++j) {
        const double via = aik + b(k, j);
        if (via < c(i, j)) c(i, j) = via;
      }
    }
  }
}

// Distances salted with +inf, NaN, +0/-0 and small integers, so ties,
// signed-zero ties and unordered compares all occur.
Matrix salted_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  rcs::Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      switch (rng.uniform_index(10)) {
        case 0: m(i, j) = gr::kNoEdge; break;
        case 1: m(i, j) = std::numeric_limits<double>::quiet_NaN(); break;
        case 2: m(i, j) = 0.0; break;
        case 3: m(i, j) = -0.0; break;
        case 4:
        case 5: m(i, j) = static_cast<double>(rng.uniform_index(4)); break;
        default: m(i, j) = rng.uniform(-1.0, 8.0); break;
      }
    }
  }
  return m;
}

// Run one task on a salted matrix through fw_block and through the oracle
// and compare the whole matrix, so writes outside the target block show.
// `place` carves (c, a, b) out of the matrix.
using Placement = std::function<void(Matrix&, Span2D<double>&,
                                     Span2D<const double>&,
                                     Span2D<const double>&)>;
void expect_matches_oracle(std::size_t rows, std::size_t cols,
                           std::uint64_t seed, const Placement& place,
                           const std::string& what) {
  Matrix got = salted_matrix(rows, cols, seed);
  Matrix want = got;
  Span2D<double> c;
  Span2D<const double> a, b;
  place(got, c, a, b);
  gr::fw_block(c, a, b);
  place(want, c, a, b);
  fw_block_oracle(c, a, b);
  EXPECT_TRUE(rcs::linalg::bit_equal(got.view(), want.view())) << what;
}

TEST(FwBlock, EveryLevelMatchesScalarLoopBitwise) {
  const std::size_t sizes[] = {1, 3, 7, 8, 15, 16, 17, 33};
  const simd::Level saved = simd::active_level();
  std::uint64_t seed = 100;
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    simd::set_level(static_cast<simd::Level>(lv));
    const std::string level = simd::level_name(static_cast<simd::Level>(lv));
    for (std::size_t m : sizes) {
      for (std::size_t n : sizes) {
        for (std::size_t k : sizes) {
          const std::string shape = " simd=" + level + " m=" +
                                    std::to_string(m) + " n=" +
                                    std::to_string(n) + " k=" +
                                    std::to_string(k);
          // op3: three disjoint strided blocks of one matrix; c and a
          // share a row band, as in the blocked algorithm.
          expect_matches_oracle(
              m + k + 1, 2 * n + k + 2, ++seed,
              [&](Matrix& d, Span2D<double>& c, Span2D<const double>& a,
                  Span2D<const double>& b) {
                c = d.block(1, 0, m, n);
                a = d.block(1, n + 1, m, k);
                b = d.block(m + 1, n + k + 2, k, n);
              },
              "op3" + shape);
          // op21: c = b (k == m), a a separate square block.
          if (k == m) {
            expect_matches_oracle(
                2 * m + 1, n + m + 3, ++seed,
                [&](Matrix& d, Span2D<double>& c, Span2D<const double>& a,
                    Span2D<const double>& b) {
                  c = d.block(1, 2, m, n);
                  a = d.block(m + 1, n + 3, m, m);
                  b = c;
                },
                "op21" + shape);
          }
          // op22: c = a (k == n), b a separate square block.
          if (k == n) {
            expect_matches_oracle(
                m + n + 2, 2 * n + 1, ++seed,
                [&](Matrix& d, Span2D<double>& c, Span2D<const double>& a,
                    Span2D<const double>& b) {
                  c = d.block(0, 1, m, n);
                  a = c;
                  b = d.block(m + 2, 0, n, n);
                },
                "op22" + shape);
          }
          // op1: all three the same square block.
          if (m == n && n == k) {
            expect_matches_oracle(
                m + 3, m + 5, ++seed,
                [&](Matrix& d, Span2D<double>& c, Span2D<const double>& a,
                    Span2D<const double>& b) {
                  c = d.block(2, 3, m, m);
                  a = c;
                  b = c;
                },
                "op1" + shape);
          }
        }
      }
    }
  }
  simd::set_level(saved);
}

TEST(FwBlock, PartialOverlapThrows) {
  Matrix d = gr::random_digraph(12, 3, 0.5);
  const Matrix other = gr::random_digraph(4, 4, 0.5);
  const auto c = d.block(0, 0, 4, 4);
  // a shifted diagonally into c.
  EXPECT_THROW(gr::fw_block(c, d.block(1, 1, 4, 4), other.view()),
               rcs::Error);
  // b in c's row band, two columns over.
  EXPECT_THROW(gr::fw_block(c, other.view(), d.block(0, 2, 4, 4)),
               rcs::Error);
  // Same first element, narrower a: not the whole block.
  EXPECT_THROW(gr::fw_block(c, d.block(0, 0, 4, 3), other.block(0, 0, 3, 4)),
               rcs::Error);
  // Same first element and shape, different stride.
  const Span2D<const double> restrided(d.data(), 4, 4, 5);
  EXPECT_THROW(gr::fw_block(c, restrided, other.view()), rcs::Error);
  // Blocks that share rows but no element are fine, and so is whole-block
  // aliasing.
  EXPECT_NO_THROW(gr::fw_block(c, d.block(0, 4, 4, 4), d.block(4, 0, 4, 4)));
  EXPECT_NO_THROW(gr::fw_block(c, c, c));
}

class BlockedFw : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(BlockedFw, MatchesReferenceDistances) {
  // The blocked algorithm is exactly equivalent in the (min,+) semiring,
  // but floating-point path sums associate differently across block
  // boundaries, so equality holds to rounding (~n*eps), not bitwise.
  // (Bit-equality *is* required — and tested in functional_test — between
  // implementations that share the blocked operation order.)
  const auto [n, b, seed] = GetParam();
  Matrix d = gr::random_digraph(n, seed, 0.5);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::blocked_floyd_warshall(d, b);
  EXPECT_LT(rcs::linalg::max_abs_diff(d.view(), ref.view()), 1e-9)
      << "n=" << n << " b=" << b;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockedFw,
    ::testing::Values(std::tuple{8, 2, 1}, std::tuple{16, 4, 2},
                      std::tuple{24, 8, 3}, std::tuple{32, 8, 4},
                      std::tuple{32, 16, 5}, std::tuple{48, 12, 6},
                      std::tuple{30, 5, 7}, std::tuple{16, 16, 8}));

TEST(BlockedFw, RequiresDivisibleBlockSize) {
  Matrix d = gr::random_digraph(10, 1);
  EXPECT_THROW(gr::blocked_floyd_warshall(d, 3), rcs::Error);
}

TEST(BlockedFw, DenseGraphMatchesToo) {
  Matrix d = gr::random_digraph(40, 21, 1.0);
  Matrix ref = d;
  gr::floyd_warshall(ref);
  gr::blocked_floyd_warshall(d, 10);
  EXPECT_LT(rcs::linalg::max_abs_diff(d.view(), ref.view()), 1e-9);
}

TEST(Paths, ReconstructionFollowsDistances) {
  Matrix d = gr::random_digraph(20, 31, 0.3);
  Matrix dist = d;
  std::vector<std::size_t> next;
  gr::floyd_warshall_with_paths(dist, next);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 20; ++j) {
      auto path = gr::reconstruct_path(next, 20, i, j);
      if (dist(i, j) == gr::kNoEdge) {
        if (i != j) {
          EXPECT_TRUE(path.empty());
        }
        continue;
      }
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), i);
      EXPECT_EQ(path.back(), j);
      // Edge-sum of the reconstructed path equals the computed distance.
      double sum = 0.0;
      for (std::size_t s = 0; s + 1 < path.size(); ++s)
        sum += d(path[s], path[s + 1]);
      EXPECT_NEAR(sum, dist(i, j), 1e-9);
    }
  }
}

TEST(Paths, DistancesMatchPlainFw) {
  Matrix d = gr::random_digraph(18, 33, 0.4);
  Matrix d1 = d, d2 = d;
  std::vector<std::size_t> next;
  gr::floyd_warshall(d1);
  gr::floyd_warshall_with_paths(d2, next);
  EXPECT_TRUE(rcs::linalg::bit_equal(d1.view(), d2.view()));
}

TEST(Paths, BlockedWithPathsMatchesBlockedDistances) {
  const Matrix d0 = gr::random_digraph(32, 35, 0.3);
  Matrix d1 = d0, d2 = d0;
  std::vector<std::size_t> next;
  gr::blocked_floyd_warshall(d1, 8);
  gr::blocked_floyd_warshall_with_paths(d2, 8, next);
  EXPECT_TRUE(rcs::linalg::bit_equal(d1.view(), d2.view()));
}

TEST(Paths, BlockedReconstructionRealizesItsDistances) {
  const Matrix d0 = gr::random_digraph(32, 37, 0.25);
  Matrix dist = d0;
  std::vector<std::size_t> next;
  gr::blocked_floyd_warshall_with_paths(dist, 8, next);
  for (std::size_t i = 0; i < 32; ++i) {
    for (std::size_t j = 0; j < 32; ++j) {
      const auto path = gr::reconstruct_path(next, 32, i, j);
      if (dist(i, j) == gr::kNoEdge) {
        if (i != j) {
          EXPECT_TRUE(path.empty());
        }
        continue;
      }
      ASSERT_FALSE(path.empty()) << i << "->" << j;
      double sum = 0.0;
      for (std::size_t s = 0; s + 1 < path.size(); ++s)
        sum += d0(path[s], path[s + 1]);
      EXPECT_NEAR(sum, dist(i, j), 1e-9) << i << "->" << j;
    }
  }
}

TEST(Paths, BlockedNextHopKernelShapeChecks) {
  Matrix c(4, 4), a(4, 4), b(4, 4);
  std::vector<std::size_t> n1(16), n2(12);
  rcs::Span2D<std::size_t> nc(n1.data(), 4, 4);
  rcs::Span2D<std::size_t> bad(n2.data(), 3, 4);
  EXPECT_THROW(
      gr::fw_block_with_next(c.view(), a.view(), b.view(), bad, nc),
      rcs::Error);
}

TEST(Generators, GridRoadNetworkIsSymmetricAndConnected) {
  Matrix d = gr::grid_road_network(4, 5, 3);
  const std::size_t n = 20;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_EQ(d(i, j), d(j, i));
  gr::floyd_warshall(d);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_LT(d(i, j), gr::kNoEdge);  // grid is connected
}

TEST(Generators, RandomDigraphEdgeProbabilityRoughlyHolds) {
  Matrix d = gr::random_digraph(50, 77, 0.3);
  int edges = 0;
  for (int i = 0; i < 50; ++i)
    for (int j = 0; j < 50; ++j)
      if (i != j && d(i, j) != gr::kNoEdge) ++edges;
  EXPECT_GT(edges, 500);
  EXPECT_LT(edges, 1000);
}

TEST(FlopCounts, Formulas) {
  EXPECT_EQ(gr::fw_block_flops(4), 128);
  EXPECT_EQ(gr::fw_total_flops(10), 2000);
}

}  // namespace
