// The min-plus block kernel of blocked Floyd–Warshall (graph::fw_block):
// the aliasing check and one portable plus two explicit-ISA kernels,
// dispatched by the linalg::simd level.
//
// Every relaxation step is the select `via < c ? via : c` with
// via = a[i][k] + b[k][j]. _mm*_min_pd(via, c) computes exactly that select
// (it returns its second operand on ties, on +0 vs -0 and when either input
// is NaN), and each element still sees the k steps in ascending order, so
// all three kernels produce the same bits.

#include <cstdint>

#include "common/error.hpp"
#include "graph/floyd_warshall.hpp"
#include "linalg/simd.hpp"

// Same scheme as linalg/simd.cpp: per-function target attributes keep this
// translation unit on the baseline ISA, so the binary still runs where the
// wide paths are never dispatched to.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RCS_FW_X86 1
#include <immintrin.h>
#define RCS_TARGET_AVX2 __attribute__((target("avx2")))
#define RCS_TARGET_AVX512 __attribute__((target("avx512f")))
#endif

namespace rcs::graph {

namespace {

using std::size_t;
using linalg::simd::Level;

/// One task as raw row-major operands: c is m x n, a is m x kk, b is kk x n.
struct Task {
  double* c;
  const double* a;
  const double* b;
  size_t ldc, lda, ldb;
  size_t m, n, kk;
};

/// True when x and y are the same block: same first element, stride and
/// shape. This is the only kind of overlap fw_block admits.
bool same_block(Span2D<const double> x, Span2D<const double> y) {
  return x.data() == y.data() && x.stride() == y.stride() &&
         x.rows() == y.rows() && x.cols() == y.cols();
}

/// True when some element of x is also an element of y. Blocks of one
/// matrix can share a row band without sharing an element (op3's c and a in
/// blocked_floyd_warshall), so once the bounding address ranges meet, the
/// rows of x and y are walked together in address order.
bool overlaps(Span2D<const double> x, Span2D<const double> y) {
  if (x.empty() || y.empty()) return false;
  const auto addr = [](const double* p) {
    return reinterpret_cast<std::uintptr_t>(p);
  };
  const std::uintptr_t x_width = x.cols() * sizeof(double);
  const std::uintptr_t y_width = y.cols() * sizeof(double);
  if (addr(x.row(x.rows() - 1)) + x_width <= addr(y.data()) ||
      addr(y.row(y.rows() - 1)) + y_width <= addr(x.data())) {
    return false;
  }
  size_t q = 0;  // first row of y that ends after the current row of x
  for (size_t r = 0; r < x.rows(); ++r) {
    const std::uintptr_t lo = addr(x.row(r));
    while (q < y.rows() && addr(y.row(q)) + y_width <= lo) ++q;
    if (q == y.rows()) return false;
    if (addr(y.row(q)) < lo + x_width) return true;
  }
  return false;
}

inline double relax(double c, double via) { return via < c ? via : c; }

/// The portable kernel: the k-outer sweep over columns [j0, n), a[i][k]
/// read once per (k, i) before row i is updated. Valid for every admitted
/// aliasing case; it is the whole Level::Scalar path and the ragged-column
/// tail of the disjoint vector kernels.
void sweep_portable(const Task& t, size_t j0) {
  for (size_t k = 0; k < t.kk; ++k) {
    const double* bk = t.b + k * t.ldb;
    for (size_t i = 0; i < t.m; ++i) {
      const double aik = t.a[i * t.lda + k];
      double* ci = t.c + i * t.ldc;
      for (size_t j = j0; j < t.n; ++j) ci[j] = relax(ci[j], aik + bk[j]);
    }
  }
}

#ifdef RCS_FW_X86

/// AVX2 (4 doubles per ymm). tile<R, NV> keeps an R-row x NV-vector tile of
/// c in registers across the whole k loop; at R = 4, NV = 2 that is 8
/// accumulators + 2 b vectors + 1 broadcast of the 16 ymm registers.
struct Avx2 {
  static constexpr size_t kW = 4;

  template <size_t R, size_t NV>
  RCS_TARGET_AVX2 static inline void tile(const Task& t, size_t i0,
                                          size_t j0) {
    __m256d acc[R][NV];
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm256_loadu_pd(t.c + (i0 + r) * t.ldc + j0 + v * kW);
      }
    }
    for (size_t k = 0; k < t.kk; ++k) {
      const double* bk = t.b + k * t.ldb + j0;
      __m256d bv[NV];
      for (size_t v = 0; v < NV; ++v) bv[v] = _mm256_loadu_pd(bk + v * kW);
      for (size_t r = 0; r < R; ++r) {
        const __m256d av = _mm256_set1_pd(t.a[(i0 + r) * t.lda + k]);
        for (size_t v = 0; v < NV; ++v) {
          acc[r][v] = _mm256_min_pd(_mm256_add_pd(av, bv[v]), acc[r][v]);
        }
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < NV; ++v) {
        _mm256_storeu_pd(t.c + (i0 + r) * t.ldc + j0 + v * kW, acc[r][v]);
      }
    }
  }

  /// All rows of the column strip [j0, j0 + NV * kW).
  template <size_t NV>
  RCS_TARGET_AVX2 static void strip(const Task& t, size_t j0) {
    size_t i = 0;
    for (; i + 4 <= t.m; i += 4) tile<4, NV>(t, i, j0);
    for (; i < t.m; ++i) tile<1, NV>(t, i, j0);
  }

  /// The k-outer sweep, vectorized over j: the aliased-task kernel.
  RCS_TARGET_AVX2 static void sweep(const Task& t) {
    const size_t nv = t.n / kW * kW;
    for (size_t k = 0; k < t.kk; ++k) {
      const double* bk = t.b + k * t.ldb;
      for (size_t i = 0; i < t.m; ++i) {
        const double aik = t.a[i * t.lda + k];
        const __m256d av = _mm256_set1_pd(aik);
        double* ci = t.c + i * t.ldc;
        size_t j = 0;
        for (; j < nv; j += kW) {
          const __m256d via = _mm256_add_pd(av, _mm256_loadu_pd(bk + j));
          _mm256_storeu_pd(ci + j, _mm256_min_pd(via, _mm256_loadu_pd(ci + j)));
        }
        for (; j < t.n; ++j) ci[j] = relax(ci[j], aik + bk[j]);
      }
    }
  }
};

// GCC 12 reports _mm512_min_pd's internal _mm512_undefined_pd() pass-through
// operand (unused under the all-ones mask) as maybe-uninitialized.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// AVX-512F (8 doubles per zmm), same shapes as Avx2.
struct Avx512 {
  static constexpr size_t kW = 8;

  template <size_t R, size_t NV>
  RCS_TARGET_AVX512 static inline void tile(const Task& t, size_t i0,
                                            size_t j0) {
    __m512d acc[R][NV];
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < NV; ++v) {
        acc[r][v] = _mm512_loadu_pd(t.c + (i0 + r) * t.ldc + j0 + v * kW);
      }
    }
    for (size_t k = 0; k < t.kk; ++k) {
      const double* bk = t.b + k * t.ldb + j0;
      __m512d bv[NV];
      for (size_t v = 0; v < NV; ++v) bv[v] = _mm512_loadu_pd(bk + v * kW);
      for (size_t r = 0; r < R; ++r) {
        const __m512d av = _mm512_set1_pd(t.a[(i0 + r) * t.lda + k]);
        for (size_t v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_min_pd(_mm512_add_pd(av, bv[v]), acc[r][v]);
        }
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < NV; ++v) {
        _mm512_storeu_pd(t.c + (i0 + r) * t.ldc + j0 + v * kW, acc[r][v]);
      }
    }
  }

  template <size_t NV>
  RCS_TARGET_AVX512 static void strip(const Task& t, size_t j0) {
    size_t i = 0;
    for (; i + 4 <= t.m; i += 4) tile<4, NV>(t, i, j0);
    for (; i < t.m; ++i) tile<1, NV>(t, i, j0);
  }

  RCS_TARGET_AVX512 static void sweep(const Task& t) {
    const size_t nv = t.n / kW * kW;
    for (size_t k = 0; k < t.kk; ++k) {
      const double* bk = t.b + k * t.ldb;
      for (size_t i = 0; i < t.m; ++i) {
        const double aik = t.a[i * t.lda + k];
        const __m512d av = _mm512_set1_pd(aik);
        double* ci = t.c + i * t.ldc;
        size_t j = 0;
        for (; j < nv; j += kW) {
          const __m512d via = _mm512_add_pd(av, _mm512_loadu_pd(bk + j));
          _mm512_storeu_pd(ci + j, _mm512_min_pd(via, _mm512_loadu_pd(ci + j)));
        }
        for (; j < t.n; ++j) ci[j] = relax(ci[j], aik + bk[j]);
      }
    }
  }
};

#pragma GCC diagnostic pop

/// The disjoint-task kernel: c in register tiles, k innermost per tile.
/// Columns that do not fill a vector fall to the portable sweep, which
/// gives each element the same ascending-k sequence.
template <class Isa>
void disjoint(const Task& t) {
  constexpr size_t w = Isa::kW;
  size_t j = 0;
  for (; j + 2 * w <= t.n; j += 2 * w) Isa::template strip<2>(t, j);
  if (j + w <= t.n) {
    Isa::template strip<1>(t, j);
    j += w;
  }
  if (j < t.n) sweep_portable(t, j);
}

#endif  // RCS_FW_X86

}  // namespace

void fw_block(Span2D<double> c, Span2D<const double> a,
              Span2D<const double> b) {
  RCS_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "fw_block shape mismatch");
  const bool c_is_a = same_block(c, a);
  const bool c_is_b = same_block(c, b);
  RCS_CHECK_MSG((c_is_a || !overlaps(c, a)) && (c_is_b || !overlaps(c, b)),
                "fw_block: the target block partially overlaps an operand "
                "(only disjoint blocks or whole-block aliasing are defined)");
  const Task t{c.data(),   a.data(), b.data(), c.stride(), a.stride(),
               b.stride(), c.rows(), c.cols(), a.cols()};
  const bool aliased = c_is_a || c_is_b;
  switch (linalg::simd::active_level()) {
#ifdef RCS_FW_X86
    case Level::Avx512:
      if (aliased) {
        Avx512::sweep(t);
      } else {
        disjoint<Avx512>(t);
      }
      return;
    case Level::Avx2:
      if (aliased) {
        Avx2::sweep(t);
      } else {
        disjoint<Avx2>(t);
      }
      return;
#endif
    default:
      sweep_portable(t, 0);
  }
}

}  // namespace rcs::graph
