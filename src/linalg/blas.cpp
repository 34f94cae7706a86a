#include "linalg/blas.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
#include "linalg/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::linalg {

namespace {
void check_gemm_shapes(Span2D<const double> a, Span2D<const double> b,
                       Span2D<double> c) {
  RCS_CHECK_MSG(a.cols() == b.rows() && a.rows() == c.rows() &&
                    b.cols() == c.cols(),
                "gemm shape mismatch: A " << a.rows() << "x" << a.cols()
                                          << ", B " << b.rows() << "x"
                                          << b.cols() << ", C " << c.rows()
                                          << "x" << c.cols());
}
}  // namespace

void gemm_naive(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c) {
  check_gemm_shapes(a, b, c);
  for (std::size_t i = 0; i < c.rows(); ++i) {
    for (std::size_t j = 0; j < c.cols(); ++j) {
      double acc = c(i, j);
      for (std::size_t l = 0; l < a.cols(); ++l) acc += a(i, l) * b(l, j);
      c(i, j) = acc;
    }
  }
}

void gemm_tiled(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c) {
  check_gemm_shapes(a, b, c);
  // i-k-j loop order with small tiles: streams B rows and C rows, which is
  // far friendlier to the cache than the naive i-j-k order. Accumulation
  // order per C entry matches gemm_naive (l ascending), so results are
  // bit-identical between the two (required by tests that cross-check the
  // FPGA kernel against both).
  constexpr std::size_t TI = 64, TK = 64, TJ = 256;
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  for (std::size_t i0 = 0; i0 < m; i0 += TI) {
    const std::size_t i1 = std::min(i0 + TI, m);
    for (std::size_t k0 = 0; k0 < k; k0 += TK) {
      const std::size_t k1 = std::min(k0 + TK, k);
      for (std::size_t j0 = 0; j0 < n; j0 += TJ) {
        const std::size_t j1 = std::min(j0 + TJ, n);
        for (std::size_t i = i0; i < i1; ++i) {
          double* crow = c.row(i);
          for (std::size_t l = k0; l < k1; ++l) {
            const double av = a(i, l);
            const double* brow = b.row(l);
            for (std::size_t j = j0; j < j1; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Packed register-blocked engine in the BLIS mold, shared by gemm, gemm_nt,
// and the FPGA MatMulArray emulation (see gemm_kernel.hpp for the layouts).
//
// Bit-exactness: every C entry is updated as acc += a * b with the inner
// index l strictly ascending — within a microkernel call because the l loop
// is the outer loop, and across k-chunks because each i-tile task visits
// them in ascending order and C is reloaded/stored per chunk. No
// reassociation, no FMA (-ffp-contract=off; the explicit-ISA kernels in
// simd.cpp use separate mul/add instructions), so the result equals
// gemm_naive bit-for-bit at any thread count on every dispatch path.
//
// Parallel structure (per NC-column slab):
//   stage 1 — the B micropanels of EVERY k-chunk are packed cooperatively
//             on the pool (one parallel region over (k-chunk, j-panel)
//             units) instead of serially on the calling thread;
//   stage 2 — one fused parallel region over MC-row i-tiles; each task
//             sweeps k-chunks in ascending order, packing its A strip into
//             per-thread scratch and running the dispatched microkernel.
// This replaces the old per-(j0, k0) fork/join — 2 regions per slab instead
// of ceil(k/KC) + serial packing on the caller between every join.

namespace detail {

namespace {
constexpr std::size_t MR = simd::kMR;
constexpr std::size_t NR = simd::kNR;

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

/// Per-thread pack scratch, reused across calls to avoid allocator churn
/// inside the parallel region. bpack belongs to the calling thread (workers
/// write into it through the captured reference during cooperative packing,
/// which is safe: parallel_for completion orders those writes before every
/// later read); apack belongs to whichever pool thread runs the i-tile.
thread_local std::vector<double> tls_apack;
thread_local std::vector<double> tls_bpack;
}  // namespace

void pack_b_micropanel(Span2D<const double> b, bool transposed,
                       std::size_t k0, std::size_t kc, std::size_t j,
                       std::size_t w, double* panel) {
  if (!transposed) {
    for (std::size_t l = 0; l < kc; ++l) {
      const double* brow = b.row(k0 + l) + j;
      double* prow = panel + l * NR;
      for (std::size_t jr = 0; jr < w; ++jr) prow[jr] = brow[jr];
      for (std::size_t jr = w; jr < NR; ++jr) prow[jr] = 0.0;
    }
  } else {
    std::fill(panel, panel + kc * NR, 0.0);
    for (std::size_t jr = 0; jr < w; ++jr) {
      const double* brow = b.row(j + jr) + k0;
      for (std::size_t l = 0; l < kc; ++l) panel[l * NR + jr] = brow[l];
    }
  }
}

void pack_a_tile(Span2D<const double> a, std::size_t i0, std::size_t mc,
                 std::size_t k0, std::size_t kc, bool negate,
                 std::vector<double>& ap) {
  const std::size_t nstrips = ceil_div(mc, MR);
  ap.assign(nstrips * kc * MR, 0.0);
  for (std::size_t ip = 0; ip < nstrips; ++ip) {
    double* strip = ap.data() + ip * kc * MR;
    const std::size_t i = i0 + ip * MR;
    const std::size_t h = std::min(MR, i0 + mc - i);
    for (std::size_t ir = 0; ir < h; ++ir) {
      const double* arow = a.row(i + ir) + k0;
      if (negate) {
        for (std::size_t l = 0; l < kc; ++l) strip[l * MR + ir] = -arow[l];
      } else {
        for (std::size_t l = 0; l < kc; ++l) strip[l * MR + ir] = arow[l];
      }
    }
  }
}

void micro_tile(simd::MicroKernelFn kern, std::size_t kc, const double* ap,
                const double* bp, Span2D<double> c, std::size_t i0,
                std::size_t j0, std::size_t mr, std::size_t nr) {
  double acc[MR * NR];
  if (mr == MR && nr == NR) {
    for (std::size_t ir = 0; ir < MR; ++ir) {
      std::memcpy(acc + ir * NR, c.row(i0 + ir) + j0, NR * sizeof(double));
    }
    kern(kc, ap, bp, acc);
    for (std::size_t ir = 0; ir < MR; ++ir) {
      std::memcpy(c.row(i0 + ir) + j0, acc + ir * NR, NR * sizeof(double));
    }
    return;
  }
  std::fill(acc, acc + MR * NR, 0.0);
  for (std::size_t ir = 0; ir < mr; ++ir) {
    for (std::size_t jr = 0; jr < nr; ++jr) acc[ir * NR + jr] = c(i0 + ir, j0 + jr);
  }
  kern(kc, ap, bp, acc);
  for (std::size_t ir = 0; ir < mr; ++ir) {
    for (std::size_t jr = 0; jr < nr; ++jr) c(i0 + ir, j0 + jr) = acc[ir * NR + jr];
  }
}

void gemm_packed_engine(Span2D<const double> a, Span2D<const double> b,
                        Span2D<double> c, bool b_transposed, bool negate_a) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  const simd::MicroKernelFn kern = simd::active_micro_kernel();
  const std::size_t nkc = ceil_div(k, kKC);
  // Uniform panel stride (kKC*NR even for the ragged last chunk) keeps the
  // cooperative-pack index arithmetic trivial; the tail beyond kc*NR of a
  // ragged chunk's panels is simply never read.
  const std::size_t panel_stride = kKC * NR;

  for (std::size_t j0 = 0; j0 < n; j0 += kNC) {
    const std::size_t nc = std::min(kNC, n - j0);
    const std::size_t npanels = ceil_div(nc, NR);

    // Stage 1: pack the whole (all-k x column-slab) set of B micropanels
    // cooperatively. Units write disjoint panel regions; the parallel_for
    // completion barrier orders them before the compute stage's reads.
    std::vector<double>& bpack = tls_bpack;
    bpack.resize(nkc * npanels * panel_stride);
    double* const bbase = bpack.data();
    const std::size_t pack_units = nkc * npanels;
    // ~kc*NR*8 bytes copied per unit at ~0.5 ns/byte.
    const std::size_t pack_grain = common::grain_for_cost(
        static_cast<double>(std::min<std::size_t>(kKC, k)) * NR * 8.0 * 0.5);
    common::parallel_for(
        0, pack_units, pack_grain, [&](std::size_t u0, std::size_t u1) {
          for (std::size_t u = u0; u < u1; ++u) {
            const std::size_t kb = u / npanels;
            const std::size_t jp = u % npanels;
            const std::size_t k0 = kb * kKC;
            const std::size_t kc = std::min(kKC, k - k0);
            const std::size_t j = j0 + jp * NR;
            const std::size_t w = std::min(NR, j0 + nc - j);
            pack_b_micropanel(b, b_transposed, k0, kc, j, w,
                              bbase + u * panel_stride);
          }
        });

    // Stage 2: one fused region over i-tiles; each task owns disjoint C
    // rows and applies k-chunks in ascending order (bit-identity).
    const std::size_t ntiles = ceil_div(m, kMC);
    const std::size_t tile_grain = common::grain_for_flops(
        2.0 * static_cast<double>(std::min<std::size_t>(kMC, m)) *
        static_cast<double>(nc) * static_cast<double>(k));
    common::parallel_for(
        0, ntiles, tile_grain, [&](std::size_t t0, std::size_t t1) {
          std::vector<double>& apack = tls_apack;
          for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t i0 = t * kMC;
            const std::size_t mc = std::min(kMC, m - i0);
            for (std::size_t kb = 0; kb < nkc; ++kb) {
              const std::size_t k0 = kb * kKC;
              const std::size_t kc = std::min(kKC, k - k0);
              pack_a_tile(a, i0, mc, k0, kc, negate_a, apack);
              const double* slab = bbase + kb * npanels * panel_stride;
              for (std::size_t jp = 0; jp < npanels; ++jp) {
                const double* bp = slab + jp * panel_stride;
                const std::size_t j = j0 + jp * NR;
                const std::size_t w = std::min(NR, j0 + nc - j);
                for (std::size_t ip = 0; ip * MR < mc; ++ip) {
                  const double* ap = apack.data() + ip * kc * MR;
                  const std::size_t i = i0 + ip * MR;
                  const std::size_t h = std::min(MR, i0 + mc - i);
                  micro_tile(kern, kc, ap, bp, c, i, j, h, w);
                }
              }
            }
          }
        });
  }
}

void gemm_narrow(Span2D<const double> a, Span2D<const double> b,
                 Span2D<double> c, bool b_transposed) {
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  // b(l, j) sits at b[l * bl + j * bj]; B^T swaps the two strides.
  const std::size_t bl = b_transposed ? 1 : b.stride();
  const std::size_t bj = b_transposed ? b.stride() : 1;
  simd::active_narrow_kernel()(m, n, k, a.data(), a.stride(), b.data(), bl,
                               bj, c.data(), c.stride());
}

void gemm_sub_skip_zeros(Span2D<const double> a, Span2D<const double> b,
                         Span2D<double> c) {
  bool has_zero = false;
  for (std::size_t i = 0; i < a.rows() && !has_zero; ++i) {
    const double* ai = a.row(i);
    has_zero = std::find(ai, ai + a.cols(), 0.0) != ai + a.cols();
  }
  if (!has_zero) {
    gemm_packed_engine(a, b, c, /*b_transposed=*/false, /*negate_a=*/true);
    return;
  }
  for (std::size_t i = 0; i < c.rows(); ++i) {
    double* ci = c.row(i);
    for (std::size_t l = 0; l < a.cols(); ++l) {
      const double ail = a(i, l);
      if (ail == 0.0) continue;
      const double* bl = b.row(l);
      for (std::size_t j = 0; j < c.cols(); ++j) ci[j] -= ail * bl[j];
    }
  }
}

}  // namespace detail

void gemm(Span2D<const double> a, Span2D<const double> b, Span2D<double> c) {
  check_gemm_shapes(a, b, c);
  const std::size_t m = c.rows(), n = c.cols(), k = a.cols();
  if (m == 0 || n == 0 || k == 0) return;
  // Telemetry: one relaxed add per *call* (never per element), so the
  // instrumented kernel's wall time is indistinguishable from the bare one.
  const bool metrics = obs::metrics_enabled();
  if (metrics) {
    static obs::Counter& calls = obs::Registry::global().counter("gemm.calls");
    static obs::Counter& flops = obs::Registry::global().counter("gemm.flops");
    calls.add(1);
    flops.add(static_cast<std::uint64_t>(2) * m * n * k);
  }
  obs::ScopedTimer span("gemm", "linalg");
  // Dispatch by shape; every path is bit-identical to gemm_naive, so the
  // rule changes nothing but speed. Narrow C (one rank's column share of a
  // wider product): the microkernel would run with most of its kNR lanes
  // empty after packing all of A, so rows go in vector lanes instead.
  if (n < simd::kNR) {
    detail::gemm_narrow(a, b, c, /*b_transposed=*/false);
    return;
  }
  // Small products: packing overhead dominates.
  if (m * n * k <= 48 * 48 * 48) {
    gemm_tiled(a, b, c);
    return;
  }
  detail::gemm_packed_engine(a, b, c, /*b_transposed=*/false);
  if (metrics) {
    // B micropanel bytes plus the A micropanels every i-tile packs.
    static obs::Counter& packed =
        obs::Registry::global().counter("gemm.pack_bytes");
    const std::size_t kpad = (k + detail::kKC - 1) / detail::kKC * detail::kKC;
    packed.add(((n + simd::kNR - 1) / simd::kNR * kpad * simd::kNR +
                (m + simd::kMR - 1) / simd::kMR * k * simd::kMR) *
               sizeof(double));
  }
}

void gemm_overwrite(Span2D<const double> a, Span2D<const double> b,
                    Span2D<double> c) {
  for (std::size_t i = 0; i < c.rows(); ++i) {
    double* row = c.row(i);
    std::fill(row, row + c.cols(), 0.0);
  }
  gemm(a, b, c);
}

void trsm_left_lower_unit(Span2D<const double> l, Span2D<double> b) {
  RCS_CHECK_MSG(l.rows() == l.cols(), "trsm: L must be square");
  RCS_CHECK_MSG(l.rows() == b.rows(), "trsm: L/B shape mismatch");
  const std::size_t n = l.rows();
  const std::size_t m = b.cols();
  if (n == 0 || m == 0) return;
  // Forward substitution: X[i] = B[i] - sum_{j<i} L[i,j] X[j], with the
  // subtractions in ascending j and an exact-zero L[i,j] skipped. Blocked
  // right-looking: rows [j0, j1) of X are solved by the scalar loop, then
  // leave every later row in one packed update,
  //   X[j1:n] -= L[j1:n, j0:j1] * X[j0:j1],
  // which keeps each entry's subtractions in ascending j (and the skips).
  // Columns of B are independent systems, so the solve parallelizes over
  // disjoint column strips (nested updates then run serially) with every
  // output bit unchanged at any thread count. The grain heuristic keeps
  // small right-hand sides serial: one column costs ~n^2 flops of work.
  const std::size_t grain = common::grain_for_flops(
      static_cast<double>(n) * static_cast<double>(n));
  common::parallel_for(0, m, grain, [&](std::size_t c0, std::size_t c1) {
    const Span2D<double> x = b.block(0, c0, n, c1 - c0);
    for (std::size_t j0 = 0; j0 < n; j0 += detail::kPanelNB) {
      const std::size_t j1 = std::min(j0 + detail::kPanelNB, n);
      for (std::size_t i = j0 + 1; i < j1; ++i) {
        double* xi = x.row(i);
        for (std::size_t j = j0; j < i; ++j) {
          const double lij = l(i, j);
          if (lij == 0.0) continue;
          const double* xj = x.row(j);
          for (std::size_t col = 0; col < x.cols(); ++col) {
            xi[col] -= lij * xj[col];
          }
        }
        // Unit diagonal: no divide.
      }
      if (j1 < n) {
        detail::gemm_sub_skip_zeros(l.block(j1, j0, n - j1, j1 - j0),
                                    x.block(j0, 0, j1 - j0, x.cols()),
                                    x.block(j1, 0, n - j1, x.cols()));
      }
    }
  });
}

namespace {
/// The right-looking solve of trsm_right_upper for R rows x[0..R) of B at
/// once, over the triangle u (columns of x from `col0`): per row, x[i] is
/// scaled by inv[i] and then leaves every later x[j]; each row of U
/// streams once per R rows.
template <std::size_t R>
void trsm_right_upper_rows(Span2D<const double> u, const double* inv,
                           std::size_t col0, double* const (&x)[R]) {
  const std::size_t n = u.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double xi[R];
    for (std::size_t q = 0; q < R; ++q) xi[q] = x[q][col0 + i] *= inv[i];
    const double* ui = u.row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const double uij = ui[j];
      for (std::size_t q = 0; q < R; ++q) x[q][col0 + j] -= xi[q] * uij;
    }
  }
}
}  // namespace

void trsm_right_upper(Span2D<const double> u, Span2D<double> b) {
  RCS_CHECK_MSG(u.rows() == u.cols(), "trsm: U must be square");
  RCS_CHECK_MSG(u.cols() == b.cols(), "trsm: U/B shape mismatch");
  const std::size_t n = u.rows();
  // Solve X U = B row-wise, right-looking: for each row x of B, once x[i]
  // is final (scaled by 1 / U[i,i]) its contribution leaves every later
  // x[j]. Each x[j] sees b[j], then the subtractions x[i] U[i,j] for
  // i = 0, 1, ..., j-1 in that order, then one multiply by 1 / U[j,j]:
  //   x[j] = (b[j] - sum_{i<j} x[i] U[i,j]) * (1 / U[j,j]),
  // the same operations in the same order as getrf_panel's Gaussian
  // elimination, so L10 blocks computed via this trsm (the distributed
  // design's opL) equal the ones a monolithic panel factorization produces
  // bit-for-bit. Blocked: columns [j0, j1) of X are solved by the scalar
  // loop, then leave every later column in one packed update,
  //   X[:, j1:n] -= X[:, j0:j1] * U[j0:j1, j1:n],
  // which keeps each entry's subtractions in ascending i.
  std::vector<double> inv(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double d = u(j, j);
    RCS_CHECK_MSG(d != 0.0, "trsm: singular U (zero diagonal at " << j << ")");
    inv[j] = 1.0 / d;
  }
  if (n == 0 || b.rows() == 0) return;
  // Rows of B are independent systems, so the solve parallelizes over
  // disjoint row strips (nested updates then run serially) with every
  // output bit unchanged at any thread count; one row costs ~n^2 flops.
  const std::size_t grain = common::grain_for_flops(
      static_cast<double>(n) * static_cast<double>(n));
  common::parallel_for(0, b.rows(), grain, [&](std::size_t r0, std::size_t r1) {
    const Span2D<double> x = b.block(r0, 0, r1 - r0, n);
    const std::size_t m = x.rows();
    for (std::size_t j0 = 0; j0 < n; j0 += detail::kPanelNB) {
      const std::size_t j1 = std::min(j0 + detail::kPanelNB, n);
      const auto ujj = u.block(j0, j0, j1 - j0, j1 - j0);
      // Four rows at a time share each streamed row of U; a ragged tail
      // goes one row at a time.
      std::size_t r = 0;
      for (; r + 4 <= m; r += 4) {
        double* const xr[4] = {x.row(r), x.row(r + 1), x.row(r + 2),
                               x.row(r + 3)};
        trsm_right_upper_rows(ujj, inv.data() + j0, j0, xr);
      }
      for (; r < m; ++r) {
        double* const xr[1] = {x.row(r)};
        trsm_right_upper_rows(ujj, inv.data() + j0, j0, xr);
      }
      if (j1 < n) {
        detail::gemm_packed_engine(x.block(0, j0, m, j1 - j0),
                                   u.block(j0, j1, j1 - j0, n - j1),
                                   x.block(0, j1, m, n - j1),
                                   /*b_transposed=*/false, /*negate_a=*/true);
      }
    }
  });
}

void matrix_sub(Span2D<double> a, Span2D<const double> b) {
  RCS_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                "matrix_sub shape mismatch");
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double* ar = a.row(r);
    const double* br = b.row(r);
    for (std::size_t c = 0; c < a.cols(); ++c) ar[c] -= br[c];
  }
}

}  // namespace rcs::linalg
