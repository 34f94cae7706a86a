#pragma once
// Internal packing + blocked-engine API of the packed GEMM, and the
// narrow-column path (implemented in blas.cpp). Not part of the public BLAS
// surface: the FPGA MatMulArray emulation streams its tiles through the same machinery so the host and
// "hardware" kernels share one microkernel, one packing layout, and one
// bit-identity argument.
//
// Packed layouts (extents from simd::kMR / simd::kNR):
//   A micropanel strip: strip[l*MR + ir] = a(i0 + ip*MR + ir, k0 + l)
//   B micropanel:       panel[l*NR + jr] = b(k0 + l, j + jr)          (NN)
//                       panel[l*NR + jr] = b(j + jr, k0 + l)          (NT)
// Ragged edges are zero-padded so the microkernel always reads full MR/NR
// lanes; the padded lanes never reach C.

#include <cstddef>
#include <vector>

#include "common/span2d.hpp"
#include "linalg/simd.hpp"

namespace rcs::linalg::detail {

/// Cache-blocking extents of the packed engine.
inline constexpr std::size_t kKC = 256;  // k extent of a packed panel
inline constexpr std::size_t kNC = 512;  // column extent of a packed B slab
inline constexpr std::size_t kMC = 64;   // rows per parallel i-tile

/// Pack one kc x w B micropanel (w <= NR live columns, rest zero-padded)
/// into `panel` (kc * NR doubles, fully overwritten). `transposed` reads
/// b(j + jr, k0 + l) instead of b(k0 + l, j + jr) — the NT product's
/// second operand.
void pack_b_micropanel(Span2D<const double> b, bool transposed,
                       std::size_t k0, std::size_t kc, std::size_t j,
                       std::size_t w, double* panel);

/// Pack a.block(i0.., k0..) into MR-tall micropanels (column-major inside a
/// strip so the microkernel broadcasts MR contiguous values per step).
/// `negate` stores -a(i, l) instead: acc + (-a)*b equals acc - a*b bit for
/// bit on every non-NaN operand, so C -= A * B runs on the same kernels.
void pack_a_tile(Span2D<const double> a, std::size_t i0, std::size_t mc,
                 std::size_t k0, std::size_t kc, bool negate,
                 std::vector<double>& ap);

/// Run `kern` against the (possibly ragged) mr x nr corner of C at
/// (i0, j0): load the live entries, accumulate, store them back.
void micro_tile(simd::MicroKernelFn kern, std::size_t kc, const double* ap,
                const double* bp, Span2D<double> c, std::size_t i0,
                std::size_t j0, std::size_t mr, std::size_t nr);

/// C += A * B (or A * B^T with `b_transposed`) for C with fewer than
/// simd::kNR columns, through the active level's narrow-column kernel: rows
/// of C in vector lanes, A read in place with no pack, ascending inner
/// index per entry (bit-identical to gemm_naive). Serial: a product this
/// narrow is one rank's column share of a wider one, and the ranks are the
/// parallelism. Shapes are NOT validated here; callers check first.
void gemm_narrow(Span2D<const double> a, Span2D<const double> b,
                 Span2D<double> c, bool b_transposed);

/// C += A * B (or A * B^T with `b_transposed`) through the packed engine:
/// per NC-column slab, the B micropanels for every k-chunk are packed
/// cooperatively on the shared pool, then one fused parallel region sweeps
/// the (i-tile, k-chunk, j-panel) space — each i-tile task visits k-chunks
/// in ascending order with per-thread A-pack scratch, so every C entry
/// accumulates in ascending inner-index order (bit-identical to gemm_naive
/// at any thread count and on every SIMD dispatch path). `negate_a` packs
/// A negated, turning the product into C -= A * B with the same per-entry
/// order. Shapes are NOT validated here; callers check first.
void gemm_packed_engine(Span2D<const double> a, Span2D<const double> b,
                        Span2D<double> c, bool b_transposed,
                        bool negate_a = false);

/// Column-block width of the blocked panel kernels (getrf_panel,
/// trsm_left_lower_unit, trsm_right_upper): each block is solved by the
/// scalar loop, everything after it is one packed update.
inline constexpr std::size_t kPanelNB = 32;

/// C -= A * B as the panel kernels' scalar loops take it:
///
///   for i, for l: if (a(i, l) == 0.0) skip; for j: c(i, j) -= a(i, l) * b(l, j)
///
/// The packed engine with A negated when no multiplier is an exact zero;
/// otherwise that loop itself (skipping a zero multiplier changes signed
/// zeros and inf/NaN results, so it is a behaviour, not an optimisation).
/// Non-NaN results are bit-identical to the loop either way. Shapes are NOT
/// validated here; callers check first.
void gemm_sub_skip_zeros(Span2D<const double> a, Span2D<const double> b,
                         Span2D<double> c);

}  // namespace rcs::linalg::detail
