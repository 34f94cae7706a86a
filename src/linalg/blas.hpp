#pragma once
// Dense BLAS-subset kernels used by the host ("software") side of the hybrid
// designs — the stand-in for the ACML routines the paper calls (dgemm, dtrsm)
// and for the elementwise update opMS.
//
// All kernels operate on (possibly strided) Span2D views so they compose with
// the blocked algorithms without copies.
//
// "Bit-identical" below means, on every dispatch path and at any thread
// count: every non-NaN result is bit-identical to the reference loop, and
// a NaN result stays NaN at the same position, with unspecified payload and
// sign. (When two NaNs meet in one add, x86 returns the first operand's,
// and the compiler picks the operand order per function; the panel kernels'
// packed updates also negate one operand, which flips a NaN's sign.)

#include "common/span2d.hpp"

namespace rcs::linalg {

/// C += A * B (naive triple loop; reference implementation for tests).
void gemm_naive(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c);

/// C += A * B, cache-blocked i-k-j loop (the previous production kernel,
/// kept as the single-threaded baseline the perf harness regresses against).
void gemm_tiled(Span2D<const double> a, Span2D<const double> b,
                Span2D<double> c);

/// C += A * B, the production host dgemm substitute. The kernel is picked
/// by C's shape alone: fewer than simd::kNR columns (a worker's column
/// share of a wider product) runs the narrow-column kernel, rows of C in
/// vector lanes with A read in place (serial); m*n*k <= 48^3 runs
/// gemm_tiled; anything else runs the packed register-blocked engine: B
/// micropanels are packed cooperatively on the shared common::ThreadPool,
/// then one fused parallel region per column slab sweeps the i-tile x
/// k-chunk space with the runtime-dispatched SIMD microkernel. The SIMD
/// kernels follow simd::active_level() (override with RCS_SIMD=scalar|avx2|
/// avx512). Per-entry accumulation order is ascending inner index with no
/// FMA on every path, so the result is bit-identical to gemm_naive at any
/// thread count and on every dispatch path.
void gemm(Span2D<const double> a, Span2D<const double> b, Span2D<double> c);

/// C = A * B (zeroes C first, then gemm).
void gemm_overwrite(Span2D<const double> a, Span2D<const double> b,
                    Span2D<double> c);

/// Solve L * X = B in place of B, with L lower-triangular and unit-diagonal
/// (dtrsm side=Left, uplo=Lower, diag=Unit). Used by opU: U01 = L00^-1 A01.
/// Blocked right-looking: each 32-row block of X is solved by forward
/// substitution, then leaves every later row in one packed-gemm update
/// (the multiplier block negated as it is packed). Every entry keeps the
/// forward substitution's subtractions in ascending order, and an exact-zero
/// L[i,j] is still skipped (a multiplier block holding one takes the scalar
/// loop), so the result is bit-identical to the plain forward substitution.
/// Parallelized over disjoint column strips of B (columns are independent
/// systems), bit-identical at any thread count.
void trsm_left_lower_unit(Span2D<const double> l, Span2D<double> b);

/// Solve X * U = B in place of B, with U upper-triangular (non-unit diagonal)
/// (dtrsm side=Right, uplo=Upper, diag=NonUnit). Used by opL:
/// L10 = A10 U00^-1. Right-looking, with the per-entry operation order of
/// getrf_panel's elimination, so opL blocks are bit-identical to a
/// monolithic panel factorization. Blocked like trsm_left_lower_unit (32
/// columns of X per scalar solve, the rest one packed update) and
/// parallelized over disjoint row strips of B.
void trsm_right_upper(Span2D<const double> u, Span2D<double> b);

/// A -= B elementwise — the paper's opMS task (Θ(b²), kept on the processor).
void matrix_sub(Span2D<double> a, Span2D<const double> b);

/// Number of floating-point operations counted for an m x k by k x n gemm
/// (one multiply + one add per inner step, matching the paper's accounting).
inline long long gemm_flops(long long m, long long k, long long n) {
  return 2LL * m * k * n;
}

/// Flop count for a triangular solve with an n x n triangle and m right-hand
/// side rows/columns.
inline long long trsm_flops(long long n, long long m) { return 1LL * n * n * m; }

/// Flop count for LU factorization of an n x n matrix (2/3 n^3 leading term).
inline long long getrf_flops(long long n) { return 2LL * n * n * n / 3; }

}  // namespace rcs::linalg
