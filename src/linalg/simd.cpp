#include "linalg/simd.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "obs/provenance.hpp"

// Explicit-ISA kernels are compiled with per-function target attributes so
// this translation unit builds with the project's baseline flags (no
// -march=native) and the binary stays runnable on machines without the wide
// ISAs — the unsupported paths are simply never dispatched to.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RCS_SIMD_X86 1
#include <immintrin.h>
#endif

namespace rcs::linalg::simd {

namespace {

using std::size_t;

/// Portable reference path. The compiler may vectorize the jr loop, but
/// each lane is still one IEEE mul feeding one IEEE add (-ffp-contract=off
/// forbids fusing them), so the bits match the explicit-ISA kernels.
void micro_kernel_scalar(size_t kc, const double* ap, const double* bp,
                         double* acc) {
  for (size_t l = 0; l < kc; ++l) {
    const double* arow = ap + l * kMR;
    const double* brow = bp + l * kNR;
    for (size_t ir = 0; ir < kMR; ++ir) {
      const double av = arow[ir];
      double* row = acc + ir * kNR;
      for (size_t jr = 0; jr < kNR; ++jr) row[jr] += av * brow[jr];
    }
  }
}

/// R rows of the narrow product on the portable path: per column, R
/// independent add chains (one per row), each in ascending l.
template <size_t R>
void narrow_rows_scalar(size_t n, size_t k, const double* a, size_t lda,
                        const double* b, size_t bl, size_t bj, double* c,
                        size_t ldc) {
  for (size_t j = 0; j < n; ++j) {
    double acc[R];
    for (size_t r = 0; r < R; ++r) acc[r] = c[r * ldc + j];
    for (size_t l = 0; l < k; ++l) {
      const double bv = b[l * bl + j * bj];
      for (size_t r = 0; r < R; ++r) acc[r] += a[r * lda + l] * bv;
    }
    for (size_t r = 0; r < R; ++r) c[r * ldc + j] = acc[r];
  }
}

void narrow_kernel_scalar(size_t m, size_t n, size_t k, const double* a,
                          size_t lda, const double* b, size_t bl, size_t bj,
                          double* c, size_t ldc) {
  size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    narrow_rows_scalar<8>(n, k, a + i * lda, lda, b, bl, bj, c + i * ldc, ldc);
  }
  for (; i < m; ++i) {
    narrow_rows_scalar<1>(n, k, a + i * lda, lda, b, bl, bj, c + i * ldc, ldc);
  }
}

#ifdef RCS_SIMD_X86

/// A narrow kernel specialised to a fixed column count, so its N
/// accumulators stay in registers; each vector level keeps one per
/// 1 <= N < kNR in a table indexed by n.
using NarrowColsFn = void (*)(size_t m, size_t k, const double* a, size_t lda,
                              const double* b, size_t bl, size_t bj,
                              double* c, size_t ldc);
static_assert(kNR == 8, "the narrow kernel tables list N = 1..7");

/// AVX2: one C-microtile row is two ymm registers. Processing the 8 rows in
/// two halves of 4 keeps the live set at 8 accumulators + 2 B vectors + 1
/// broadcast — comfortably inside the 16 ymm registers; the B panel is
/// re-read for the second half but is L1-resident (kc*NR*8 <= 16 KB).
/// _mm256_mul_pd + _mm256_add_pd are separate instructions by construction:
/// no FMA, bit-identical to the scalar loop.
__attribute__((target("avx2"))) void micro_kernel_avx2(size_t kc,
                                                       const double* ap,
                                                       const double* bp,
                                                       double* acc) {
  for (size_t half = 0; half < 2; ++half) {
    const size_t r0 = half * 4;
    __m256d r[4][2];
    for (size_t i = 0; i < 4; ++i) {
      r[i][0] = _mm256_loadu_pd(acc + (r0 + i) * kNR);
      r[i][1] = _mm256_loadu_pd(acc + (r0 + i) * kNR + 4);
    }
    for (size_t l = 0; l < kc; ++l) {
      const __m256d b0 = _mm256_loadu_pd(bp + l * kNR);
      const __m256d b1 = _mm256_loadu_pd(bp + l * kNR + 4);
      const double* arow = ap + l * kMR + r0;
      for (size_t i = 0; i < 4; ++i) {
        const __m256d av = _mm256_set1_pd(arow[i]);
        r[i][0] = _mm256_add_pd(r[i][0], _mm256_mul_pd(av, b0));
        r[i][1] = _mm256_add_pd(r[i][1], _mm256_mul_pd(av, b1));
      }
    }
    for (size_t i = 0; i < 4; ++i) {
      _mm256_storeu_pd(acc + (r0 + i) * kNR, r[i][0]);
      _mm256_storeu_pd(acc + (r0 + i) * kNR + 4, r[i][1]);
    }
  }
}

/// AVX-512F: one zmm per C-microtile row; 8 accumulators + 1 B vector + 1
/// broadcast live. Separate vmulpd/vaddpd — no FMA, bit-identical.
__attribute__((target("avx512f"))) void micro_kernel_avx512(size_t kc,
                                                            const double* ap,
                                                            const double* bp,
                                                            double* acc) {
  __m512d r[kMR];
  for (size_t i = 0; i < kMR; ++i) r[i] = _mm512_loadu_pd(acc + i * kNR);
  for (size_t l = 0; l < kc; ++l) {
    const __m512d b = _mm512_loadu_pd(bp + l * kNR);
    const double* arow = ap + l * kMR;
    for (size_t i = 0; i < kMR; ++i) {
      const __m512d av = _mm512_set1_pd(arow[i]);
      r[i] = _mm512_add_pd(r[i], _mm512_mul_pd(av, b));
    }
  }
  for (size_t i = 0; i < kMR; ++i) _mm512_storeu_pd(acc + i * kNR, r[i]);
}

/// Transpose the 4x4 block r[0..3] (r[i] = 4 consecutive l of row i) so
/// that r[l] holds step l across the 4 rows.
__attribute__((target("avx2"))) inline void transpose4(__m256d r[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);  // 00 10 02 12
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);  // 01 11 03 13
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);  // 20 30 22 32
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);  // 21 31 23 33
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// `steps` of l against the transposed rows t: acc[j] += t[s] * b(l0+s, j).
template <size_t N>
__attribute__((target("avx2"))) inline void narrow_steps_avx2(
    __m256d* acc, const __m256d* t, size_t steps, const double* b,
    size_t bl, size_t bj) {
  for (size_t s = 0; s < steps; ++s) {
    const double* bs = b + s * bl;
    for (size_t j = 0; j < N; ++j) {
      acc[j] = _mm256_add_pd(acc[j],
                             _mm256_mul_pd(t[s], _mm256_set1_pd(bs[j * bj])));
    }
  }
}

/// AVX2 narrow kernel: strips of 4 rows, chunks of 4 steps of l. Rows past
/// a ragged strip's end re-read its last row (valid memory, lanes never
/// stored); a ragged last chunk is a masked load whose dead lanes are
/// never used.
template <size_t N>
__attribute__((target("avx2"))) void narrow_avx2(size_t m, size_t k,
                                                 const double* a, size_t lda,
                                                 const double* b, size_t bl,
                                                 size_t bj, double* c,
                                                 size_t ldc) {
  const size_t kr = k % 4;
  const __m256i tail = _mm256_setr_epi64x(kr > 0 ? -1 : 0, kr > 1 ? -1 : 0,
                                          kr > 2 ? -1 : 0, 0);
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t h = std::min<size_t>(4, m - i0);
    const double* rows[4];
    for (size_t r = 0; r < 4; ++r) {
      rows[r] = a + (i0 + std::min(r, h - 1)) * lda;
    }
    alignas(32) double buf[4] = {};
    __m256d acc[N];
    for (size_t j = 0; j < N; ++j) {
      for (size_t r = 0; r < h; ++r) buf[r] = c[(i0 + r) * ldc + j];
      acc[j] = _mm256_load_pd(buf);
    }
    __m256d t[4];
    size_t l = 0;
    for (; l + 4 <= k; l += 4) {
      for (size_t r = 0; r < 4; ++r) t[r] = _mm256_loadu_pd(rows[r] + l);
      transpose4(t);
      narrow_steps_avx2<N>(acc, t, 4, b + l * bl, bl, bj);
    }
    if (kr > 0) {
      for (size_t r = 0; r < 4; ++r) {
        t[r] = _mm256_maskload_pd(rows[r] + l, tail);
      }
      transpose4(t);
      narrow_steps_avx2<N>(acc, t, kr, b + l * bl, bl, bj);
    }
    for (size_t j = 0; j < N; ++j) {
      _mm256_store_pd(buf, acc[j]);
      for (size_t r = 0; r < h; ++r) c[(i0 + r) * ldc + j] = buf[r];
    }
  }
}

constexpr NarrowColsFn kNarrowAvx2[kNR] = {
    nullptr,        narrow_avx2<1>, narrow_avx2<2>, narrow_avx2<3>,
    narrow_avx2<4>, narrow_avx2<5>, narrow_avx2<6>, narrow_avx2<7>};

void narrow_kernel_avx2(size_t m, size_t n, size_t k, const double* a,
                        size_t lda, const double* b, size_t bl, size_t bj,
                        double* c, size_t ldc) {
  kNarrowAvx2[n](m, k, a, lda, b, bl, bj, c, ldc);
}

/// Transpose the 8x8 block r[0..7] (r[i] = 8 consecutive l of row i) so
/// that r[l] holds step l across the 8 rows: three rounds of two-source
/// lane permutes (vpermt2pd), 24 in all.
__attribute__((target("avx512f"))) inline void transpose8(__m512d r[8]) {
  // Interleave the even / odd elements of two rows (unpacklo / unpackhi).
  const __m512i lo = _mm512_setr_epi64(0, 8, 2, 10, 4, 12, 6, 14);
  const __m512i hi = _mm512_setr_epi64(1, 9, 3, 11, 5, 13, 7, 15);
  // 128-bit lanes {0, 2} / {1, 3} of the first operand, then of the second.
  const __m512i even = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
  const __m512i odd = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
  __m512d t[8];
  for (size_t i = 0; i < 8; i += 2) {
    t[i] = _mm512_permutex2var_pd(r[i], lo, r[i + 1]);
    t[i + 1] = _mm512_permutex2var_pd(r[i], hi, r[i + 1]);
  }
  // t[2q] holds elements (2q, 2q+1) x columns {0, 2, 4, 6}, t[2q+1] the odd
  // columns; u* gather rows 0-3, v* rows 4-7.
  const __m512d u0 = _mm512_permutex2var_pd(t[0], even, t[2]);
  const __m512d u1 = _mm512_permutex2var_pd(t[0], odd, t[2]);
  const __m512d u2 = _mm512_permutex2var_pd(t[1], even, t[3]);
  const __m512d u3 = _mm512_permutex2var_pd(t[1], odd, t[3]);
  const __m512d v0 = _mm512_permutex2var_pd(t[4], even, t[6]);
  const __m512d v1 = _mm512_permutex2var_pd(t[4], odd, t[6]);
  const __m512d v2 = _mm512_permutex2var_pd(t[5], even, t[7]);
  const __m512d v3 = _mm512_permutex2var_pd(t[5], odd, t[7]);
  r[0] = _mm512_permutex2var_pd(u0, even, v0);
  r[4] = _mm512_permutex2var_pd(u0, odd, v0);
  r[2] = _mm512_permutex2var_pd(u1, even, v1);
  r[6] = _mm512_permutex2var_pd(u1, odd, v1);
  r[1] = _mm512_permutex2var_pd(u2, even, v2);
  r[5] = _mm512_permutex2var_pd(u2, odd, v2);
  r[3] = _mm512_permutex2var_pd(u3, even, v3);
  r[7] = _mm512_permutex2var_pd(u3, odd, v3);
}

template <size_t N>
__attribute__((target("avx512f"))) inline void narrow_steps_avx512(
    __m512d* acc, const __m512d* t, size_t steps, const double* b,
    size_t bl, size_t bj) {
  for (size_t s = 0; s < steps; ++s) {
    const double* bs = b + s * bl;
    for (size_t j = 0; j < N; ++j) {
      acc[j] = _mm512_add_pd(acc[j],
                             _mm512_mul_pd(t[s], _mm512_set1_pd(bs[j * bj])));
    }
  }
}

/// AVX-512 narrow kernel: strips of 8 rows, chunks of 8 steps of l, with
/// the same ragged-strip and ragged-chunk handling as the AVX2 kernel (the
/// chunk tail is a zero-masked load).
template <size_t N>
__attribute__((target("avx512f"))) void narrow_avx512(
    size_t m, size_t k, const double* a, size_t lda, const double* b,
    size_t bl, size_t bj, double* c, size_t ldc) {
  const size_t kr = k % 8;
  const __mmask8 tail = static_cast<__mmask8>((1u << kr) - 1);
  for (size_t i0 = 0; i0 < m; i0 += 8) {
    const size_t h = std::min<size_t>(8, m - i0);
    const double* rows[8];
    for (size_t r = 0; r < 8; ++r) {
      rows[r] = a + (i0 + std::min(r, h - 1)) * lda;
    }
    alignas(64) double buf[8] = {};
    __m512d acc[N];
    for (size_t j = 0; j < N; ++j) {
      for (size_t r = 0; r < h; ++r) buf[r] = c[(i0 + r) * ldc + j];
      acc[j] = _mm512_load_pd(buf);
    }
    __m512d t[8];
    size_t l = 0;
    for (; l + 8 <= k; l += 8) {
      for (size_t r = 0; r < 8; ++r) t[r] = _mm512_loadu_pd(rows[r] + l);
      transpose8(t);
      narrow_steps_avx512<N>(acc, t, 8, b + l * bl, bl, bj);
    }
    if (kr > 0) {
      for (size_t r = 0; r < 8; ++r) {
        t[r] = _mm512_maskz_loadu_pd(tail, rows[r] + l);
      }
      transpose8(t);
      narrow_steps_avx512<N>(acc, t, kr, b + l * bl, bl, bj);
    }
    for (size_t j = 0; j < N; ++j) {
      _mm512_store_pd(buf, acc[j]);
      for (size_t r = 0; r < h; ++r) c[(i0 + r) * ldc + j] = buf[r];
    }
  }
}

constexpr NarrowColsFn kNarrowAvx512[kNR] = {
    nullptr,          narrow_avx512<1>, narrow_avx512<2>, narrow_avx512<3>,
    narrow_avx512<4>, narrow_avx512<5>, narrow_avx512<6>, narrow_avx512<7>};

void narrow_kernel_avx512(size_t m, size_t n, size_t k, const double* a,
                          size_t lda, const double* b, size_t bl, size_t bj,
                          double* c, size_t ldc) {
  kNarrowAvx512[n](m, k, a, lda, b, bl, bj, c, ldc);
}

#endif  // RCS_SIMD_X86

Level detect_best() {
#ifdef RCS_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Level::Avx512;
  if (__builtin_cpu_supports("avx2")) return Level::Avx2;
#endif
  return Level::Scalar;
}

/// Publish the chosen path into the obs provenance so benchmark artifacts
/// record which kernel produced their numbers.
void publish(Level level) { obs::set_simd_path(level_name(level)); }

Level resolve_initial() {
  const Level best = detect_best();
  Level chosen = best;
  if (const char* env = std::getenv("RCS_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) {
      chosen = Level::Scalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      chosen = Level::Avx2;
    } else if (std::strcmp(env, "avx512") == 0) {
      chosen = Level::Avx512;
    } else if (*env != '\0') {
      std::fprintf(stderr,
                   "rcs: unknown RCS_SIMD value '%s' "
                   "(expected scalar|avx2|avx512); using %s\n",
                   env, level_name(best));
    }
    if (!level_supported(chosen)) {
      std::fprintf(stderr,
                   "rcs: RCS_SIMD=%s not supported on this CPU; "
                   "falling back to %s\n",
                   level_name(chosen), level_name(best));
      chosen = best;
    }
  }
  publish(chosen);
  return chosen;
}

std::atomic<Level>& level_slot() {
  static std::atomic<Level> slot{resolve_initial()};
  return slot;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::Scalar:
      return "scalar";
    case Level::Avx2:
      return "avx2";
    case Level::Avx512:
      return "avx512";
  }
  return "unknown";
}

bool level_supported(Level level) {
  return static_cast<int>(level) <= static_cast<int>(detect_best());
}

Level max_supported_level() { return detect_best(); }

Level active_level() {
  return level_slot().load(std::memory_order_relaxed);
}

void set_level(Level level) {
  RCS_CHECK_MSG(level_supported(level),
                "SIMD level " << level_name(level)
                              << " is not supported on this CPU (max "
                              << level_name(detect_best()) << ")");
  level_slot().store(level, std::memory_order_relaxed);
  publish(level);
}

MicroKernelFn micro_kernel(Level level) {
  RCS_CHECK_MSG(level_supported(level),
                "SIMD level " << level_name(level)
                              << " is not supported on this CPU");
  switch (level) {
    case Level::Scalar:
      return micro_kernel_scalar;
#ifdef RCS_SIMD_X86
    case Level::Avx2:
      return micro_kernel_avx2;
    case Level::Avx512:
      return micro_kernel_avx512;
#else
    default:
      break;
#endif
  }
  return micro_kernel_scalar;
}

MicroKernelFn active_micro_kernel() { return micro_kernel(active_level()); }

NarrowKernelFn narrow_kernel(Level level) {
  RCS_CHECK_MSG(level_supported(level),
                "SIMD level " << level_name(level)
                              << " is not supported on this CPU");
  switch (level) {
    case Level::Scalar:
      return narrow_kernel_scalar;
#ifdef RCS_SIMD_X86
    case Level::Avx2:
      return narrow_kernel_avx2;
    case Level::Avx512:
      return narrow_kernel_avx512;
#else
    default:
      break;
#endif
  }
  return narrow_kernel_scalar;
}

NarrowKernelFn active_narrow_kernel() { return narrow_kernel(active_level()); }

}  // namespace rcs::linalg::simd
