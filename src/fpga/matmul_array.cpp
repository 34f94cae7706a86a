#include "fpga/matmul_array.hpp"

#include <type_traits>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::fpga {

namespace {

/// Products below this (m * inner * n) stay on the simple row loop: the
/// streamed pipeline's packing traffic only pays off once the operands stop
/// fitting in L2. Matches the host gemm's small-product fallback.
constexpr std::size_t kStreamThreshold = 48 * 48 * 48;

/// Estimated nanoseconds one emulated MAC costs on the scalar row loop, for
/// the pool's minimum-grain heuristic: about 1 ns native, scaled by the
/// backend's host cost.
template <typename Backend>
constexpr double mac_ns() {
  return Backend::kHostCost;
}

/// Telemetry for the emulated PE array. `stall_cycles` estimates the PE
/// slots the systolic schedule would leave idle on ragged tiles: the cycle
/// model charges full k x k tiles, so slots = cycles * k while the useful
/// work is only m * inner * n MACs.
struct MmMetrics {
  obs::Counter& calls;
  obs::Counter& macs;
  obs::Counter& stall_cycles;

  static MmMetrics& get() {
    static MmMetrics m{obs::Registry::global().counter("fpga.mm.calls"),
                       obs::Registry::global().counter("fpga.mm.macs"),
                       obs::Registry::global().counter("fpga.mm.stalls")};
    return m;
  }
};

}  // namespace

MatMulArray::MatMulArray(DeviceConfig dev) : dev_(std::move(dev)) {
  RCS_CHECK_MSG(dev_.pe_count > 0, "MatMulArray needs at least one PE");
  // Each PE double-buffers a k x k tile of C and a k-row slice of D in
  // Block RAM (2 k^2 words, as in [21]).
  require_bram(dev_,
               2ull * static_cast<std::uint64_t>(dev_.pe_count) *
                   static_cast<std::uint64_t>(dev_.pe_count),
               "matmul PE array");
}

void MatMulArray::note_call(std::size_t m, std::size_t inner,
                            std::size_t n) const {
  MmMetrics& mm = MmMetrics::get();
  mm.calls.add(1);
  const std::uint64_t useful = static_cast<std::uint64_t>(m) * inner * n;
  mm.macs.add(useful);
  const std::uint64_t slots =
      static_cast<std::uint64_t>(cycles(static_cast<long long>(m),
                                        static_cast<long long>(inner),
                                        static_cast<long long>(n))) *
      static_cast<std::uint64_t>(dev_.pe_count);
  mm.stall_cycles.add(slots - useful);
}

long long MatMulArray::cycles(long long m, long long inner,
                              long long n) const {
  RCS_CHECK_MSG(m >= 0 && inner >= 0 && n >= 0, "negative matmul extent");
  if (m == 0 || inner == 0 || n == 0) return 0;
  const long long k = dev_.pe_count;
  auto ceil_div = [](long long a, long long b) { return (a + b - 1) / b; };
  const long long tiles = ceil_div(m, k) * ceil_div(inner, k) * ceil_div(n, k);
  return tiles * k * k;
}

template <typename Backend>
void MatMulArray::mac_impl(Span2D<const double> c, Span2D<const double> d,
                           Span2D<double> e) const {
  RCS_CHECK_MSG(c.cols() == d.rows() && c.rows() == e.rows() &&
                    d.cols() == e.cols(),
                "matmul shape mismatch");
  require_sram(dev_, sram_words(static_cast<long long>(e.rows()),
                                static_cast<long long>(e.cols())),
               "matmul result tile");
  obs::ScopedTimer span("mm", "fpga");
  if (obs::metrics_enabled()) note_call(e.rows(), c.cols(), e.cols());
  // Dot products accumulate in ascending inner-index order, exactly like the
  // streaming PEs (and the host gemm), so every path below yields identical
  // bits at any thread count.
  //
  // Native path, large product: stream through the packed engine — C-row
  // strips and D micropanels are packed into contiguous scratch on the pool
  // (the read stage), the dispatched SIMD microkernel accumulates (compute),
  // and each result strip is written back per tile (write). NativeFp::mac is
  // an unfused a*b then add, the same operation the engine performs.
  if (std::is_same_v<Backend, fparith::NativeFp> &&
      e.rows() * e.cols() * c.cols() > kStreamThreshold) {
    linalg::detail::gemm_packed_engine(c, d, e, /*b_transposed=*/false);
  } else {
    // Soft-float cores (or tiny tiles): plain row loop; the grain heuristic
    // keeps cheap calls serial instead of paying chunk dispatch.
    const std::size_t grain = common::grain_for_cost(
        mac_ns<Backend>() * static_cast<double>(c.cols()) *
        static_cast<double>(e.cols()));
    common::parallel_for(0, e.rows(), grain,
                         [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < e.cols(); ++j) {
          double acc = e(i, j);
          for (std::size_t l = 0; l < c.cols(); ++l) {
            acc = Backend::mac(acc, c(i, l), d(l, j));
          }
          e(i, j) = acc;
        }
      }
    });
  }
  run_fault_hook(e);
}

void MatMulArray::run_fault_hook(Span2D<double> e) const {
  if (!fault_hook_) return;
  fault_hook_(call_seq_++, e);
}

double MatMulArray::element(Span2D<const double> c, Span2D<const double> d,
                            std::size_t i, std::size_t j, double init,
                            bool soft, bool nt) const {
  double acc = init;
  for (std::size_t l = 0; l < c.cols(); ++l) {
    const double dv = nt ? d(j, l) : d(l, j);
    acc = soft ? fparith::SoftFp::mac(acc, c(i, l), dv)
               : fparith::NativeFp::mac(acc, c(i, l), dv);
  }
  return acc;
}

void MatMulArray::multiply_accumulate(Span2D<const double> c,
                                      Span2D<const double> d,
                                      Span2D<double> e) const {
  mac_impl<fparith::NativeFp>(c, d, e);
}

void MatMulArray::multiply_accumulate_soft(Span2D<const double> c,
                                           Span2D<const double> d,
                                           Span2D<double> e) const {
  mac_impl<fparith::SoftFp>(c, d, e);
}

template <typename Backend>
void MatMulArray::mac_nt_impl(Span2D<const double> c, Span2D<const double> d,
                              Span2D<double> e) const {
  RCS_CHECK_MSG(c.cols() == d.cols() && c.rows() == e.rows() &&
                    d.rows() == e.cols(),
                "matmul-nt shape mismatch");
  require_sram(dev_, sram_words(static_cast<long long>(e.rows()),
                                static_cast<long long>(e.cols())),
               "matmul-nt result tile");
  obs::ScopedTimer span("mm_nt", "fpga");
  if (obs::metrics_enabled()) note_call(e.rows(), c.cols(), e.cols());
  // Same streamed/scalar split as mac_impl; the engine packs D's rows as
  // micropanels (its native NT form), preserving ascending-l accumulation.
  if (std::is_same_v<Backend, fparith::NativeFp> &&
      e.rows() * e.cols() * c.cols() > kStreamThreshold) {
    linalg::detail::gemm_packed_engine(c, d, e, /*b_transposed=*/true);
  } else {
    const std::size_t grain = common::grain_for_cost(
        mac_ns<Backend>() * static_cast<double>(c.cols()) *
        static_cast<double>(e.cols()));
    common::parallel_for(0, e.rows(), grain,
                         [&](std::size_t r0, std::size_t r1) {
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = 0; j < e.cols(); ++j) {
          double acc = e(i, j);
          for (std::size_t l = 0; l < c.cols(); ++l) {
            acc = Backend::mac(acc, c(i, l), d(j, l));
          }
          e(i, j) = acc;
        }
      }
    });
  }
  run_fault_hook(e);
}

void MatMulArray::multiply_accumulate_nt(Span2D<const double> c,
                                         Span2D<const double> d,
                                         Span2D<double> e) const {
  mac_nt_impl<fparith::NativeFp>(c, d, e);
}

void MatMulArray::multiply_accumulate_nt_soft(Span2D<const double> c,
                                              Span2D<const double> d,
                                              Span2D<double> e) const {
  mac_nt_impl<fparith::SoftFp>(c, d, e);
}

}  // namespace rcs::fpga
