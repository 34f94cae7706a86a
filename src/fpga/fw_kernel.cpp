#include "fpga/fw_kernel.hpp"

#include "common/error.hpp"
#include "graph/floyd_warshall.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::fpga {

namespace {

/// Telemetry for the emulated Floyd-Warshall kernel. `relaxations` counts
/// compare-add operations (b^3 per block); `stall_cycles` is the PE-slot
/// surplus of the cycle model (cycles * k) over 2*b^3 useful flops.
struct FwMetrics {
  obs::Counter& calls;
  obs::Counter& relaxations;
  obs::Counter& stall_cycles;

  static FwMetrics& get() {
    static FwMetrics m{obs::Registry::global().counter("fpga.fw.calls"),
                       obs::Registry::global().counter("fpga.fw.relaxations"),
                       obs::Registry::global().counter("fpga.fw.stalls")};
    return m;
  }
};

}  // namespace

FwKernel::FwKernel(DeviceConfig dev) : dev_(std::move(dev)) {
  RCS_CHECK_MSG(dev_.pe_count > 0, "FwKernel needs at least one PE");
  require_bram(dev_,
               2ull * static_cast<std::uint64_t>(dev_.pe_count) *
                   static_cast<std::uint64_t>(dev_.pe_count),
               "floyd-warshall kernel");
}

long long FwKernel::cycles(long long b) const {
  RCS_CHECK_MSG(b >= 0, "negative block size");
  return 2 * b * b * b / dev_.pe_count;
}

void FwKernel::require_fits(long long b) const {
  require_sram(dev_, sram_words(b), "floyd-warshall block staging");
}

void FwKernel::record_call(Span2D<double> c, Span2D<const double> a,
                           Span2D<const double> b) const {
  RCS_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "fw block shape mismatch");
  require_fits(static_cast<long long>(c.rows()));
  if (!obs::metrics_enabled()) return;
  FwMetrics& fm = FwMetrics::get();
  fm.calls.add(1);
  const std::uint64_t useful =
      static_cast<std::uint64_t>(c.rows()) * c.cols() * a.cols();
  fm.relaxations.add(useful);
  const std::uint64_t slots =
      static_cast<std::uint64_t>(cycles(static_cast<long long>(c.rows()))) *
      static_cast<std::uint64_t>(dev_.pe_count);
  // Each relaxation is a compare + add = 2 PE operations.
  if (slots > 2 * useful) fm.stall_cycles.add(slots - 2 * useful);
}

void FwKernel::run_block(Span2D<double> c, Span2D<const double> a,
                         Span2D<const double> b) const {
  record_call(c, a, b);
  obs::ScopedTimer span("fw_block", "fpga");
  graph::fw_block(c, a, b);
}

void FwKernel::run_block_soft(Span2D<double> c, Span2D<const double> a,
                              Span2D<const double> b) const {
  record_call(c, a, b);
  obs::ScopedTimer span("fw_block", "fpga");
  const std::size_t kk = a.cols();
  for (std::size_t k = 0; k < kk; ++k) {
    for (std::size_t i = 0; i < c.rows(); ++i) {
      const double aik = a(i, k);
      for (std::size_t j = 0; j < c.cols(); ++j) {
        c(i, j) = fparith::SoftFp::relax(c(i, j), aik, b(k, j));
      }
    }
  }
}

}  // namespace rcs::fpga
