#pragma once
// Functional + cycle model of the FPGA Floyd–Warshall kernel of Bondhugula
// et al., "Parallel FPGA-based All-Pairs Shortest-Paths in a Directed Graph"
// (IPDPS 2006 — reference [18]).
//
// Architecture: k floating-point adder cores and k comparator cores arranged
// as a linear array that sweeps a b x b block; processing one b x b block
// task (any of op1/op21/op22/op3) takes 2 b^3 / k design clock cycles. The
// kernel keeps a 2 k^2-word working set in Block RAM and stages two b x b
// blocks (2 b^2 words) in on-board SRAM.

#include <cstdint>

#include "common/span2d.hpp"
#include "fparith/backend.hpp"
#include "fpga/device.hpp"

namespace rcs::fpga {

class FwKernel {
 public:
  explicit FwKernel(DeviceConfig dev);

  const DeviceConfig& device() const { return dev_; }
  int k() const { return dev_.pe_count; }

  /// Design clock cycles for one b x b block task: 2 b^3 / k.
  long long cycles(long long b) const;

  /// Seconds for one b x b block task at the design clock.
  double seconds(long long b) const {
    return dev_.seconds_for_cycles(static_cast<double>(cycles(b)));
  }

  /// Bytes streamed from DRAM for one block task: the kernel reads two b x b
  /// blocks (the operand block plus the pivot-row/column block; for op1 they
  /// coincide but the design streams both ports).
  std::uint64_t input_bytes(long long b) const {
    return 2ull * static_cast<std::uint64_t>(b) *
           static_cast<std::uint64_t>(b) * 8u;
  }

  /// On-board SRAM words the design stages (2 b^2).
  std::uint64_t sram_words(long long b) const {
    return 2ull * static_cast<std::uint64_t>(b) *
           static_cast<std::uint64_t>(b);
  }

  /// Checks that a b x b block task fits the device (BRAM 2k^2 words, SRAM
  /// 2b^2 words). Throws rcs::Error otherwise.
  void require_fits(long long b) const;

  /// Functional block task with the host FPU:
  /// c[i][j] = min(c[i][j], a[i][k'] + b[k'][j]) with k' outermost. Runs
  /// graph::fw_block, the one native min-plus kernel, so the result is the
  /// CPU path's bit for bit under the same aliasing contract.
  void run_block(Span2D<double> c, Span2D<const double> a,
                 Span2D<const double> b) const;

  /// Functional block task through the bit-accurate IEEE-754 cores, in the
  /// same sweep order as the hardware.
  void run_block_soft(Span2D<double> c, Span2D<const double> a,
                      Span2D<const double> b) const;

 private:
  /// Shape and fit checks plus the fpga.fw.* counters of one block task.
  void record_call(Span2D<double> c, Span2D<const double> a,
                   Span2D<const double> b) const;

  DeviceConfig dev_;
};

}  // namespace rcs::fpga
