#pragma once
// General-purpose-processor performance model.
//
// The paper reduces the processor to a sustained rate O_p x F_p measured per
// kernel by running a sample program (§4.1): 3.9 GFLOPS for ACML dgemm at
// matrix size 2048, 190 MFLOPS for the b = 256 Floyd–Warshall block, and the
// Table 1 latencies for dgetrf/dtrsm. GppModel holds those per-kernel rates
// and converts flop counts to simulated seconds.

#include <map>
#include <string>

#include "sim/trace.hpp"

namespace rcs::node {

/// Kernel classes the host code runs; each has its own sustained rate.
enum class CpuKernel {
  Dgemm,    // blocked matrix multiply (ACML dgemm stand-in)
  Dgetrf,   // panel LU factorization (opLU)
  Dtrsm,    // triangular solves (opL / opU)
  Dpotrf,   // Cholesky panel factorization
  FwBlock,  // b x b Floyd–Warshall block task
  MemBound, // elementwise updates such as opMS (rate = sustained stream rate)
};

const char* to_string(CpuKernel k);

/// Per-kernel sustained floating-point rates of one processor.
class GppModel {
 public:
  /// All kernels default to `default_flops_per_s` until overridden.
  explicit GppModel(double default_flops_per_s = 1e9);

  /// Set the sustained rate for one kernel class.
  void set_rate(CpuKernel kernel, double flops_per_s);

  /// Sustained flops/s for a kernel class (O_p x F_p in the paper's terms).
  double sustained(CpuKernel kernel) const;

  /// Simulated seconds to execute `flops` operations of `kernel`.
  sim::SimTime seconds_for(CpuKernel kernel, double flops) const;

  /// The paper's 2.2 GHz AMD Opteron as measured in Section 6.1:
  ///   dgemm 3.9 GFLOPS; dgetrf 3.67 GFLOPS and dtrsm 3.80 GFLOPS (derived
  ///   from Table 1: 4.9 s for (2/3)b^3 and 7.1 s for b^3 flops at b = 3000);
  ///   Floyd–Warshall block 190 MFLOPS; memory-bound updates ~1 GFLOP/s
  ///   equivalent (stream-rate bound).
  static GppModel opteron_2p2ghz();

 private:
  double default_rate_;
  std::map<CpuKernel, double> rates_;
};

}  // namespace rcs::node
