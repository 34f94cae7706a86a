#pragma once
// Analytic (paper-scale) schedule simulator for the distributed hybrid LU
// decomposition of Section 5.1.
//
// The simulator walks the paper's schedule iteration by iteration with
// resource timelines (panel-node CPU, representative worker node) and the
// Eq. 4/5 cost components, reproducing the latency structure — panel
// pipeline, stripe distribution, opMM waves, opMS application — without
// touching matrix data, so the paper's operating points (n = 30000,
// b = 3000) run in microseconds of host time.
//
// The same per-stripe/per-task costs drive the functional plane
// (lu_functional.hpp), which executes real data at small scale; tests check
// the two planes agree on common scales.

#include <vector>

#include "core/design.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"

namespace rcs::sim {
class FaultPlan;
}

namespace rcs::core {

/// Configuration of one LU run.
struct LuConfig {
  long long n = 0;  // matrix dimension (b must divide n)
  long long b = 0;  // block size
  DesignMode mode = DesignMode::Hybrid;
  /// FPGA row share of the C stripe. -1 = choose per mode (Eq. 4 for
  /// hybrid, 0 for processor-only, b for FPGA-only).
  long long b_f = -1;
  /// opMM tasks distributed per panel operation (Eq. 5). -1 = solve;
  /// 0 = no interleaving (all stripes sent after the panel completes).
  int l = -1;
  SendFanout fanout = SendFanout::SerialAll;
  /// Simulate only the first `max_iterations` block iterations (-1 = all);
  /// Fig. 6 uses 1.
  int max_iterations = -1;
  /// Lookahead comm/compute overlap. Analytic plane: let iteration t+1's
  /// panel factorization start as soon as its diagonal block's update
  /// lands, instead of barriering on the whole trailing update. Functional
  /// plane: run the real lookahead pipeline — workers double-buffer the
  /// next task's C/D stripes through irecv, return E shares over the NIC
  /// (isend), prefetch the opMS share receives, and skip the per-iteration
  /// barrier. The factors are byte-identical to the blocking schedule in
  /// either plane; only the schedule (and therefore the clocks) moves. The
  /// paper's implementation could not do this ("we used the atomic ACML
  /// routines", §6.2) — this switch quantifies what that cost.
  bool lookahead = false;
  /// Fault injection: schedule of slowdowns/link faults/crashes/bit-flips
  /// applied during the functional run (must outlive it). nullptr = the
  /// fault-free path, byte-identical to a build without this feature. The
  /// analytic plane ignores it.
  const sim::FaultPlan* faults = nullptr;
  /// Fault tolerance: ABFT row/column checksums on every FPGA opMM share —
  /// detecting corrupted results, repairing single flipped elements exactly
  /// (bit-identical recompute), re-solving wider corruption on the CPU.
  bool fault_tolerance = false;
  /// Straggler tolerance: owners bound their E-share waits by this many
  /// simulated seconds and re-solve a late worker's columns locally from
  /// their stashed stripes (Eq. 4 split, bit-identical). 0 = wait forever.
  /// Requires fault_tolerance.
  double straggler_timeout_s = 0.0;
  /// Rank scheduling for the functional plane (net::World::set_max_workers):
  /// 0 = auto (rank fibers on one worker loop per pool thread; idle loops
  /// run the other ranks' kernel chunks), >0 = at most that many worker
  /// loops, World::kThreadPerRank = one OS thread per rank (explicit only).
  /// Outputs and simulated clocks are identical in every mode.
  int max_workers = 0;
};

/// Analytic run outcome.
struct LuAnalyticReport {
  RunReport run;
  MmPartition partition;        // the b_f split in effect
  LuInterleave interleave;      // the l in effect and its Eq. 5 inputs
  std::vector<double> iteration_seconds;  // latency per block iteration
  double panel_busy_seconds = 0.0;        // panel-role CPU busy time
  double worker_busy_seconds = 0.0;       // one worker's busy time
};

/// Simulate the configured LU design on `sys`.
LuAnalyticReport lu_analytic(const SystemParams& sys, const LuConfig& cfg);

/// Latency of one b x b block matrix multiply performed by the p-1 worker
/// nodes while the panel node distributes stripes — the Fig. 5 quantity —
/// at a given b_f.
double lu_single_opmm_latency(const SystemParams& sys, long long b,
                              long long b_f, SendFanout fanout);

}  // namespace rcs::core
