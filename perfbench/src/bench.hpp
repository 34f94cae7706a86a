#pragma once
// Shared vocabulary of the end-to-end benchmark program rcs_perfbench.
//
// A Workload owns its inputs and the sequential reference, both generated
// from the seed during set-up, and runs one verified solve at a time: the
// closed-loop caller in main.cpp starts the next solve only after the
// previous one returned and passed check_result().

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "sim/trace.hpp"

namespace perfbench {

/// Host seconds on the steady clock.
double now_s();

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

/// CPU time the hypervisor ran other guests while this machine's CPUs
/// wanted to run, summed over CPUs (the "steal" column of /proc/stat), in
/// seconds since boot; 0 where the kernel does not report it.
double steal_s();

/// One timed solve: host seconds, and steal seconds while it ran.
struct Sample {
  double seconds = 0.0;
  double steal = 0.0;
};

/// The share of the steal time during a solve by which the solve ran
/// longer. The shares are fixed per workload, from a calibration on many
/// runs (perfbench/spread.py --calibrate; README, "Steal"), so a change
/// under test never refits them.
struct StealShares {
  /// Solves at the default pool size (timed, untraced, traced), and the
  /// set-up, which is mostly one such solve.
  double parallel = 0.0;
  double serial = 0.0;  // serial baseline
};

/// Each sample's host seconds minus `share` x its steal seconds, but never
/// less than kMinKept of its host seconds, so no sample reaches zero:
/// steal is summed over CPUs and can exceed a solve's wall time (1.8 s of
/// steal during a 1.0 s fw-fine solve, on the calibration runs).
constexpr double kMinKept = 0.25;
std::vector<double> steal_corrected(const std::vector<Sample>& v, double share);

/// Output of one solve, kept until check_result() has compared it.
struct SolveResult {
  rcs::linalg::Matrix matrix;  // functional workloads: the gathered result
  std::vector<double> values;  // analytic workload: every grid output
  double sim_makespan_s = 0.0;
  double predicted_s = 0.0;  // predict_lu / predict_fw at the same point
  int ranks = 0;             // world size (for the critical-path analysis)
};

/// The block shapes a workload runs at; the layer probes reuse them.
/// Workloads without an LU schedule probe the LU kernels at lu-mid's shapes.
struct Shapes {
  long long b = 0;     // the workload's own block (network probes)
  long long lu_b = 0;  // LU block: trsm and getrf run at lu_b x lu_b
  long long b_f = 0;   // opMM rows on the FPGA (Eq. 4)
  long long b_p = 0;   // opMM rows on the CPU
  long long cw = 0;    // one worker's column share of an opMM block
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generate the inputs and the sequential reference from `seed`.
  virtual void setup(std::uint64_t seed) = 0;
  /// One solve. `max_workers` is forwarded to the rank scheduler (0 = the
  /// library default); `trace`, when non-null, records the simulated run.
  virtual SolveResult solve(int max_workers, rcs::sim::TraceRecorder* trace) = 0;
  /// The sequential reference built by setup(); check_result compares
  /// every solve against it.
  virtual const SolveResult& reference() const = 0;
  virtual Shapes shapes() const = 0;
  /// One analytic-plane and one predictor evaluation at this workload's
  /// design point (the probes time them).
  virtual void analytic_point() const = 0;
  virtual void predict_point() const = 0;
};

/// The workload names BENCHMARK.json lists, in order.
const std::vector<std::string>& workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The calibrated steal shares of a workload in BENCHMARK.json.
StealShares steal_shares(const std::string& name);

/// Compares a solve with the reference and the first solve's simulated
/// makespan; empty when it passes. Shared by every workload and by the
/// self-test, which feeds it perturbed results.
std::string check_result(const SolveResult& r, const SolveResult& ref,
                         double first_makespan);

/// One named metric with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// A probe's reported figures: each metric it produced plus what one call
/// did, as computed from its shape (not measured).
struct ProbeLine {
  std::string name;
  std::string shape;
  double ops = 0.0;    // flops / relaxations / messages per call (computed)
  double bytes = 0.0;  // bytes touched or moved per call (computed)
  double value = 0.0;
  std::string unit;
};

/// Standalone timed calls into common, linalg, graph, fpga, net and core at
/// the workload's shapes. Adds the probe metrics to `m` and returns one
/// line per probe for the human-readable report. `pool_threads` is the
/// timed runs' pool size; the pool is left at that size on return.
std::vector<ProbeLine> run_probes(const Workload& w, int pool_threads,
                                  Metrics& m);

/// Per-module self time from the Chrome trace the obs layer exports:
/// for every span, its duration minus the time its child spans on the same
/// lane cover. Pool spans ("parallel_for", "chunk") are transparent — the
/// work a caller runs inside its own parallel_for is charged to the caller
/// — because the pool's own cost is reported by its counters.
/// Keys are "<category>.<name>", values seconds.
std::map<std::string, double> self_times_from_chrome(const std::string& json);

/// The critical-path buckets the traced run reports.
struct CpBuckets {
  double cpu_s = 0.0, fpga_s = 0.0, transfer_s = 0.0, idle_s = 0.0;
  double sum() const { return cpu_s + fpga_s + transfer_s + idle_s; }
};
CpBuckets cp_buckets(const rcs::sim::TraceRecorder& rec, int ranks,
                     double makespan);

/// Prints the provenance line and warnings (non-Release build, pool threads
/// above cores, dirty tree) on stdout.
void print_provenance(int pool_threads, int cores);

/// The final result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, long attempted, long failed,
                        const Metrics& m);

/// Cores this process may run on (what `nproc` prints).
int available_cores();

/// Peak resident set of this process image in MB.
double peak_rss_mb();

/// Runs the benchmark's own checks; returns the process exit code.
int self_test();

}  // namespace perfbench
