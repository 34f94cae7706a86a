// rcs_perfbench — end-to-end benchmark of the hybrid LU / FW solves.
//
//   rcs_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   rcs_perfbench --self-test
//
// One closed-loop caller in one process: each solve starts after the
// previous one returned and was checked bit-for-bit against the sequential
// reference built during set-up. With --trace 0 the run times solves at the
// default pool size, then the serial baseline (pool at 1 thread, every rank
// on one fiber worker), and prints the end-to-end metrics. With --trace 1 it times untraced solves, then traced ones with
// the obs metrics and trace switched on, then the layer probes, and prints
// the per-layer metrics. The last stdout line is the result JSON; any
// failed solve makes the exit code 1.

#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {
namespace {

namespace obs = rcs::obs;
using rcs::common::ThreadPool;

/// Run-level options from the command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool footprint = false;  // --footprint: one solve's peak RSS (internal)
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Every metric rcs_perfbench prints, in BENCHMARK.json's terms.
const MetricSpec kEndToEnd[] = {
    {"solve_s_p50", "s"},     {"solve_1t_s_p50", "s"}, {"sim_makespan_s", "sim_s"},
    {"model_error", "ratio"}, {"setup_s", "s"},        {"peak_rss_mb", "MB"},
};

const MetricSpec kPerLayer[] = {
    {"common.pool.jobs", "count"},
    {"common.pool.serial_runs", "count"},
    {"common.pool.parallel_frac", "ratio"},
    {"common.pool.busy_s", "s"},
    {"common.pool.queue_wait_s", "s"},
    {"common.pool.dispatch_us", "us"},
    {"common.fiber.switch_ns", "ns"},
    {"linalg.gemm.calls", "count"},
    {"linalg.gemm.pack_bytes", "B"},
    {"linalg.gemm.self_s", "s"},
    {"linalg.gemm.gflops", "GFLOP/s"},
    {"linalg.trsm.gflops", "GFLOP/s"},
    {"linalg.trsm.gflops_1t", "GFLOP/s"},
    {"linalg.getrf.gflops", "GFLOP/s"},
    {"graph.fw_block.ns_per_relax", "ns"},
    {"fpga.mm.calls", "count"},
    {"fpga.mm.macs", "count"},
    {"fpga.mm.gflops", "GFLOP/s"},
    {"fpga.mm.self_s", "s"},
    {"fpga.fw.calls", "count"},
    {"fpga.fw.relaxations", "count"},
    {"fpga.fw.ns_per_relax", "ns"},
    {"fpga.fw.self_s", "s"},
    {"net.msgs", "count"},
    {"net.bytes_sent", "B"},
    {"net.send_self_s", "s"},
    {"net.recv_wait_s", "s"},
    {"net.small_msg_us", "us"},
    {"net.block_copy_gbps", "GB/s"},
    {"net.fanout_ms", "ms"},
    {"sim.trace_events", "count"},
    {"core.lu.opLU_s", "s"},
    {"core.lu.opL_s", "s"},
    {"core.lu.opU_s", "s"},
    {"core.lu.opMM_s", "s"},
    {"core.lu.opMS_s", "s"},
    {"core.lu.gather_s", "s"},
    {"core.fw.op1_s", "s"},
    {"core.fw.op21_s", "s"},
    {"core.fw.op22_s", "s"},
    {"core.fw.op3_s", "s"},
    {"core.fw.gather_s", "s"},
    {"core.cp.cpu_s", "s"},
    {"core.cp.fpga_s", "s"},
    {"core.cp.transfer_s", "s"},
    {"core.cp.idle_s", "s"},
    {"core.analytic.point_us", "us"},
    {"core.predict.point_us", "us"},
    {"obs.trace_overhead", "ratio"},
    {"bench.solve_raw_s_p50", "s"},
    {"bench.steal_s_p50", "s"},
};

constexpr int kSetupReps = 5;
constexpr int kSetupMaxReps = 25;
constexpr double kSetupSeconds = 2.0;
/// Share of --seconds spent on solves at the default pool size; the serial
/// baseline, two to four times as slow and with the larger run-to-run
/// spread, gets the rest.
constexpr double kParallelShare = 0.25;
/// Share of --seconds spent on untraced, then traced solves in a traced
/// run; the probes take about three seconds more.
constexpr double kTracedShare = 0.4;

/// A metric set is complete when it has exactly the specified names and
/// units and finite values; returns the first discrepancy.
template <std::size_t N>
std::string mismatch(const Metrics& m, const MetricSpec (&spec)[N]) {
  if (m.size() != N) {
    return "expected " + std::to_string(N) + " metrics, have " +
           std::to_string(m.size());
  }
  for (const MetricSpec& s : spec) {
    const auto it = m.find(s.name);
    if (it == m.end()) return std::string("missing metric ") + s.name;
    if (it->second.unit != s.unit) return std::string("unit of ") + s.name;
    if (!std::isfinite(it->second.value)) {
      return std::string("non-finite ") + s.name;
    }
  }
  return "";
}

/// Closed-loop solve runner with the verification gate.
class Runner {
 public:
  explicit Runner(Workload& w) : w_(w) {}

  /// One checked solve, timed. `out` receives the result when non-null.
  Sample attempt(int max_workers, rcs::sim::TraceRecorder* trace,
                 const char* what, SolveResult* out = nullptr) {
    ++attempted_;
    const double steal0 = steal_s();
    const double t0 = now_s();
    SolveResult r;
    try {
      r = w_.solve(max_workers, trace);
    } catch (const std::exception& e) {
      fail(what, std::string("threw: ") + e.what());
      return {now_s() - t0, steal_s() - steal0};
    }
    const Sample dt{now_s() - t0, steal_s() - steal0};
    const std::string why = check_result(r, w_.reference(), first_makespan_);
    if (!why.empty()) {
      fail(what, why);
    } else if (first_makespan_ == 0.0) {
      first_makespan_ = r.sim_makespan_s;
    }
    if (out != nullptr) *out = std::move(r);
    return dt;
  }

  /// Counts a solve run outside this process; `why` is empty if it passed.
  void record(const char* what, const std::string& why) {
    ++attempted_;
    if (!why.empty()) fail(what, why);
  }

  void fail(const char* what, const std::string& why) {
    ++failed_;
    std::cerr << "FAILED " << what << " solve: " << why << "\n";
  }

  /// The simulated makespan every later solve must repeat (0 until a
  /// solve has passed).
  double first_makespan() const { return first_makespan_; }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  Workload& w_;
  double first_makespan_ = 0.0;
  long attempted_ = 0;
  long failed_ = 0;
};

double counter(const std::map<std::string, obs::MetricValue>& snap,
               const std::string& name) {
  const auto it = snap.find(name);
  if (it == snap.end()) return 0.0;
  return it->second.kind == obs::MetricValue::Kind::Histogram ? it->second.sum
                                                              : it->second.value;
}

double lookup(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

/// Per-layer figures of one traced solve.
std::map<std::string, double> traced_metrics(
    const std::map<std::string, obs::MetricValue>& snap,
    const std::map<std::string, double>& self, const CpBuckets& cp,
    std::size_t trace_events) {
  std::map<std::string, double> v;
  const double jobs = counter(snap, "pool.jobs");
  const double serial = counter(snap, "pool.serial_runs");
  v["common.pool.jobs"] = jobs;
  v["common.pool.serial_runs"] = serial;
  v["common.pool.parallel_frac"] = jobs + serial > 0 ? jobs / (jobs + serial) : 0;
  v["common.pool.busy_s"] = counter(snap, "pool.busy_ns") * 1e-9;
  v["common.pool.queue_wait_s"] = counter(snap, "pool.queue_wait_ns") * 1e-9;
  v["linalg.gemm.calls"] = counter(snap, "gemm.calls");
  v["linalg.gemm.pack_bytes"] = counter(snap, "gemm.pack_bytes");
  v["linalg.gemm.self_s"] = lookup(self, "linalg.gemm");
  v["fpga.mm.calls"] = counter(snap, "fpga.mm.calls");
  v["fpga.mm.macs"] = counter(snap, "fpga.mm.macs");
  v["fpga.mm.self_s"] = lookup(self, "fpga.mm") + lookup(self, "fpga.mm_nt");
  v["fpga.fw.calls"] = counter(snap, "fpga.fw.calls");
  v["fpga.fw.relaxations"] = counter(snap, "fpga.fw.relaxations");
  v["fpga.fw.self_s"] = lookup(self, "fpga.fw_block");
  v["net.msgs"] = counter(snap, "net.msgs_sent");
  v["net.bytes_sent"] = counter(snap, "net.bytes_sent");
  v["net.send_self_s"] = lookup(self, "net.send") + lookup(self, "net.isend");
  v["net.recv_wait_s"] = lookup(self, "net.recv") + lookup(self, "net.wait") +
                         lookup(self, "net.barrier");
  v["sim.trace_events"] = static_cast<double>(trace_events);
  for (const char* op : {"opLU", "opL", "opU", "opMM", "opMS", "gather"}) {
    v[std::string("core.lu.") + op + "_s"] =
        counter(snap, std::string("lu.wall.") + op + "_ns") * 1e-9;
  }
  for (const char* op : {"op1", "op21", "op22", "op3", "gather"}) {
    v[std::string("core.fw.") + op + "_s"] =
        counter(snap, std::string("fw.wall.") + op + "_ns") * 1e-9;
  }
  v["core.cp.cpu_s"] = cp.cpu_s;
  v["core.cp.fpga_s"] = cp.fpga_s;
  v["core.cp.transfer_s"] = cp.transfer_s;
  v["core.cp.idle_s"] = cp.idle_s;
  return v;
}

/// A phase's medians: of its host seconds with steal taken out
/// (steal_corrected at the workload's share), of the host seconds as
/// measured, and of the steal seconds during a solve.
struct PhaseTime {
  double median_s = 0.0;
  double raw_s = 0.0;
  double steal_s = 0.0;
};

/// Prints and returns a phase's medians, with every sample as
/// seconds/steal.
PhaseTime phase_time(const char* what, const std::vector<Sample>& v,
                     double share) {
  std::vector<double> raw, steal;
  for (const Sample& s : v) {
    raw.push_back(s.seconds);
    steal.push_back(s.steal);
  }
  const PhaseTime t{median(steal_corrected(v, share)), median(raw),
                    median(steal)};
  std::printf("%s: median %.6f s over %zu (raw %.6f s, steal share %.3f) [",
              what, t.median_s, v.size(), t.raw_s, share);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.4f/%.2f", i == 0 ? "" : " ", v[i].seconds, v[i].steal);
  }
  std::printf("]\n");
  return t;
}

void print_self_times(const std::map<std::string, double>& self) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [k, s] : self) rows.emplace_back(s, k);
  std::sort(rows.rbegin(), rows.rend());
  std::cout << "self time by span (last traced solve, summed over lanes):\n";
  for (const auto& [s, k] : rows) {
    std::printf("  %-28s %12.6f s\n", k.c_str(), s);
  }
}

/// The timed runs' pool size: min(4, nproc).
int pool_threads() { return std::min(4, available_cores()); }

/// --footprint: set up and run one serial-baseline solve in this fresh
/// process, then print its simulated makespan (as a hex float, so it reads
/// back bit for bit) and its peak resident set. With one thread and every
/// rank on one fiber worker the allocation sequence is fixed, so the peak
/// repeats; at the default pool size it depends on how far the rank
/// threads happen to run ahead of each other.
int footprint(const Options& opt, Workload& w) {
  ThreadPool::set_global_threads(1);
  w.setup(opt.seed);
  const SolveResult r = w.solve(1, nullptr);
  const std::string why = check_result(r, w.reference(), 0.0);
  if (!why.empty()) {
    std::cerr << "FAILED footprint solve: " << why << "\n";
    return 1;
  }
  std::printf("footprint_makespan %a\nfootprint_mb %.17g\n", r.sim_makespan_s,
              peak_rss_mb());
  return 0;
}

/// What a fresh process running footprint() reported.
struct Footprint {
  double rss_mb = -1.0;  // -1 when the process failed
  double sim_makespan_s = 0.0;
};

/// Runs footprint() in a fresh process: one solve's memory, free of the
/// heap history of the timed solves, which makes a long-running process's
/// peak depend on which allocator arenas the rank threads happened to use.
Footprint run_footprint(const Options& opt) {
  const std::string seed = std::to_string(opt.seed);
  int fds[2];
  if (pipe(fds) != 0) return {};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], 1);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  posix_spawn_file_actions_addclose(&fa, fds[1]);
  const char* argv[] = {"rcs_perfbench", "--footprint",  "--workload",
                        opt.workload.c_str(), "--seed", seed.c_str(),
                        nullptr};
  pid_t pid = 0;
  const int err = posix_spawn(&pid, "/proc/self/exe", &fa, nullptr,
                              const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; err == 0 && (n = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 1;
  if (err != 0 || waitpid(pid, &status, 0) != pid || status != 0) return {};
  const auto ms = out.rfind("footprint_makespan ");
  const auto mb = out.rfind("footprint_mb ");
  if (ms == std::string::npos || mb == std::string::npos) return {};
  return {std::strtod(out.c_str() + mb + 13, nullptr),
          std::strtod(out.c_str() + ms + 19, nullptr)};
}

int run(const Options& opt, Workload& w) {
  const int pool = pool_threads();
  ThreadPool::set_global_threads(pool);
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  print_provenance(pool, available_cores());

  const StealShares shares = steal_shares(opt.workload);
  Runner runner(w);
  // Set-up repeats until it has run kSetupReps times and for kSetupSeconds.
  std::vector<Sample> setup;
  const double setup_start = now_s();
  while (static_cast<int>(setup.size()) < kSetupReps ||
         (now_s() - setup_start < kSetupSeconds &&
          static_cast<int>(setup.size()) < kSetupMaxReps)) {
    const double steal0 = steal_s();
    const double t0 = now_s();
    w.setup(opt.seed);
    runner.attempt(0, nullptr, "warm-up");
    setup.push_back({now_s() - t0, steal_s() - steal0});
  }
  const SolveResult& ref = w.reference();

  // Back-to-back solves for `budget` seconds (at least one), stopping
  // before a solve as long as the last would overrun the budget. The
  // set-up's warm-up solves ran at the default pool size; a phase at
  // another starts with one untimed solve that warms the allocator for it.
  auto timed = [&](int threads, int max_workers, const char* what,
                   double budget, double share) {
    ThreadPool::set_global_threads(threads);
    const double end = now_s() + budget;
    if (threads != pool || max_workers != 0) {
      runner.attempt(max_workers, nullptr, "phase warm-up");
    }
    std::vector<Sample> t;
    do {
      t.push_back(runner.attempt(max_workers, nullptr, what));
    } while (now_s() + t.back().seconds <= end);
    ThreadPool::set_global_threads(pool);
    return phase_time(what, t, share);
  };

  Metrics m;
  if (!opt.trace) {
    const double start = now_s();
    const Footprint fp = run_footprint(opt);
    runner.record("footprint",
                  fp.rss_mb < 0 ? "the footprint process failed"
                  : fp.sim_makespan_s != runner.first_makespan()
                      ? "simulated makespan differs from the first solve's"
                      : "");
    const double left = std::max(0.0, opt.seconds - (now_s() - start));
    const PhaseTime par =
        timed(pool, 0, "timed", kParallelShare * left, shares.parallel);
    const PhaseTime ser = timed(1, 1, "serial-baseline",
                                (1 - kParallelShare) * left, shares.serial);
    const PhaseTime set = phase_time("setup", setup, shares.parallel);
    const double makespan = runner.first_makespan();
    m["solve_s_p50"] = {par.median_s, "s"};
    m["solve_1t_s_p50"] = {ser.median_s, "s"};
    m["sim_makespan_s"] = {makespan, "sim_s"};
    m["model_error"] = {std::fabs(makespan / ref.predicted_s - 1.0), "ratio"};
    m["setup_s"] = {set.median_s, "s"};
    m["peak_rss_mb"] = {fp.rss_mb, "MB"};
  } else {
    const PhaseTime untraced = timed(pool, 0, "untraced",
                                     kTracedShare * opt.seconds, shares.parallel);
    m["bench.solve_raw_s_p50"] = {untraced.raw_s, "s"};
    m["bench.steal_s_p50"] = {untraced.steal_s, "s"};
    std::vector<Sample> traced;
    std::vector<std::map<std::string, double>> per_solve;
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
    std::map<std::string, double> self;
    // The first traced solve grows the trace buffers and is not sampled.
    const double end = now_s() + kTracedShare * opt.seconds;
    for (bool warm_up = true;; warm_up = false) {
      obs::Registry::global().reset();
      obs::clear_trace();
      rcs::sim::TraceRecorder rec(true);
      SolveResult r;
      Sample dt;
      {
        obs::ScopedTimer span("solve", "bench");
        dt = runner.attempt(0, &rec, "traced", &r);
      }
      CpBuckets cp;
      if (r.ranks > 0) {
        cp = cp_buckets(rec, r.ranks, r.sim_makespan_s);
        if (std::fabs(cp.sum() - r.sim_makespan_s) >
            1e-9 * r.sim_makespan_s) {
          runner.fail("traced", "critical-path buckets do not sum to the "
                                "simulated makespan");
        }
      }
      if (warm_up) continue;
      traced.push_back(dt);
      std::ostringstream chrome;
      obs::write_chrome_trace(chrome);
      self = self_times_from_chrome(chrome.str());
      per_solve.push_back(traced_metrics(obs::Registry::global().snapshot(),
                                         self, cp, rec.event_count()));
      if (now_s() + dt.seconds > end) break;
    }
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::clear_trace();
    // Per-layer figures: medians over the traced solves.
    for (const MetricSpec& s : kPerLayer) {
      std::vector<double> v;
      for (const auto& solve : per_solve) {
        const auto it = solve.find(s.name);
        if (it != solve.end()) v.push_back(it->second);
      }
      if (!v.empty()) m[s.name] = {median(v), s.unit};
    }
    m["obs.trace_overhead"] = {
        phase_time("traced", traced, shares.parallel).median_s /
                untraced.median_s -
            1.0,
        "ratio"};
    print_self_times(self);
    std::printf("%-28s %-20s %14s %16s %14s\n", "probe", "shape",
                "ops computed", "bytes computed", "value");
    for (const ProbeLine& p : run_probes(w, pool, m)) {
      std::printf("%-28s %-20s %14.0f %16.0f %14.6g %s\n", p.name.c_str(),
                  p.shape.c_str(), p.ops, p.bytes, p.value, p.unit.c_str());
    }
  }

  const std::string bad =
      opt.trace ? mismatch(m, kPerLayer) : mismatch(m, kEndToEnd);
  if (!bad.empty()) {
    std::cerr << "internal error: " << bad << "\n";
    return 3;
  }
  std::cout << result_json(runner.failed() == 0, runner.attempted(),
                           runner.failed(), m)
            << std::endl;
  return runner.failed() == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::cerr << "rcs_perfbench: " << why
            << "\nusage: rcs_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n       rcs_perfbench "
               "--self-test\nworkloads:";
  for (const auto& n : workload_names()) std::cerr << " " << n;
  std::cerr << "\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return self_test();
    if (a == "--footprint") {
      opt.footprint = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) return usage("bad --seed");
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  auto w = make_workload(opt.workload);
  if (!w) return usage(("unknown workload '" + opt.workload + "'").c_str());
  // Pin glibc's heap thresholds, in the timed and the footprint process
  // alike. By default they adapt to the allocation history, so a run
  // sometimes hands the solve's payload heap back to the kernel after every
  // solve and faults it in again (lu-p256: 2.4 GB, +1.5 s a serial solve)
  // and sometimes never does. Fixed thresholds keep freed payload memory in
  // the heap: every solve still allocates and copies every payload, but the
  // cost of faulting fresh pages in is left out of every measurement.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, -1);  // never trim
  try {
    if (opt.footprint) return footprint(opt, *w);
    return run(opt, *w);
  } catch (const std::exception& e) {
    std::cerr << "rcs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
