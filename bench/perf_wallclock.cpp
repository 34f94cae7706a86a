// Wall-clock perf harness for the intra-node parallel compute runtime.
//
// Unlike the fig*/table1 benches (which report *simulated* seconds), this
// harness measures real elapsed time of the functional substrates — the
// packed parallel gemm vs the legacy tiled loop vs the naive reference, the
// streamed MatMulArray FPGA emulation, LU's opLU factorization, opL solve
// and narrow opMM gemm, the min-plus fw_block, and lu_functional /
// fw_functional runs (small ones, and the p = 6 lookahead designs at the
// benchmark's lu-mid and fw-fine shapes) — across a thread sweep, and writes
// BENCH_perf.json so future PRs have a machine-readable perf trajectory to
// regress against.
//
// Every kernel row also carries the pool telemetry deltas for its timing
// run (queue-wait vs busy milliseconds, jobs, chunks, per rep), so a scaling
// regression is attributable: busy flat + queue-wait exploding means chunk
// dispatch overhead; busy growing means the kernel itself got slower.
//
// Usage: perf_wallclock [--smoke] [output.json]
//   (default BENCH_perf.json in cwd; --smoke runs small sizes, skips the
//    drift/lookahead/fault sections, and cross-checks every timed kernel
//    against its naive or scalar-loop reference bit-for-bit across thread
//    counts and every supported SIMD path — non-zero exit on any mismatch.)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/drift.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/system.hpp"
#include "fault_sweep.hpp"
#include "fpga/matmul_array.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "lookahead_sweep.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "kernel_oracles.hpp"
#include "scaling_sweep.hpp"

namespace la = rcs::linalg;
namespace simd = rcs::linalg::simd;
namespace core = rcs::core;
namespace common = rcs::common;
namespace obs = rcs::obs;

namespace {

struct Row {
  std::string kernel;
  long long size = 0;
  int threads = 1;
  // More worker threads than hardware cores: timings carry scheduler noise
  // and the perf gate skips these rows.
  bool oversubscribed = false;
  double seconds = 0.0;
  double gflops = 0.0;
  // Pool telemetry per rep of the timing loop (deltas across the whole
  // loop divided by rep count).
  int reps = 0;
  double queue_wait_ms = 0.0;
  double busy_ms = 0.0;
  double jobs = 0.0;
  double chunks = 0.0;
};

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

struct PoolStamp {
  double jobs, chunks, busy_ns, queue_wait_ns;
  static PoolStamp take() {
    obs::Registry& reg = obs::Registry::global();
    return PoolStamp{
        static_cast<double>(reg.counter("pool.jobs").value()),
        static_cast<double>(reg.counter("pool.chunks").value()),
        static_cast<double>(reg.counter("pool.busy_ns").value()),
        reg.histogram("pool.queue_wait_ns").sum()};
  }
};

/// Run `body` repeatedly until >= min_seconds of wall time or max_reps, and
/// keep the best (minimum) single-rep time — the standard way to strip
/// scheduler noise from a wall-clock measurement. Pool telemetry deltas
/// across all reps are averaged into `row`.
void time_best(Row& row, const std::function<void()>& body,
               double min_seconds = 0.4, int max_reps = 5) {
  double best = 1e300;
  double spent = 0.0;
  int reps = 0;
  const PoolStamp before = PoolStamp::take();
  for (int r = 0; r < max_reps && (r < 2 || spent < min_seconds); ++r) {
    const double t0 = now_seconds();
    body();
    const double dt = now_seconds() - t0;
    best = std::min(best, dt);
    spent += dt;
    ++reps;
  }
  const PoolStamp after = PoolStamp::take();
  row.seconds = best;
  row.reps = reps;
  row.jobs = (after.jobs - before.jobs) / reps;
  row.chunks = (after.chunks - before.chunks) / reps;
  row.busy_ms = (after.busy_ns - before.busy_ns) / reps / 1e6;
  row.queue_wait_ms =
      (after.queue_wait_ns - before.queue_wait_ns) / reps / 1e6;
}

Row bench_gemm(const std::string& kernel, long long n, int threads,
               void (*fn)(rcs::Span2D<const double>, rcs::Span2D<const double>,
                          rcs::Span2D<double>)) {
  common::ThreadPool::set_global_threads(threads);
  const std::size_t un = static_cast<std::size_t>(n);
  const la::Matrix a = la::random_matrix(un, un, 1);
  const la::Matrix b = la::random_matrix(un, un, 2);
  la::Matrix c(un, un);
  Row row;
  row.kernel = kernel;
  row.size = n;
  row.threads = threads;
  time_best(row, [&] { fn(a.view(), b.view(), c.view()); });
  row.gflops =
      static_cast<double>(la::gemm_flops(n, n, n)) / row.seconds / 1e9;
  return row;
}

Row bench_matmul_array(long long n, int threads) {
  common::ThreadPool::set_global_threads(threads);
  const rcs::fpga::MatMulArray array(core::SystemParams::cray_xd1().mm_fpga);
  const std::size_t un = static_cast<std::size_t>(n);
  const la::Matrix c = la::random_matrix(un, un, 3);
  const la::Matrix d = la::random_matrix(un, un, 4);
  la::Matrix e(un, un);
  Row row;
  row.kernel = "matmul_array_emulation";
  row.size = n;
  row.threads = threads;
  time_best(row,
            [&] { array.multiply_accumulate(c.view(), d.view(), e.view()); });
  row.gflops =
      static_cast<double>(la::gemm_flops(n, n, n)) / row.seconds / 1e9;
  return row;
}

Row bench_trsm(long long n, long long m, int threads) {
  common::ThreadPool::set_global_threads(threads);
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t um = static_cast<std::size_t>(m);
  la::Matrix l = la::random_matrix(un, un, 5);
  for (std::size_t i = 0; i < un; ++i) l(i, i) = 1.0;
  const la::Matrix b0 = la::random_matrix(un, um, 6);
  la::Matrix b(un, um);
  Row row;
  row.kernel = "trsm_left_lower_unit";
  row.size = n;
  row.threads = threads;
  time_best(row, [&] {
    b = b0;
    la::trsm_left_lower_unit(l.view(), b.view());
  });
  row.gflops = static_cast<double>(la::trsm_flops(n, m)) / row.seconds / 1e9;
  return row;
}

/// One opL block solve, X U = B with U and B both b x b, on one thread:
/// trsm_right_upper at the LU block sizes. U is well conditioned (random
/// upper triangle, diagonal shifted by b) so repeated solves stay finite.
Row bench_trsm_right_upper(long long b) {
  common::ThreadPool::set_global_threads(1);
  const std::size_t ub = static_cast<std::size_t>(b);
  la::Matrix u = la::random_matrix(ub, ub, 7);
  for (std::size_t i = 0; i < ub; ++i) {
    for (std::size_t j = 0; j < i; ++j) u(i, j) = 0.0;
    u(i, i) += static_cast<double>(b);
  }
  const la::Matrix b0 = la::random_matrix(ub, ub, 8);
  la::Matrix x(ub, ub);
  Row row;
  row.kernel = "trsm_right_upper";
  row.size = b;
  row.threads = 1;
  time_best(row, [&] {
    x = b0;
    la::trsm_right_upper(u.view(), x.view());
  });
  row.gflops = static_cast<double>(la::trsm_flops(b, b)) / row.seconds / 1e9;
  return row;
}

/// One opLU block factorization, getrf_unblocked on a b x b diagonally
/// dominant block, on one thread, at the LU block sizes.
Row bench_getrf(long long b) {
  common::ThreadPool::set_global_threads(1);
  const std::size_t ub = static_cast<std::size_t>(b);
  const la::Matrix a0 = la::diagonally_dominant(ub, 9);
  la::Matrix f(ub, ub);
  Row row;
  row.kernel = "getrf_unblocked";
  row.size = b;
  row.threads = 1;
  time_best(row, [&] {
    f = a0;
    la::getrf_unblocked(f.view());
  });
  row.gflops = static_cast<double>(la::getrf_flops(b)) / row.seconds / 1e9;
  return row;
}

/// gemm at an LU opMM worker's shape: C (256 x cols) += A (256 x 256) *
/// B (256 x cols), one thread, cols < simd::kNR so it takes the narrow
/// path. Timed in batches of at least ~2^22 flops and reported per call.
Row bench_gemm_narrow(long long cols) {
  common::ThreadPool::set_global_threads(1);
  const std::size_t m = 256, uc = static_cast<std::size_t>(cols);
  const la::Matrix a = la::random_matrix(m, m, 9);
  const la::Matrix b = la::random_matrix(m, uc, 10);
  la::Matrix c(m, uc);
  const long long flops = la::gemm_flops(256, 256, cols);
  const int batch = std::max(1, static_cast<int>((1LL << 22) / flops));
  Row row;
  row.kernel = "gemm_narrow_n" + std::to_string(cols);
  row.size = 256;
  row.threads = 1;
  time_best(row, [&] {
    for (int i = 0; i < batch; ++i) la::gemm(a.view(), b.view(), c.view());
  });
  row.seconds /= batch;
  row.gflops = static_cast<double>(flops) / row.seconds / 1e9;
  return row;
}

/// One disjoint (op3) min-plus block task, b x b x b, on one thread — the
/// FW kernel layer. The kernel is branch-free, so re-running it on its own
/// output costs the same as on fresh data; small blocks are timed in
/// batches of at least ~2^22 relaxations and reported per task.
Row bench_fw_block(long long b) {
  common::ThreadPool::set_global_threads(1);
  const std::size_t ub = static_cast<std::size_t>(b);
  const la::Matrix d = rcs::graph::random_digraph(3 * ub, 16, 0.5);
  la::Matrix c = la::Matrix::from_view(d.block(2 * ub, 2 * ub, ub, ub));
  const auto a = d.block(ub, 0, ub, ub);
  const auto bb = d.block(0, ub, ub, ub);
  const int batch = std::max(1, static_cast<int>((1LL << 22) / (b * b * b)));
  Row row;
  row.kernel = "fw_block";
  row.size = b;
  row.threads = 1;
  time_best(row, [&] {
    for (int i = 0; i < batch; ++i) rcs::graph::fw_block(c.view(), a, bb);
  });
  row.seconds /= batch;
  row.gflops =
      static_cast<double>(rcs::graph::fw_block_flops(b)) / row.seconds / 1e9;
  return row;
}

Row bench_lu_functional(long long n, long long b, int p, bool lookahead,
                        int threads) {
  common::ThreadPool::set_global_threads(threads);
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  const la::Matrix a =
      la::diagonally_dominant(static_cast<std::size_t>(n), 42);
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.lookahead = lookahead;
  Row row;
  row.kernel = "lu_functional";
  row.size = n;
  row.threads = threads;
  time_best(row, [&] { core::lu_functional(sys, cfg, a); }, 0.0, 2);
  row.gflops =
      static_cast<double>(la::getrf_flops(n)) / row.seconds / 1e9;
  return row;
}

Row bench_fw_functional(long long n, long long b, int p, bool lookahead,
                        int threads) {
  common::ThreadPool::set_global_threads(threads);
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  const la::Matrix d0 =
      rcs::graph::random_digraph(static_cast<std::size_t>(n), 7, 0.4);
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.lookahead = lookahead;
  Row row;
  row.kernel = "fw_functional";
  row.size = n;
  row.threads = threads;
  time_best(row, [&] { core::fw_functional(sys, cfg, d0); }, 0.0, 2);
  row.gflops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
               static_cast<double>(n) / row.seconds / 1e9;
  return row;
}

/// --smoke bit-identity guards: the production kernels against their naive
/// references (LU's blocked panel kernels against their former scalar
/// loops; the min-plus kernels and the narrow gemm path against their
/// Level::Scalar run), across thread counts and every supported SIMD path.
/// Returns the number of mismatches (0 = pass).
int run_identity_guards() {
  const simd::Level saved = simd::active_level();
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "IDENTITY FAIL: %s\n", what.c_str());
      ++failures;
    }
  };
  const std::size_t n = 96;  // above the small-product engine threshold
  const la::Matrix a = la::random_matrix(n, n, 11);
  const la::Matrix b = la::random_matrix(n, n, 12);
  la::Matrix gemm_ref(n, n);
  la::gemm_naive(a.view(), b.view(), gemm_ref.view());
  la::Matrix nt_ref(n, n);  // naive A * B^T, ascending-l
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t l = 0; l < n; ++l) acc += a(i, l) * b(j, l);
      nt_ref(i, j) = acc;
    }
  }
  la::Matrix lmat = la::random_matrix(n, n, 13);
  for (std::size_t i = 0; i < n; ++i) lmat(i, i) = 1.0;
  const la::Matrix rhs = la::random_matrix(n, n, 14);
  // LU's panel kernels (three column blocks at n = 96) against the scalar
  // loops they replaced: opU on lmat, opL on the U of a factored block,
  // opLU on a tall panel.
  la::Matrix trsm_ref = rhs;
  rcs::oracle::trsm_left_lower_unit(lmat.view(), trsm_ref.view());
  const la::Matrix dd = la::diagonally_dominant(n, 20);
  la::Matrix umat = dd;
  rcs::oracle::getrf_panel(umat.view());
  la::Matrix opl_ref = rhs;
  rcs::oracle::trsm_right_upper(umat.view(), opl_ref.view());
  const la::Matrix panel0 = la::Matrix::from_view(dd.block(0, 0, n, 70));
  la::Matrix panel_ref = panel0;
  rcs::oracle::getrf_panel(panel_ref.view());
  // Min-plus: a ragged disjoint (op3) and an in-place (op1) fw_block task,
  // then blocked_floyd_warshall at b = 64, whose waves go through the pool.
  const la::Matrix g0 = rcs::graph::random_digraph(n, 15, 0.5);
  const auto fw_tasks = [](la::Matrix& d) {
    rcs::graph::fw_block(d.block(0, 0, 40, 45), d.block(0, 50, 40, 37),
                         d.block(50, 50, 37, 45));
    rcs::graph::fw_block(d.block(48, 0, 48, 48), d.block(48, 0, 48, 48),
                         d.block(48, 0, 48, 48));
  };
  const la::Matrix g1 = rcs::graph::random_digraph(256, 16, 0.3);
  // Narrow gemm: C 99 x 3 (a ragged last row strip) += A (99 x 101, a
  // ragged last chunk of l) * B, as strided blocks of wider matrices like
  // opMM's column share of D.
  const la::Matrix wa = la::random_matrix(101, 107, 17);
  const la::Matrix wb = la::random_matrix(103, 11, 18);
  const la::Matrix wc = la::random_matrix(99, 13, 19);
  const auto narrow_a = wa.block(2, 5, 99, 101);
  const auto narrow_b = wb.block(1, 4, 101, 3);
  la::Matrix narrow_naive = wc;
  la::gemm_naive(narrow_a, narrow_b, narrow_naive.block(0, 6, 99, 3));
  common::ThreadPool::set_global_threads(1);
  simd::set_level(simd::Level::Scalar);
  la::Matrix narrow_ref = wc;
  la::gemm(narrow_a, narrow_b, narrow_ref.block(0, 6, 99, 3));
  check(la::bit_equal(narrow_ref.view(), narrow_naive.view()),
        "gemm narrow [simd=scalar] vs gemm_naive");
  la::Matrix fw_ref = g0;
  fw_tasks(fw_ref);
  la::Matrix bfw_ref = g1;
  rcs::graph::blocked_floyd_warshall(bfw_ref, 64);

  const rcs::fpga::MatMulArray array(core::SystemParams::cray_xd1().mm_fpga);
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    const simd::Level level = static_cast<simd::Level>(lv);
    simd::set_level(level);
    for (int threads : {1, 2}) {
      common::ThreadPool::set_global_threads(threads);
      const std::string tag = std::string(" [simd=") + simd::level_name(level) +
                              " threads=" + std::to_string(threads) + "]";
      la::Matrix c(n, n);
      la::gemm(a.view(), b.view(), c.view());
      check(la::bit_equal(c.view(), gemm_ref.view()), "gemm" + tag);
      la::Matrix e(n, n);
      array.multiply_accumulate(a.view(), b.view(), e.view());
      check(la::bit_equal(e.view(), gemm_ref.view()),
            "matmul_array nn" + tag);
      la::Matrix ent(n, n);
      array.multiply_accumulate_nt(a.view(), b.view(), ent.view());
      check(la::bit_equal(ent.view(), nt_ref.view()), "matmul_array nt" + tag);
      la::Matrix x = rhs;
      la::trsm_left_lower_unit(lmat.view(), x.view());
      check(la::bit_equal(x.view(), trsm_ref.view()), "trsm" + tag);
      la::Matrix opl = rhs;
      la::trsm_right_upper(umat.view(), opl.view());
      check(la::bit_equal(opl.view(), opl_ref.view()),
            "trsm_right_upper" + tag);
      la::Matrix f = dd;
      la::getrf_unblocked(f.view());
      check(la::bit_equal(f.view(), umat.view()), "getrf_unblocked" + tag);
      la::Matrix panel = panel0;
      la::getrf_panel(panel.view());
      check(la::bit_equal(panel.view(), panel_ref.view()),
            "getrf_panel" + tag);
      la::Matrix narrow = wc;
      la::gemm(narrow_a, narrow_b, narrow.block(0, 6, 99, 3));
      check(la::bit_equal(narrow.view(), narrow_ref.view()),
            "gemm narrow" + tag);
      la::Matrix fw = g0;
      fw_tasks(fw);
      check(la::bit_equal(fw.view(), fw_ref.view()), "fw_block" + tag);
      la::Matrix bfw = g1;
      rcs::graph::blocked_floyd_warshall(bfw, 64);
      check(la::bit_equal(bfw.view(), bfw_ref.view()),
            "blocked_floyd_warshall" + tag);
    }
  }
  simd::set_level(saved);
  return failures;
}

/// One "scaling" entry. Simulated points carry a compact analysis summary
/// (headline scalars + the top critical-path segments) rather than the full
/// per-rank attribution — a p=1024 block would add a thousand rows to a
/// committed artifact; the standalone bench/scaling_sweep prints (and
/// exit-codes on) the full invariant check.
void write_scaling_point(std::ostream& out, const rcs::bench::ScalingPoint& pt,
                         bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"design\": \"%s\", \"p\": %d, \"n\": %lld, \"b\": %lld, "
      "\"b_f\": %lld, \"l\": %d, \"l1\": %lld, \"l2\": %lld, "
      "\"predicted_s\": %.9g, \"simulated\": %s",
      pt.design.c_str(), pt.p, pt.n, pt.b, pt.b_f, pt.l, pt.l1, pt.l2,
      pt.predicted_s, pt.simulated ? "true" : "false");
  out << buf;
  if (pt.simulated) {
    std::snprintf(
        buf, sizeof(buf),
        ", \"simulated_s\": %.9g, \"sim_over_predicted\": %.4f, "
        "\"bytes_on_network\": %llu, \"trace_events\": %llu, "
        "\"sim_wall_s\": %.4f, \"analysis_summary\": {\"makespan_s\": %.9g, "
        "\"critical_path_s\": %.9g, \"cp_idle_s\": %.9g, "
        "\"resource_seconds_s\": %.9g, \"mean_utilization\": %.6f, "
        "\"imbalance_max_over_mean\": %.6f, \"jain_fairness\": %.6f, "
        "\"invariants_hold\": %s, \"top_segments\": [",
        pt.simulated_s, pt.sim_over_predicted(),
        static_cast<unsigned long long>(pt.bytes_on_network),
        static_cast<unsigned long long>(pt.trace_events), pt.wall_s,
        pt.analysis.makespan_s, pt.analysis.critical_path_s,
        pt.analysis.cp_idle_s, pt.analysis.resource_seconds_s,
        pt.analysis.mean_utilization, pt.analysis.imbalance_max_over_mean,
        pt.analysis.jain_fairness,
        pt.analysis.invariants_hold() ? "true" : "false");
    out << buf;
    const auto top = pt.analysis.top_segments(3);
    for (std::size_t i = 0; i < top.size(); ++i) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"kind\": \"%s\", \"rank\": %d, \"label\": \"%s\", "
                    "\"duration_s\": %.9g}",
                    i > 0 ? ", " : "", top[i].kind.c_str(), top[i].rank,
                    rcs::obs::json_escape(top[i].label).c_str(),
                    top[i].duration());
      out << buf;
    }
    out << "]}";
  }
  out << "}" << (last ? "" : ",") << '\n';
}

void write_json(const std::vector<Row>& rows,
                const core::DriftReport& lu_drift,
                const core::DriftReport& fw_drift,
                const core::DriftReport& lu_drift_la,
                const core::DriftReport& fw_drift_la,
                const std::vector<rcs::bench::LookaheadPoint>& lookahead,
                const std::vector<rcs::bench::FaultPoint>& faults,
                const std::vector<rcs::bench::ScalingPoint>& scaling,
                bool smoke, const std::string& path) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"provenance\": ";
  rcs::obs::Provenance::collect().write_json(out, 2);
  out << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"size\": %lld, \"threads\": %d, "
                  "\"oversubscribed\": %s, "
                  "\"seconds\": %.9g, \"gflops\": %.3f, \"reps\": %d, "
                  "\"queue_wait_ms\": %.4f, \"busy_ms\": %.4f, "
                  "\"jobs\": %.1f, \"chunks\": %.1f}%s\n",
                  r.kernel.c_str(), r.size, r.threads,
                  r.oversubscribed ? "true" : "false", r.seconds, r.gflops,
                  r.reps, r.queue_wait_ms, r.busy_ms, r.jobs, r.chunks,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    write_scaling_point(out, scaling[i], i + 1 == scaling.size());
  }
  out << "  ],\n";
  if (smoke) {
    out << "  \"lookahead\": [],\n  \"faults\": []\n}\n";
    return;
  }
  out << "  \"lookahead\": [\n";
  for (std::size_t i = 0; i < lookahead.size(); ++i) {
    const rcs::bench::LookaheadPoint& pt = lookahead[i];
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"design\": \"%s\", \"n\": %lld, \"b\": %lld, \"p\": %d, "
        "\"predicted_latency_s\": %.9g, \"blocking_sim_s\": %.9g, "
        "\"lookahead_sim_s\": %.9g, \"sim_speedup\": %.4f, "
        "\"gap_closure\": %.4f, \"blocking_wall_s\": %.6f, "
        "\"lookahead_wall_s\": %.6f, \"bit_identical\": %s, "
        "\"overlap_efficiency\": {",
        pt.design.c_str(), pt.n, pt.b, pt.p, pt.predicted_latency_s,
        pt.blocking_sim_s, pt.lookahead_sim_s, pt.sim_speedup(),
        pt.gap_closure(), pt.blocking_wall_s, pt.lookahead_wall_s,
        pt.bit_identical ? "true" : "false");
    out << buf;
    bool first = true;
    for (const auto& [ph, eff] : pt.overlap_efficiency) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.4f", first ? "" : ", ",
                    ph.c_str(), eff);
      out << buf;
      first = false;
    }
    out << "}}" << (i + 1 < lookahead.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"faults\": [\n";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const rcs::bench::FaultPoint& pt = faults[i];
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"design\": \"%s\", \"n\": %lld, \"b\": %lld, \"p\": %d, "
        "\"seed\": %llu, \"clean_sim_s\": %.9g, \"faulty_sim_s\": %.9g, "
        "\"recovery_overhead_pct\": %.4f, \"bit_identical\": %s, "
        "\"bitflips_injected\": %llu, \"slowdown_hits\": %llu, "
        "\"link_hits\": %llu, \"checks\": %llu, \"detected\": %llu, "
        "\"corrected_elements\": %llu, \"reissued_blocks\": %llu, "
        "\"straggler_timeouts\": %llu, \"straggler_reissues\": %llu, "
        "\"recovery_cpu_s\": %.9g, \"mttr_p50_s\": %.9g, "
        "\"mttr_p99_s\": %.9g}%s\n",
        pt.design.c_str(), pt.n, pt.b, pt.p,
        static_cast<unsigned long long>(pt.seed), pt.clean_sim_s,
        pt.faulty_sim_s, 100.0 * pt.overhead(),
        pt.bit_identical ? "true" : "false",
        static_cast<unsigned long long>(pt.stats.bitflips_injected),
        static_cast<unsigned long long>(pt.stats.slowdown_hits),
        static_cast<unsigned long long>(pt.stats.link_hits),
        static_cast<unsigned long long>(pt.stats.checks),
        static_cast<unsigned long long>(pt.stats.detected),
        static_cast<unsigned long long>(pt.stats.corrected_elements),
        static_cast<unsigned long long>(pt.stats.reissued_blocks),
        static_cast<unsigned long long>(pt.stats.straggler_timeouts),
        static_cast<unsigned long long>(pt.stats.straggler_reissues),
        pt.stats.recovery_cpu_s, pt.stats.mttr_percentile(0.5),
        pt.stats.mttr_percentile(0.99), i + 1 < faults.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"drift\": {\n    \"lu\": ";
  lu_drift.write_json(out, 4);
  out << ",\n    \"lu_lookahead\": ";
  lu_drift_la.write_json(out, 4);
  out << ",\n    \"fw\": ";
  fw_drift.write_json(out, 4);
  out << ",\n    \"fw_lookahead\": ";
  fw_drift_la.write_json(out, 4);
  out << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      path = arg;
    }
  }
  // Pool/kernel telemetry feeds the queue-wait/busy columns.
  obs::set_metrics_enabled(true);

  const rcs::obs::Provenance prov = rcs::obs::Provenance::collect();
  const int hw = common::ThreadPool::global().threads();
  std::cout << "perf_wallclock: hardware threads " << hw << ", simd dispatch "
            << simd::level_name(simd::active_level()) << " (max "
            << simd::level_name(simd::max_supported_level()) << ")\n";
  if (prov.git_dirty) {
    std::cerr << "WARNING: built from a dirty working tree (git_sha "
              << prov.git_sha
              << " + uncommitted changes) — do not check in this "
                 "BENCH_perf.json as a trajectory point.\n";
  }

  int guard_failures = 0;
  if (smoke) {
    guard_failures = run_identity_guards();
    std::cout << "identity guards: "
              << (guard_failures == 0 ? "PASS" : "FAIL") << "\n";
  }

  std::vector<Row> rows;
  const std::vector<int> sweep =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  const std::vector<long long> gemm_sizes =
      smoke ? std::vector<long long>{96} : std::vector<long long>{256, 1024};

  // --- gemm trio. Naive only at the small size (it is the O(n^3)-slow
  // reference); tiled single-thread as the fixed baseline; packed across
  // the full thread sweep.
  rows.push_back(bench_gemm("gemm_naive", smoke ? 96 : 256, 1,
                            la::gemm_naive));
  for (long long n : gemm_sizes) {
    rows.push_back(bench_gemm("gemm_tiled", n, 1, la::gemm_tiled));
    for (int t : sweep) {
      rows.push_back(bench_gemm("gemm_packed", n, t, la::gemm));
    }
  }
  // The committed baseline has no size-96 rows: one smoke row at a
  // (kernel, size, threads) key it does have gives perf_gate a row to
  // compare.
  if (smoke) rows.push_back(bench_gemm("gemm_packed", 256, 1, la::gemm));

  // --- Streamed FPGA-emulation kernel, same sweep.
  for (long long n : gemm_sizes) {
    for (int t : sweep) {
      rows.push_back(bench_matmul_array(n, t));
    }
  }

  // --- Parallel triangular solve (the LU opU substrate).
  for (int t : sweep) {
    rows.push_back(bench_trsm(smoke ? 96 : 512, smoke ? 96 : 512, t));
  }

  // --- The LU host kernels at the shapes LU calls them with, one thread:
  // the opLU factorization and opL solve at the lu-mid and lu-p256 block
  // sizes, and an opMM worker's one- and two-column share at b = 256.
  for (long long b : {192LL, 256LL}) rows.push_back(bench_getrf(b));
  for (long long b : {192LL, 256LL}) rows.push_back(bench_trsm_right_upper(b));
  for (long long cols : {1LL, 2LL}) rows.push_back(bench_gemm_narrow(cols));

  // --- Min-plus block kernel (the FW layer), one thread: the fw-fine block
  // size and a large block.
  for (long long b : {32LL, 256LL}) rows.push_back(bench_fw_block(b));

  if (!smoke) {
    // --- Mid-size functional runs (simulated results identical across
    // thread counts; only the wall-clock below should move).
    for (int t : {1, std::max(hw, 4)}) {
      rows.push_back(bench_lu_functional(256, 64, 3, false, t));
      rows.push_back(bench_fw_functional(256, 32, 2, false, t));
    }
    // The benchmark's lu-mid and fw-fine shapes: p = 6 hybrid with
    // lookahead, the designs the paper runs, end to end.
    for (int t : {1, 4}) {
      rows.push_back(bench_lu_functional(1536, 192, 6, true, t));
      rows.push_back(bench_fw_functional(768, 32, 6, true, t));
    }
  }

  common::ThreadPool::set_global_threads(hw);

  if (prov.hw_cores > 0) {
    for (Row& r : rows) {
      r.oversubscribed = r.threads > static_cast<int>(prov.hw_cores);
    }
  }

  std::printf("%-24s %5s %3s %9s %9s %11s %9s %7s %7s\n", "kernel", "n",
              "thr", "seconds", "GFLOP/s", "queue_ms/r", "busy_ms/r", "jobs/r",
              "chnk/r");
  for (const Row& r : rows) {
    std::printf(
        "%-24s %5lld %3d %9.3g %9.2f %11.3f %9.2f %7.1f %7.1f\n",
        r.kernel.c_str(), r.size, r.threads, r.seconds, r.gflops,
        r.queue_wait_ms, r.busy_ms, r.jobs, r.chunks);
  }

  // Headline ratios the acceptance bars track.
  auto best_seconds = [&](const std::string& kernel, long long size,
                          int threads) {
    double best = 0.0;
    for (const Row& r : rows) {
      if (r.kernel == kernel && r.size == size &&
          (threads == 0 || r.threads == threads)) {
        if (best == 0.0 || r.seconds < best) best = r.seconds;
      }
    }
    return best;
  };
  const long long headline = smoke ? 96 : 1024;
  const double tiled = best_seconds("gemm_tiled", headline, 1);
  const double packed1 = best_seconds("gemm_packed", headline, 1);
  const double packed_any = best_seconds("gemm_packed", headline, 0);
  if (tiled > 0.0 && packed_any > 0.0) {
    std::printf("speedup gemm_packed vs gemm_tiled @%lld: %.2fx\n", headline,
                tiled / packed_any);
  }
  if (packed1 > 0.0 && packed_any > 0.0) {
    std::printf("scaling gemm_packed best-threads vs 1-thread @%lld: %.2fx\n",
                headline, packed1 / packed_any);
  }

  // --- Large-p scaling sweep (the fiber rank scheduler's design point):
  // predicted vs simulated makespan across world sizes, LU simulated
  // everywhere (p=1024 runs as fibers in this process), FW simulated
  // through p=64 (its functional plane grows ~p^3). Smoke trims to the two
  // small worlds so the CI lane stays fast.
  const std::vector<int> scaling_ps =
      smoke ? std::vector<int>{4, 16} : std::vector<int>{4, 16, 64, 256, 1024};
  const std::vector<rcs::bench::ScalingPoint> scaling = rcs::bench::
      scaling_sweep(scaling_ps, 128, 16, 8, smoke ? 16 : 1024, smoke ? 16 : 64);
  int scaling_failures = 0;
  for (const auto& pt : scaling) {
    if (!pt.simulated) continue;
    if (!pt.analysis.invariants_hold()) ++scaling_failures;
    std::printf(
        "scaling %-2s p=%-5d n=%-5lld sim %.6g s vs predicted %.6g s "
        "(%.1fx), cp %.6g s, invariants %s\n",
        pt.design.c_str(), pt.p, pt.n, pt.simulated_s, pt.predicted_s,
        pt.sim_over_predicted(), pt.analysis.critical_path_s,
        pt.analysis.invariants_hold() ? "ok" : "VIOLATED");
  }

  core::DriftReport lu_drift, fw_drift, lu_drift_la, fw_drift_la;
  std::vector<rcs::bench::LookaheadPoint> lookahead;
  std::vector<rcs::bench::FaultPoint> faults;
  if (!smoke) {
    // --- Drift reports: the paper's model vs the simulated schedule vs
    // this machine's wall clock, per phase, at the same mid-size design
    // points. Both schedules are reported: the blocking run keeps the
    // historic baseline comparable, the lookahead run shows the overlap
    // efficiency and the shrunken simulated-vs-predicted gap.
    {
      core::SystemParams sys = core::SystemParams::cray_xd1();
      sys.p = 3;
      core::LuConfig cfg;
      cfg.n = 256;
      cfg.b = 64;
      cfg.mode = core::DesignMode::Hybrid;
      const la::Matrix a = la::diagonally_dominant(256, 42);
      lu_drift = core::lu_drift_report(sys, cfg, a);
      cfg.lookahead = true;
      lu_drift_la = core::lu_drift_report(sys, cfg, a);
    }
    {
      core::SystemParams sys = core::SystemParams::cray_xd1();
      sys.p = 2;
      core::FwConfig cfg;
      cfg.n = 256;
      cfg.b = 32;
      cfg.mode = core::DesignMode::Hybrid;
      const la::Matrix d0 = rcs::graph::random_digraph(256, 7, 0.4);
      fw_drift = core::fw_drift_report(sys, cfg, d0);
      cfg.lookahead = true;
      fw_drift_la = core::fw_drift_report(sys, cfg, d0);
    }
    lu_drift.print(std::cout);
    lu_drift_la.print(std::cout);
    fw_drift.print(std::cout);
    fw_drift_la.print(std::cout);

    // --- Blocking-vs-lookahead ablation at the same design points (see
    // bench/ablation_lookahead for the wider standalone sweep).
    lookahead.push_back(rcs::bench::lu_lookahead_point(256, 64, 3));
    lookahead.push_back(rcs::bench::fw_lookahead_point(256, 32, 2));
    for (const auto& pt : lookahead) {
      std::printf(
          "lookahead %-2s n=%-4lld p=%d: sim %.6f -> %.6f s (%.3fx, gap "
          "closure %.1f%%), bit_identical=%s\n",
          pt.design.c_str(), pt.n, pt.p, pt.blocking_sim_s,
          pt.lookahead_sim_s, pt.sim_speedup(), 100.0 * pt.gap_closure(),
          pt.bit_identical ? "yes" : "NO");
    }

    // --- Fault-tolerance sweep at the same design points: recovery
    // overhead and MTTR under one seeded plan each (see bench/fault_sweep
    // for the multi-seed standalone table).
    faults.push_back(rcs::bench::lu_fault_point(256, 64, 3, 1));
    faults.push_back(rcs::bench::fw_fault_point(256, 32, 2, 1));
    for (const auto& pt : faults) {
      std::printf(
          "faults %-2s n=%-4lld p=%d seed=%llu: sim %.6f -> %.6f s "
          "(overhead %.2f%%), injected=%llu detected=%llu, "
          "bit_identical=%s\n",
          pt.design.c_str(), pt.n, pt.p,
          static_cast<unsigned long long>(pt.seed), pt.clean_sim_s,
          pt.faulty_sim_s, 100.0 * pt.overhead(),
          static_cast<unsigned long long>(pt.stats.bitflips_injected),
          static_cast<unsigned long long>(pt.stats.detected),
          pt.bit_identical ? "yes" : "NO");
    }
  }

  write_json(rows, lu_drift, fw_drift, lu_drift_la, fw_drift_la, lookahead,
             faults, scaling, smoke, path);
  std::cout << "wrote " << path << "\n";
  return guard_failures == 0 && scaling_failures == 0 ? 0 : 1;
}
