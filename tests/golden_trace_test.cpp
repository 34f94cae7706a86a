// Golden simulated-output guard. Small functional runs of all four hybrid
// applications are reduced to one 64-bit digest each, and the digests are
// pinned below. A digest covers everything a run produces on the simulated
// plane:
//   * the MiniMPI message log (src, dst, bytes, depart/arrival as hex
//     floats) where the application exposes it (LU, FW);
//   * the trace CSV (written with hex floats, so no rounding hides drift)
//     plus every recorded comm event;
//   * the run report and, for LU/FW, the per-phase overlap accounting;
//   * the raw bytes of the result matrix.
// One further digest pins the analytic planes and the predictor: run
// reports, partitions and per-iteration latencies at points of the paper's
// Fig. 5-9 sweeps.
// Changes to the message path (payload ownership, packing, fan-out) must
// leave all of these byte-identical; a digest mismatch means a simulated
// charge, a message order or a result moved. The digests were recorded
// before the zero-copy payload path existed, so they check the current
// program against the pre-change one, not just against itself.

#include <cstdint>
#include <cstdio>
#include <ios>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cholesky.hpp"
#include "core/fw_analytic.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_analytic.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/predict.hpp"
#include "core/system.hpp"
#include "graph/generate.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "net/minimpi.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace core = rcs::core;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
namespace net = rcs::net;
namespace sim = rcs::sim;

namespace {

core::SystemParams xd1_p(int p) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Canonical serialization of one run; every floating value is written as
/// a hex float so the digest sees every bit.
class Record {
 public:
  Record() { os_ << std::hexfloat; }

  void messages(const std::vector<net::MessageEvent>& log) {
    os_ << "messages " << log.size() << '\n';
    for (const auto& m : log) {
      os_ << m.src << ' ' << m.dst << ' ' << m.bytes << ' ' << m.depart << ' '
          << m.arrival << '\n';
    }
  }

  void trace(const sim::TraceRecorder& tr) {
    tr.write_csv(os_);
    os_ << "comm " << tr.comm_events().size() << '\n';
    for (const auto& e : tr.comm_events()) {
      os_ << static_cast<int>(e.kind) << ' ' << e.rank << ' ' << e.peer << ' '
          << e.t0 << ' ' << e.t1 << ' ' << e.depart << ' ' << e.arrival << ' '
          << e.bytes << ' ' << e.phase << '\n';
    }
  }

  void report(const core::RunReport& r) {
    os_ << r.design << ' ' << r.seconds << ' ' << r.total_flops << ' '
        << r.cpu_busy_seconds << ' ' << r.fpga_busy_seconds << ' '
        << r.cpu_flops << ' ' << r.fpga_flops << ' ' << r.bytes_on_network
        << ' ' << r.coordination_events << '\n';
  }

  void overlap(const std::map<std::string, net::OverlapStats>& ov) {
    for (const auto& [phase, st] : ov) {
      os_ << phase << ' ' << st.hidden_s << ' ' << st.visible_s << ' '
          << st.total_s << '\n';
    }
  }

  void faults(const sim::FaultStats& f) {
    os_ << "faults " << f.straggler_timeouts << ' ' << f.straggler_reissues
        << ' ' << f.slowdown_hits << ' ' << f.slowdown_added_s << '\n';
  }

  /// Every FaultStats field, for the injection/recovery runs.
  void all_faults(const sim::FaultStats& f) {
    os_ << "faults " << f.bitflips_injected << ' ' << f.slowdown_hits << ' '
        << f.slowdown_added_s << ' ' << f.link_hits << ' ' << f.link_added_s
        << ' ' << f.crashes << ' ' << f.checks << ' ' << f.detected << ' '
        << f.corrected_elements << ' ' << f.reissued_blocks << ' '
        << f.straggler_timeouts << ' ' << f.straggler_reissues << ' '
        << f.recovery_cpu_s << " mttr";
    for (const double t : f.mttr_s) os_ << ' ' << t;
    os_ << '\n';
  }

  void values(const char* label, const std::vector<double>& v) {
    os_ << label << ' ' << v.size();
    for (const double x : v) os_ << ' ' << x;
    os_ << '\n';
  }

  void phases(const std::map<std::string, double>& m) {
    for (const auto& [k, v] : m) os_ << k << ' ' << v << '\n';
  }

  void prediction(const core::Prediction& pr) {
    os_ << "predict " << pr.t_tp << ' ' << pr.t_tf << ' ' << pr.total_flops
        << '\n';
  }

  void mm_partition(const core::MmPartition& m) {
    os_ << "mmpart " << m.b << ' ' << m.b_f << ' ' << m.b_p << ' '
        << m.t_f_stripe << ' ' << m.t_p_stripe << ' ' << m.t_mem_stripe << ' '
        << m.t_comm_stripe << ' ' << m.residual << '\n';
  }

  void fw_partition(const core::FwPartition& f) {
    os_ << "fwpart " << f.ops_per_phase << ' ' << f.l1 << ' ' << f.l2 << ' '
        << f.t_p << ' ' << f.t_f << ' ' << f.t_mem << ' ' << f.t_comm << ' '
        << f.residual << '\n';
  }

  void scalar(const char* label, double v) {
    os_ << label << ' ' << v << '\n';
  }

  void matrix(const la::Matrix& m) {
    os_ << "matrix " << m.rows() << 'x' << m.cols() << '\n';
    os_.write(reinterpret_cast<const char*>(m.data()),
              static_cast<std::streamsize>(m.rows() * m.cols() *
                                           sizeof(double)));
  }

  std::uint64_t digest() const { return fnv1a(os_.str()); }

 private:
  std::ostringstream os_;
};

/// Compare against the pinned value; print the actual digest on mismatch so
/// an intended change can be re-pinned deliberately.
void expect_digest(const char* name, const Record& rec, std::uint64_t want) {
  const std::uint64_t got = rec.digest();
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(got));
  EXPECT_EQ(got, want) << name << " digest is now " << buf;
}

core::LuConfig lu_cfg(long long n, long long b) {
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.max_workers = net::World::kThreadPerRank;
  return cfg;
}

core::FwConfig fw_cfg(long long n, long long b) {
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.max_workers = net::World::kThreadPerRank;
  return cfg;
}

// `full_faults` additionally records every FaultStats field (the original
// digests cover only the straggler and slowdown counters).
Record fw_record(int p, const core::FwConfig& cfg, std::uint64_t seed,
                 bool full_faults = false) {
  const la::Matrix d0 =
      gr::random_digraph(static_cast<std::size_t>(cfg.n), seed, 0.3);
  sim::TraceRecorder tr(true);
  std::vector<net::MessageEvent> log;
  const auto res = core::fw_functional(xd1_p(p), cfg, d0, false, &tr, &log);
  Record rec;
  rec.messages(log);
  rec.trace(tr);
  rec.report(res.run);
  rec.overlap(res.overlap);
  rec.faults(res.faults);
  if (full_faults) rec.all_faults(res.faults);
  rec.matrix(res.distances);
  return rec;
}

Record lu_record(int p, const core::LuConfig& cfg, std::uint64_t seed,
                 bool soft_fp = false, bool full_faults = false) {
  const la::Matrix a = la::diagonally_dominant(static_cast<std::size_t>(cfg.n),
                                               seed);
  sim::TraceRecorder tr(true);
  std::vector<net::MessageEvent> log;
  const auto res = core::lu_functional(xd1_p(p), cfg, a, soft_fp, &tr, &log);
  Record rec;
  rec.messages(log);
  rec.trace(tr);
  rec.report(res.run);
  rec.overlap(res.overlap);
  rec.faults(res.faults);
  if (full_faults) rec.all_faults(res.faults);
  rec.matrix(res.factored);
  return rec;
}

// Cholesky and MM expose no message log; their digests cover the trace
// (spans and comm events), the report and the result.
Record chol_record(int p, const core::CholConfig& cfg, std::uint64_t seed,
                   bool soft_fp = false) {
  const la::Matrix a = la::spd_matrix(static_cast<std::size_t>(cfg.n), seed);
  sim::TraceRecorder tr(true);
  const auto res = core::cholesky_functional(xd1_p(p), cfg, a, soft_fp, &tr);
  Record rec;
  rec.trace(tr);
  rec.report(res.run);
  rec.matrix(res.factored);
  return rec;
}

core::CholConfig chol_cfg(long long n, long long b,
                          core::DesignMode mode = core::DesignMode::Hybrid,
                          long long b_f = -1) {
  core::CholConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  cfg.b_f = b_f;
  return cfg;
}

Record chol_record(int p, long long n, long long b, std::uint64_t seed) {
  return chol_record(p, chol_cfg(n, b, core::DesignMode::Hybrid, b / 2),
                     seed);
}

Record mm_record(int p, long long n, long long b, std::uint64_t seed,
                 core::DesignMode mode = core::DesignMode::Hybrid) {
  const std::size_t nn = static_cast<std::size_t>(n);
  const la::Matrix a = la::random_matrix(nn, nn, seed);
  const la::Matrix bm = la::random_matrix(nn, nn, seed + 1);
  core::MmConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = mode;
  sim::TraceRecorder tr(true);
  const auto res = core::mm_functional(xd1_p(p), cfg, a, bm, false, &tr);
  Record rec;
  rec.trace(tr);
  rec.report(res.run);
  rec.matrix(res.c);
  return rec;
}

sim::BitFlip flip(int rank, std::uint64_t call, double ru, double cu,
                  int bit) {
  sim::BitFlip f;
  f.rank = rank;
  f.call = call;
  f.row_u = ru;
  f.col_u = cu;
  f.bit = bit;
  return f;
}

}  // namespace

TEST(GoldenTrace, LuBlockingSerialFanout) {
  expect_digest("lu_p4_blocking", lu_record(4, lu_cfg(128, 32), 3),
                0x7cbca5401fa9ce6dull);
}

TEST(GoldenTrace, LuDmaFanout) {
  core::LuConfig cfg = lu_cfg(96, 16);
  cfg.fanout = core::SendFanout::PaperSingle;
  expect_digest("lu_p6_dma", lu_record(6, cfg, 5), 0xa37d58b5f7cf2d82ull);
}

TEST(GoldenTrace, LuLookahead) {
  core::LuConfig cfg = lu_cfg(160, 32);
  cfg.lookahead = true;
  expect_digest("lu_p5_lookahead", lu_record(5, cfg, 7),
                0x1be6ddf87e34ed23ull);
}

// A slowed rank misses the straggler deadline: exercises the deadline
// receives, the stripe stash and the local re-solve, blocking and
// lookahead.
TEST(GoldenTrace, LuStragglerRecovery) {
  for (const bool lookahead : {false, true}) {
    core::LuConfig cfg = lu_cfg(64, 16);
    cfg.b_f = 8;
    cfg.lookahead = lookahead;
    const la::Matrix a = la::diagonally_dominant(64, 7);
    const double clean_s =
        core::lu_functional(xd1_p(3), cfg, a).run.seconds;
    sim::SlowdownWindow w;
    w.rank = 2;
    w.begin = 0.0;
    w.end = 1e6;
    w.cpu_factor = 50.0;
    w.fpga_factor = 50.0;
    sim::FaultPlan plan(13);
    plan.add_slowdown(w);
    cfg.faults = &plan;
    cfg.fault_tolerance = true;
    cfg.straggler_timeout_s = clean_s / 4.0;
    const Record rec = lu_record(3, cfg, 7);
    expect_digest(lookahead ? "lu_p3_straggler_lookahead" : "lu_p3_straggler",
                  rec,
                  lookahead ? 0xf34da74289f2d02bull : 0x5ca9d90c2cc48caeull);
  }
}

TEST(GoldenTrace, FwBlocking) {
  expect_digest("fw_p3_blocking", fw_record(3, fw_cfg(96, 16), 11),
                0x28b1f43ddae9397aull);
}

TEST(GoldenTrace, FwLookahead) {
  core::FwConfig cfg = fw_cfg(128, 16);
  cfg.lookahead = true;
  expect_digest("fw_p4_lookahead", fw_record(4, cfg, 13),
                0x64a34ce94140ceeaull);
}

TEST(GoldenTrace, FwTreeBroadcast) {
  core::FwConfig cfg = fw_cfg(192, 16);
  cfg.tree_bcast = true;
  expect_digest("fw_p6_tree", fw_record(6, cfg, 17), 0xe4cc4da2748d039dull);
}

TEST(GoldenTrace, Cholesky) {
  expect_digest("chol_p4", chol_record(4, 96, 16, 19), 0x8180a2a1b247fb5full);
  expect_digest("chol_p5", chol_record(5, 80, 16, 23), 0xd819f21887e6ba58ull);
}

TEST(GoldenTrace, MatrixMultiply) {
  expect_digest("mm_p3", mm_record(3, 64, 16, 29), 0x4edf4ddb169e2818ull);
  expect_digest("mm_p6", mm_record(6, 96, 32, 31), 0xe4a16f1d8ce50df2ull);
}

// p = 64 runs as fibers multiplexed over two workers: the scheduler, not
// OS threads, interleaves the ranks, and the digest must not notice.
TEST(GoldenTrace, LuFiberModeP64) {
  for (const bool lookahead : {false, true}) {
    core::LuConfig cfg = lu_cfg(256, 64);
    cfg.max_workers = 2;
    cfg.lookahead = lookahead;
    expect_digest(lookahead ? "lu_p64_fiber_lookahead" : "lu_p64_fiber",
                  lu_record(64, cfg, 37),
                  lookahead ? 0xd3b07f757a37d171ull : 0x5d6ea1733e2e6113ull);
  }
}

// ---- Paths the digests above do not reach. ----

TEST(GoldenTrace, MatrixMultiplySingleNode) {
  expect_digest("mm_p1", mm_record(1, 64, 16, 41), 0x97df97b9f2bcdcc5ull);
}

TEST(GoldenTrace, CholeskyAndMmBaselineModes) {
  expect_digest("chol_p3_cpu",
                chol_record(3, chol_cfg(64, 16,
                                        core::DesignMode::ProcessorOnly),
                            43),
                0x3c6a02352d62222aull);
  expect_digest("chol_p3_fpga",
                chol_record(3, chol_cfg(64, 16, core::DesignMode::FpgaOnly),
                            47),
                0x89085c8b7516377eull);
  expect_digest("mm_p3_cpu",
                mm_record(3, 64, 16, 53, core::DesignMode::ProcessorOnly),
                0x7af2f48888026179ull);
  expect_digest("mm_p3_fpga",
                mm_record(3, 64, 16, 59, core::DesignMode::FpgaOnly),
                0xa8a535f057ffc2ecull);
  expect_digest("mm_p1_fpga",
                mm_record(1, 32, 16, 61, core::DesignMode::FpgaOnly),
                0x2c17d2301733cbe5ull);
}

// The FPGA share runs through the bit-accurate IEEE-754 cores.
TEST(GoldenTrace, SoftFloatingPoint) {
  core::LuConfig lu = lu_cfg(64, 16);
  lu.b_f = 8;
  expect_digest("lu_p3_soft", lu_record(3, lu, 67, /*soft_fp=*/true),
                0x347c3302759ea4f4ull);
  expect_digest("chol_p3_soft",
                chol_record(3, chol_cfg(64, 16, core::DesignMode::Hybrid, 8),
                            71, /*soft_fp=*/true),
                0xe2928051fcc93d0bull);
}

// Bit-flips in FPGA results: LU's ABFT checksums and FW's DMR re-runs
// detect and repair them.
TEST(GoldenTrace, LuAbftUnderBitFlips) {
  sim::FaultPlan plan(11);
  plan.add_bitflip(flip(0, 0, 0.3, 0.7, 52));
  plan.add_bitflip(flip(1, 1, 0.9, 0.1, 57));
  core::LuConfig cfg = lu_cfg(64, 16);
  cfg.b_f = 8;
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  expect_digest("lu_p3_abft",
                lu_record(3, cfg, 7, /*soft_fp=*/false, /*full_faults=*/true),
                0x0b602db15ce0e73eull);
}

TEST(GoldenTrace, FwDmrUnderBitFlips) {
  sim::FaultPlan plan(19);
  plan.add_bitflip(flip(0, 0, 0.2, 0.8, 53));
  plan.add_bitflip(flip(1, 2, 0.7, 0.4, 58));
  core::FwConfig cfg = fw_cfg(64, 16);
  cfg.faults = &plan;
  cfg.fault_tolerance = true;
  expect_digest("fw_p2_dmr", fw_record(2, cfg, 5, /*full_faults=*/true),
                0xcf4c3e51b32a0af8ull);
}

// The analytic planes and the predictor at points of the paper's Fig. 5-9
// sweeps, in every design mode: reports, partitions and per-iteration
// latencies as hex floats.
TEST(GoldenTrace, AnalyticPlanesAndPredictor) {
  const core::SystemParams xd1 = core::SystemParams::cray_xd1();
  const core::DesignMode modes[] = {core::DesignMode::Hybrid,
                                    core::DesignMode::ProcessorOnly,
                                    core::DesignMode::FpgaOnly};
  Record rec;
  // Fig. 5: one opMM at b = 3000 across the b_f sweep.
  for (const long long b_f : {0LL, 600LL, 1200LL, 1800LL, 3000LL}) {
    rec.scalar("opmm", core::lu_single_opmm_latency(
                           xd1, 3000, b_f, core::SendFanout::SerialAll));
    rec.scalar("opmm1", core::lu_single_opmm_latency(
                            xd1, 3000, b_f, core::SendFanout::PaperSingle));
  }
  for (const core::DesignMode mode : modes) {
    // Fig. 6 / 8 / 9: LU at b = 3000.
    for (const long long nb : {2LL, 6LL, 10LL}) {
      core::LuConfig lu;
      lu.n = 3000 * nb;
      lu.b = 3000;
      lu.mode = mode;
      for (const bool lookahead : {false, true}) {
        lu.lookahead = lookahead;
        const auto rep = core::lu_analytic(xd1, lu);
        rec.report(rep.run);
        rec.mm_partition(rep.partition);
        rec.scalar("l", rep.interleave.l);
        rec.values("iters", rep.iteration_seconds);
      }
      rec.prediction(core::predict_lu(xd1, lu));
      rec.phases(core::predict_lu_phase_seconds(xd1, lu));
    }
    {
      core::LuConfig lu;  // Fig. 6: one iteration at a fixed l
      lu.n = 30000;
      lu.b = 3000;
      lu.mode = mode;
      lu.l = 3;
      lu.max_iterations = 1;
      rec.report(core::lu_analytic(xd1, lu).run);
    }
    // Fig. 7 / 9: FW.
    for (const long long n : {18432LL, 92160LL}) {
      core::FwConfig fw;
      fw.n = n;
      fw.b = 256;
      fw.mode = mode;
      for (const bool tree : {false, true}) {
        fw.tree_bcast = tree;
        const auto rep = core::fw_analytic(xd1, fw);
        rec.report(rep.run);
        rec.fw_partition(rep.partition);
        rec.scalar("owner", rep.owner_busy_seconds);
        rec.scalar("worker", rep.worker_busy_seconds);
      }
      rec.prediction(core::predict_fw(xd1, fw));
      rec.phases(core::predict_fw_phase_seconds(xd1, fw));
    }
    {
      core::FwConfig fw;  // Fig. 7: one iteration at a fixed l1
      fw.n = 18432;
      fw.b = 256;
      fw.mode = mode;
      fw.l1 = 5;
      fw.max_iterations = 1;
      rec.report(core::fw_analytic(xd1, fw).run);
    }
    // Cholesky and MM, the extension applications.
    {
      core::CholConfig ch;
      ch.n = 30000;
      ch.b = 3000;
      ch.mode = mode;
      const auto rep = core::cholesky_analytic(xd1, ch);
      rec.report(rep.run);
      rec.mm_partition(rep.partition);
      rec.values("iters", rep.iteration_seconds);
    }
    for (const int p : {1, 6}) {
      core::MmConfig mm;
      mm.n = 12000;
      mm.b = 3000;
      mm.mode = mode;
      const auto rep = core::mm_analytic(xd1.with_nodes(p), mm);
      rec.report(rep.run);
      rec.mm_partition(rep.partition);
    }
  }
  expect_digest("analytic", rec, 0xee4bdd7ba843e11dull);
}
