// Regression: the intra-node parallel runtime must not perturb the simulated
// experiment. lu_functional and fw_functional are re-run at several
// RCS_THREADS-equivalent pool sizes; simulated seconds, network bytes, and
// the factored/closure outputs must be exactly equal — the pool accelerates
// wall-clock only, never the virtual clocks.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/system.hpp"
#include "fpga/matmul_array.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/simd.hpp"
#include "net/minimpi.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

#include "kernel_oracles.hpp"

namespace core = rcs::core;
namespace common = rcs::common;
namespace la = rcs::linalg;
namespace gr = rcs::graph;
namespace sim = rcs::sim;

namespace {

core::SystemParams xd1_p(int p) {
  core::SystemParams sys = core::SystemParams::cray_xd1();
  sys.p = p;
  return sys;
}

// The kernel-level contract behind every test in this file: gemm (packed
// and narrow-column), the MatMulArray emulation (all four variants),
// LU's panel kernels (trsm_left_lower_unit, trsm_right_upper, getrf on a
// square and a tall panel), the min-plus fw_block (disjoint and aliased)
// and blocked_floyd_warshall produce byte-identical output across every
// (SIMD path x thread count) combination, with threads=1 + scalar dispatch
// as the reference; the panel kernels' reference must itself equal their
// former scalar loops.
TEST(Determinism, KernelsInvariantAcrossSimdAndThreads) {
  const std::size_t m = 129, k = 257, n = 70;  // ragged, crosses KC/MC/NC
  const la::Matrix a = la::random_matrix(m, k, 11);
  const la::Matrix b = la::random_matrix(k, n, 12);
  const la::Matrix bt = la::random_matrix(n, k, 13);
  const la::Matrix e0 = la::random_matrix(m, n, 14);
  la::Matrix lower = la::random_matrix(m, m, 15);
  for (std::size_t i = 0; i < m; ++i) lower(i, i) = 1.0;
  const la::Matrix rhs = la::random_matrix(m, n, 16);
  // opL: X U = B with U upper, well conditioned; opMM at a worker's
  // two-column share (the narrow gemm path), on a strided block.
  la::Matrix upper = la::random_matrix(n, n, 19, -0.1, 0.1);
  for (std::size_t i = 0; i < n; ++i) {
    upper(i, i) = 2.0;
    for (std::size_t j = 0; j < i; ++j) upper(i, j) = 0.0;
  }
  // opLU: getrf on a square b x b block and on a tall panel (ragged
  // column blocks, rows below the square).
  const la::Matrix sq = la::diagonally_dominant(m, 21);
  const la::Matrix tall = la::Matrix::from_view(
      la::diagonally_dominant(m + 40, 22).block(0, 0, m + 40, n));
  const auto narrow_b = b.block(0, 5, k, 2);
  const la::Matrix e_narrow0 = la::random_matrix(m, 2, 20);
  const rcs::fpga::MatMulArray array(
      core::SystemParams::cray_xd1().mm_fpga);
  namespace simd = rcs::linalg::simd;
  const simd::Level saved = simd::active_level();

  common::ThreadPool::set_global_threads(1);
  simd::set_level(simd::Level::Scalar);
  la::Matrix gemm_ref = e0;
  la::gemm(a.view(), b.view(), gemm_ref.view());
  la::Matrix mm_ref = e0;
  array.multiply_accumulate(a.view(), b.view(), mm_ref.view());
  la::Matrix mm_nt_ref = e0;
  array.multiply_accumulate_nt(a.view(), bt.view(), mm_nt_ref.view());
  la::Matrix trsm_ref = rhs;
  la::trsm_left_lower_unit(lower.view(), trsm_ref.view());
  la::Matrix opl_ref = rhs;
  la::trsm_right_upper(upper.view(), opl_ref.view());
  la::Matrix getrf_ref = sq;
  la::getrf_unblocked(getrf_ref.view());
  la::Matrix panel_ref = tall;
  la::getrf_panel(panel_ref.view());
  {
    la::Matrix x = rhs;
    rcs::oracle::trsm_left_lower_unit(lower.view(), x.view());
    EXPECT_TRUE(la::bit_equal(x.view(), trsm_ref.view())) << "trsm oracle";
    la::Matrix opl = rhs;
    rcs::oracle::trsm_right_upper(upper.view(), opl.view());
    EXPECT_TRUE(la::bit_equal(opl.view(), opl_ref.view()))
        << "trsm_right_upper oracle";
    la::Matrix f = sq;
    rcs::oracle::getrf_panel(f.view());
    EXPECT_TRUE(la::bit_equal(f.view(), getrf_ref.view())) << "getrf oracle";
    la::Matrix p = tall;
    rcs::oracle::getrf_panel(p.view());
    EXPECT_TRUE(la::bit_equal(p.view(), panel_ref.view()))
        << "getrf_panel oracle";
  }
  la::Matrix narrow_ref = e_narrow0;
  la::gemm(a.view(), narrow_b, narrow_ref.view());
  // fw_block on a ragged op3 task and an in-place op1 task;
  // blocked_floyd_warshall at b = 64 (waves split across the pool) and
  // b = 16 (waves cheap enough to run serially).
  const la::Matrix g = gr::random_digraph(70, 17, 0.5);
  const auto fw_op3 = [&](la::Matrix& d) {
    gr::fw_block(d.block(0, 0, 29, 37), d.block(0, 40, 29, 19),
                 d.block(35, 30, 19, 37));
    gr::fw_block(d.block(35, 2, 33, 33), d.block(35, 2, 33, 33),
                 d.block(35, 2, 33, 33));
  };
  la::Matrix fw_block_ref = g;
  fw_op3(fw_block_ref);
  const la::Matrix g192 = gr::random_digraph(192, 18, 0.3);
  la::Matrix bfw64_ref = g192;
  gr::blocked_floyd_warshall(bfw64_ref, 64);
  la::Matrix bfw16_ref = g192;
  gr::blocked_floyd_warshall(bfw16_ref, 16);

  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    const simd::Level level = static_cast<simd::Level>(lv);
    simd::set_level(level);
    for (int threads : {1, 2, 4, 7}) {
      common::ThreadPool::set_global_threads(threads);
      const std::string tag = std::string("simd=") + simd::level_name(level) +
                              " threads=" + std::to_string(threads);
      la::Matrix c = e0;
      la::gemm(a.view(), b.view(), c.view());
      EXPECT_TRUE(la::bit_equal(c.view(), gemm_ref.view())) << "gemm " << tag;
      la::Matrix e = e0;
      array.multiply_accumulate(a.view(), b.view(), e.view());
      EXPECT_TRUE(la::bit_equal(e.view(), mm_ref.view())) << "mm " << tag;
      la::Matrix ent = e0;
      array.multiply_accumulate_nt(a.view(), bt.view(), ent.view());
      EXPECT_TRUE(la::bit_equal(ent.view(), mm_nt_ref.view()))
          << "mm_nt " << tag;
      la::Matrix x = rhs;
      la::trsm_left_lower_unit(lower.view(), x.view());
      EXPECT_TRUE(la::bit_equal(x.view(), trsm_ref.view())) << "trsm " << tag;
      la::Matrix opl = rhs;
      la::trsm_right_upper(upper.view(), opl.view());
      EXPECT_TRUE(la::bit_equal(opl.view(), opl_ref.view()))
          << "trsm_right_upper " << tag;
      la::Matrix f = sq;
      la::getrf_unblocked(f.view());
      EXPECT_TRUE(la::bit_equal(f.view(), getrf_ref.view()))
          << "getrf_unblocked " << tag;
      la::Matrix panel = tall;
      la::getrf_panel(panel.view());
      EXPECT_TRUE(la::bit_equal(panel.view(), panel_ref.view()))
          << "getrf_panel " << tag;
      la::Matrix narrow = e_narrow0;
      la::gemm(a.view(), narrow_b, narrow.view());
      EXPECT_TRUE(la::bit_equal(narrow.view(), narrow_ref.view()))
          << "gemm narrow " << tag;
      la::Matrix fw = g;
      fw_op3(fw);
      EXPECT_TRUE(la::bit_equal(fw.view(), fw_block_ref.view()))
          << "fw_block " << tag;
      la::Matrix bfw64 = g192;
      gr::blocked_floyd_warshall(bfw64, 64);
      EXPECT_TRUE(la::bit_equal(bfw64.view(), bfw64_ref.view()))
          << "blocked_fw b=64 " << tag;
      la::Matrix bfw16 = g192;
      gr::blocked_floyd_warshall(bfw16, 16);
      EXPECT_TRUE(la::bit_equal(bfw16.view(), bfw16_ref.view()))
          << "blocked_fw b=16 " << tag;
    }
  }

  // Soft-float variants skip the SIMD engine entirely; check across thread
  // counts at one small shape (the bit-accurate cores are slow).
  simd::set_level(saved);
  common::ThreadPool::set_global_threads(1);
  la::Matrix soft_ref = la::Matrix(17, 9);
  array.multiply_accumulate_soft(a.block(0, 0, 17, 23), b.block(0, 0, 23, 9),
                                 soft_ref.view());
  la::Matrix soft_nt_ref = la::Matrix(17, 9);
  array.multiply_accumulate_nt_soft(a.block(0, 0, 17, 23),
                                    bt.block(0, 0, 9, 23),
                                    soft_nt_ref.view());
  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    la::Matrix s(17, 9);
    array.multiply_accumulate_soft(a.block(0, 0, 17, 23),
                                   b.block(0, 0, 23, 9), s.view());
    EXPECT_TRUE(la::bit_equal(s.view(), soft_ref.view()))
        << "soft threads=" << threads;
    la::Matrix snt(17, 9);
    array.multiply_accumulate_nt_soft(a.block(0, 0, 17, 23),
                                      bt.block(0, 0, 9, 23), snt.view());
    EXPECT_TRUE(la::bit_equal(snt.view(), soft_nt_ref.view()))
        << "soft_nt threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

TEST(Determinism, LuFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  const auto ref = core::lu_functional(xd1_p(3), cfg, a);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto res = core::lu_functional(xd1_p(3), cfg, a);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), ref.factored.view()))
        << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

// lu_functional's factors at b = 64 (opLU, opL and opU each span two
// column blocks of the panel kernels) equal the all-scalar blocked LU built
// from the retained oracles, on every SIMD path at 1, 2 and 4 threads.
TEST(Determinism, LuFunctionalMatchesScalarOraclesAcrossSimdAndThreads) {
  const la::Matrix a = la::diagonally_dominant(192, 4242);
  core::LuConfig cfg;
  cfg.n = 192;
  cfg.b = 64;
  cfg.mode = core::DesignMode::Hybrid;
  la::Matrix want = a;
  rcs::oracle::getrf_blocked(want.view(), 64);
  namespace simd = rcs::linalg::simd;
  const simd::Level saved = simd::active_level();
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    const simd::Level level = static_cast<simd::Level>(lv);
    simd::set_level(level);
    for (int threads : {1, 2, 4}) {
      common::ThreadPool::set_global_threads(threads);
      const auto res = core::lu_functional(xd1_p(3), cfg, a);
      EXPECT_TRUE(la::bit_equal(res.factored.view(), want.view()))
          << "simd=" << simd::level_name(level) << " threads=" << threads;
    }
  }
  simd::set_level(saved);
  common::ThreadPool::set_global_threads(1);
}

TEST(Determinism, FwFunctionalInvariantAcrossThreadCounts) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;

  common::ThreadPool::set_global_threads(1);
  const auto ref = core::fw_functional(xd1_p(2), cfg, d0);

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto res = core::fw_functional(xd1_p(2), cfg, d0);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_EQ(res.run.bytes_on_network, ref.run.bytes_on_network)
        << "threads=" << threads;
    EXPECT_EQ(res.run.cpu_busy_seconds, ref.run.cpu_busy_seconds)
        << "threads=" << threads;
    EXPECT_EQ(res.run.fpga_busy_seconds, ref.run.fpga_busy_seconds)
        << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.distances.view()))
        << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

// The wave grain follows the host cost of the kernels that run: soft-float
// FPGA tasks (about 100x a native task) and DMR re-solves fan out where
// native tasks of the same size run serially. Neither may change a bit of
// the result, the simulated clock or the fault accounting.
TEST(Determinism, FwSoftFpDmrInvariantAcrossThreadCounts) {
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  sim::FaultPlan plan(23);
  sim::BitFlip f;
  f.rank = 1;
  f.call = 3;
  f.row_u = 0.3;
  f.col_u = 0.6;
  f.bit = 52;
  plan.add_bitflip(f);
  core::FwConfig cfg;
  cfg.n = 64;
  cfg.b = 16;
  cfg.mode = core::DesignMode::Hybrid;
  cfg.faults = &plan;
  cfg.fault_tolerance = true;

  common::ThreadPool::set_global_threads(1);
  core::FwConfig clean_cfg = cfg;
  clean_cfg.faults = nullptr;
  clean_cfg.fault_tolerance = false;
  const auto clean = core::fw_functional(xd1_p(2), clean_cfg, d0);
  const auto ref = core::fw_functional(xd1_p(2), cfg, d0, /*use_soft_fp=*/true);
  EXPECT_EQ(ref.faults.bitflips_injected, 1u);
  EXPECT_EQ(ref.faults.detected, 1u);
  EXPECT_TRUE(la::bit_equal(ref.distances.view(), clean.distances.view()));

  for (int threads : {2, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto res =
        core::fw_functional(xd1_p(2), cfg, d0, /*use_soft_fp=*/true);
    EXPECT_EQ(res.run.seconds, ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.distances.view(), ref.distances.view()))
        << "threads=" << threads;
    EXPECT_EQ(res.faults.checks, ref.faults.checks) << "threads=" << threads;
    EXPECT_EQ(res.faults.detected, ref.faults.detected)
        << "threads=" << threads;
    EXPECT_EQ(res.faults.recovery_cpu_s, ref.faults.recovery_cpu_s)
        << "threads=" << threads;
  }
  common::ThreadPool::set_global_threads(1);
}

// The lookahead pipeline replaces barriers with tag-ordered message matching;
// its simulated timings and overlap accounting must stay exactly reproducible
// run-to-run and across pool sizes (§4.3 determinism invariant).
TEST(Determinism, LookaheadScheduleIsReproducible) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;
  lu.lookahead = true;

  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);
  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;
  fw.lookahead = true;

  common::ThreadPool::set_global_threads(1);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0);

  for (int threads : {1, 7}) {
    common::ThreadPool::set_global_threads(threads);
    const auto lu_res = core::lu_functional(xd1_p(3), lu, a);
    EXPECT_EQ(lu_res.run.seconds, lu_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(lu_res.factored.view(), lu_ref.factored.view()))
        << "threads=" << threads;
    ASSERT_EQ(lu_res.overlap.size(), lu_ref.overlap.size());
    for (const auto& [ph, os] : lu_ref.overlap) {
      EXPECT_EQ(lu_res.overlap.at(ph).hidden_s, os.hidden_s) << ph;
      EXPECT_EQ(lu_res.overlap.at(ph).total_s, os.total_s) << ph;
    }

    const auto fw_res = core::fw_functional(xd1_p(2), fw, d0);
    EXPECT_EQ(fw_res.run.seconds, fw_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(fw_res.distances.view(), fw_ref.distances.view()))
        << "threads=" << threads;
    for (const auto& [ph, os] : fw_ref.overlap) {
      EXPECT_EQ(fw_res.overlap.at(ph).hidden_s, os.hidden_s) << ph;
      EXPECT_EQ(fw_res.overlap.at(ph).total_s, os.total_s) << ph;
    }
  }
  common::ThreadPool::set_global_threads(1);
}

// Faulted runs must replay byte-identically: the same FaultPlan seed gives
// the same injections, the same recoveries, the same simulated trace, and
// bit-identical outputs — across repeated runs and across pool sizes.
TEST(Determinism, FaultPlanReplayIsByteIdentical) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);

  // A plan exercising every event class the functional planes inject
  // (slowdowns, degraded links, bit-flips) — no crashes, so the runs
  // complete and their outputs can be compared.
  sim::FaultSpec spec;
  spec.ranks = 3;
  spec.seed = 99;
  spec.horizon_s = 0.5;
  spec.slowdown_windows = 2;
  spec.link_faults = 2;
  spec.link_extra_latency_max_s = 1e-3;
  spec.link_jitter_max_s = 1e-4;
  spec.bitflips = 3;
  spec.bitflip_max_call = 8;
  const sim::FaultPlan plan = sim::FaultPlan::generate(spec);
  // Regenerating from the same spec gives the same plan (seeded sampling).
  const sim::FaultPlan replay = sim::FaultPlan::generate(spec);
  ASSERT_EQ(replay.bitflip_count(), plan.bitflip_count());
  for (std::size_t i = 0; i < plan.bitflips().size(); ++i) {
    EXPECT_EQ(replay.bitflips()[i].rank, plan.bitflips()[i].rank);
    EXPECT_EQ(replay.bitflips()[i].call, plan.bitflips()[i].call);
    EXPECT_EQ(replay.bitflips()[i].bit, plan.bitflips()[i].bit);
  }

  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;
  lu.faults = &plan;
  lu.fault_tolerance = true;
  lu.straggler_timeout_s = 10.0;

  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;
  fw.faults = &plan;
  fw.fault_tolerance = true;

  const auto trace_csv = [](sim::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
  };

  common::ThreadPool::set_global_threads(1);
  sim::TraceRecorder lu_rec(true);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a, false, &lu_rec);
  const std::string lu_trace = trace_csv(lu_rec);
  sim::TraceRecorder fw_rec(true);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0, false, &fw_rec);
  const std::string fw_trace = trace_csv(fw_rec);

  for (int threads : {1, 2, 7}) {
    common::ThreadPool::set_global_threads(threads);

    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), lu, a, false, &rec);
    EXPECT_EQ(res.run.seconds, lu_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), lu_ref.factored.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(rec), lu_trace) << "threads=" << threads;
    // Fault accounting is part of the replay contract.
    EXPECT_EQ(res.faults.bitflips_injected, lu_ref.faults.bitflips_injected);
    EXPECT_EQ(res.faults.slowdown_hits, lu_ref.faults.slowdown_hits);
    EXPECT_EQ(res.faults.slowdown_added_s, lu_ref.faults.slowdown_added_s);
    EXPECT_EQ(res.faults.link_hits, lu_ref.faults.link_hits);
    EXPECT_EQ(res.faults.link_added_s, lu_ref.faults.link_added_s);
    EXPECT_EQ(res.faults.detected, lu_ref.faults.detected);
    EXPECT_EQ(res.faults.corrected_elements, lu_ref.faults.corrected_elements);
    EXPECT_EQ(res.faults.reissued_blocks, lu_ref.faults.reissued_blocks);
    EXPECT_EQ(res.faults.straggler_reissues, lu_ref.faults.straggler_reissues);
    EXPECT_EQ(res.faults.recovery_cpu_s, lu_ref.faults.recovery_cpu_s);
    EXPECT_EQ(res.faults.mttr_s, lu_ref.faults.mttr_s);

    sim::TraceRecorder frec(true);
    const auto fres = core::fw_functional(xd1_p(2), fw, d0, false, &frec);
    EXPECT_EQ(fres.run.seconds, fw_ref.run.seconds) << "threads=" << threads;
    EXPECT_TRUE(la::bit_equal(fres.distances.view(), fw_ref.distances.view()))
        << "threads=" << threads;
    EXPECT_EQ(trace_csv(frec), fw_trace) << "threads=" << threads;
    EXPECT_EQ(fres.faults.bitflips_injected, fw_ref.faults.bitflips_injected);
    EXPECT_EQ(fres.faults.detected, fw_ref.faults.detected);
    EXPECT_EQ(fres.faults.reissued_blocks, fw_ref.faults.reissued_blocks);
    EXPECT_EQ(fres.faults.recovery_cpu_s, fw_ref.faults.recovery_cpu_s);
    EXPECT_EQ(fres.faults.mttr_s, fw_ref.faults.mttr_s);
  }
  common::ThreadPool::set_global_threads(1);
}

// The rank scheduler must be invisible to the simulation: multiplexing the
// ranks as fibers over 1, 2, or 7 worker loops produces the same simulated
// clocks, bit-identical outputs, and a byte-identical trace CSV as the
// thread-per-rank baseline. This is the p<=8 byte-identity contract that
// lets large-p worlds default to fibers without a semantic escape hatch.
TEST(Determinism, RankSchedulerInvariantAcrossMaxWorkers) {
  const la::Matrix a = la::diagonally_dominant(64, 1234);
  const la::Matrix d0 = gr::random_digraph(64, 4321, 0.4);

  core::LuConfig lu;
  lu.n = 64;
  lu.b = 16;
  lu.mode = core::DesignMode::Hybrid;

  core::FwConfig fw;
  fw.n = 64;
  fw.b = 16;
  fw.mode = core::DesignMode::Hybrid;

  const auto trace_csv = [](sim::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
  };

  // Baseline: the pre-scheduler execution model, one OS thread per rank.
  common::ThreadPool::set_global_threads(2);
  lu.max_workers = rcs::net::World::kThreadPerRank;
  fw.max_workers = rcs::net::World::kThreadPerRank;
  sim::TraceRecorder lu_rec(true);
  const auto lu_ref = core::lu_functional(xd1_p(3), lu, a, false, &lu_rec);
  const std::string lu_trace = trace_csv(lu_rec);
  sim::TraceRecorder fw_rec(true);
  const auto fw_ref = core::fw_functional(xd1_p(2), fw, d0, false, &fw_rec);
  const std::string fw_trace = trace_csv(fw_rec);

  for (int workers : {1, 2, 7}) {
    lu.max_workers = workers;
    fw.max_workers = workers;

    sim::TraceRecorder rec(true);
    const auto res = core::lu_functional(xd1_p(3), lu, a, false, &rec);
    EXPECT_EQ(res.run.seconds, lu_ref.run.seconds) << "workers=" << workers;
    EXPECT_EQ(res.run.bytes_on_network, lu_ref.run.bytes_on_network)
        << "workers=" << workers;
    EXPECT_TRUE(la::bit_equal(res.factored.view(), lu_ref.factored.view()))
        << "workers=" << workers;
    EXPECT_EQ(trace_csv(rec), lu_trace) << "workers=" << workers;

    sim::TraceRecorder frec(true);
    const auto fres = core::fw_functional(xd1_p(2), fw, d0, false, &frec);
    EXPECT_EQ(fres.run.seconds, fw_ref.run.seconds) << "workers=" << workers;
    EXPECT_EQ(fres.run.bytes_on_network, fw_ref.run.bytes_on_network)
        << "workers=" << workers;
    EXPECT_TRUE(la::bit_equal(fres.distances.view(), fw_ref.distances.view()))
        << "workers=" << workers;
    EXPECT_EQ(trace_csv(frec), fw_trace) << "workers=" << workers;
  }
  common::ThreadPool::set_global_threads(1);
}

}  // namespace
