// Layer probes: standalone timed calls into one module each, at the
// workload's own shapes. Every probe reports the median over repeated
// calls, and the work one call does as computed from its shape.

#include <algorithm>
#include <sstream>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/system.hpp"
#include "fpga/fw_kernel.hpp"
#include "fpga/matmul_array.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "net/matrix_channel.hpp"
#include "net/minimpi.hpp"

namespace perfbench {

namespace la = rcs::linalg;
namespace net = rcs::net;
using rcs::common::ThreadPool;

namespace {

/// Median seconds of `body` over repetitions lasting about `budget_s`
/// (at least `min_reps`). `prepare` runs untimed before each repetition.
template <typename Prepare, typename Body>
double median_seconds(double budget_s, int min_reps, Prepare&& prepare,
                      Body&& body) {
  std::vector<double> t;
  const double start = now_s();
  while (static_cast<int>(t.size()) < min_reps || now_s() - start < budget_s) {
    prepare();
    const double t0 = now_s();
    body();
    t.push_back(now_s() - t0);
  }
  return median(t);
}

template <typename Body>
double median_seconds(double budget_s, int min_reps, Body&& body) {
  return median_seconds(budget_s, min_reps, [] {}, body);
}

std::string dims(long long m, long long k, long long n) {
  std::ostringstream os;
  os << m << "x" << k << "x" << n;
  return os.str();
}

constexpr double kBudget = 0.15;  // seconds per probe

/// Median seconds of `rounds` 8-byte round trips between two ranks, with
/// `max_workers` forwarded to the rank scheduler (0 = the library default).
double ping_pong_seconds(int max_workers, int rounds) {
  net::World world(2, rcs::core::SystemParams::cray_xd1().network);
  world.set_max_workers(max_workers);
  return median_seconds(kBudget, 3, [&] {
    world.run([&](net::Comm& c) {
      double v = 1.0;
      for (int i = 0; i < rounds; ++i) {
        if (c.rank() == 0) {
          c.send_value(1, 1, v);
          v = c.recv(1, 2).as<double>();
        } else {
          v = c.recv(0, 1).as<double>();
          c.send_value(0, 2, v);
        }
      }
    });
  });
}

}  // namespace

std::vector<ProbeLine> run_probes(const Workload& w, int pool_threads,
                                  Metrics& m) {
  const Shapes s = w.shapes();
  const auto sys = rcs::core::SystemParams::cray_xd1();
  std::vector<ProbeLine> lines;
  auto add = [&](ProbeLine line) {
    m[line.name] = Metric{line.value, line.unit};
    lines.push_back(std::move(line));
  };
  ThreadPool::set_global_threads(pool_threads);

  // common: an empty 4-chunk parallel_for, timed in batches of 100.
  {
    const double batch = median_seconds(kBudget, 5, [] {
      for (int i = 0; i < 100; ++i) {
        rcs::common::parallel_for(0, 4, 1, [](std::size_t, std::size_t) {});
      }
    });
    add({"common.pool.dispatch_us", "4 chunks", 4, 0, batch / 100 * 1e6,
         "us"});
  }
  // common: fiber switch, the ping-pong with both ranks on one fiber worker.
  {
    constexpr int kRounds = 2000;
    const double t = ping_pong_seconds(1, kRounds);
    add({"common.fiber.switch_ns", "2 ranks, 1 worker", 2.0 * kRounds,
         16.0 * kRounds, t / (2.0 * kRounds) * 1e9, "ns"});
  }

  // linalg: gemm at the opMM CPU share, trsm and getrf at b x b.
  {
    const auto bp = static_cast<std::size_t>(s.b_p);
    const auto bb = static_cast<std::size_t>(s.lu_b);
    const auto cw = static_cast<std::size_t>(s.cw);
    const la::Matrix a = la::random_matrix(bp, bb, 11);
    const la::Matrix b = la::random_matrix(bb, cw, 12);
    la::Matrix c(bp, cw);
    const double t = median_seconds(kBudget, 5, [&] {
      la::gemm(a.view(), b.view(), c.view());
    });
    const double flops = static_cast<double>(la::gemm_flops(bp, bb, cw));
    add({"linalg.gemm.gflops", dims(bp, bb, cw), flops,
         8.0 * static_cast<double>(bp * bb + bb * cw + 2 * bp * cw),
         flops / t / 1e9, "GFLOP/s"});
  }
  {
    const auto bb = static_cast<std::size_t>(s.lu_b);
    const la::Matrix lu = [&] {
      la::Matrix f = la::diagonally_dominant(bb, 13);
      la::getrf_unblocked(f.view());
      return f;
    }();
    const la::Matrix rhs = la::random_matrix(bb, bb, 14);
    la::Matrix x(bb, bb);
    const double flops = static_cast<double>(la::trsm_flops(s.lu_b, s.lu_b));
    const double bytes = 8.0 * static_cast<double>(3 * bb * bb);
    for (int threads : {pool_threads, 1}) {
      ThreadPool::set_global_threads(threads);
      const double t = median_seconds(
          kBudget, 5, [&] { la::copy(rhs.view(), x.view()); },
          [&] { la::trsm_left_lower_unit(lu.view(), x.view()); });
      add({threads == 1 ? "linalg.trsm.gflops_1t" : "linalg.trsm.gflops",
           dims(s.lu_b, s.lu_b, s.lu_b), flops, bytes, flops / t / 1e9,
           "GFLOP/s"});
    }
    ThreadPool::set_global_threads(pool_threads);
    const la::Matrix a0 = la::diagonally_dominant(bb, 15);
    la::Matrix f(bb, bb);
    const double gflops = static_cast<double>(la::getrf_flops(s.lu_b));
    const double t = median_seconds(
        kBudget, 5, [&] { la::copy(a0.view(), f.view()); },
        [&] { la::getrf_unblocked(f.view()); });
    add({"linalg.getrf.gflops", dims(s.lu_b, s.lu_b, s.lu_b), gflops,
         16.0 * static_cast<double>(bb * bb), gflops / t / 1e9, "GFLOP/s"});
  }

  // graph: the CPU min-plus block routine at b = 32, the fw-fine block.
  {
    constexpr std::size_t kB = 32;
    const la::Matrix d = rcs::graph::random_digraph(3 * kB, 16, 0.5);
    la::Matrix c(kB, kB);
    const auto a = d.view().block(kB, 0, kB, kB);
    const auto b = d.view().block(0, kB, kB, kB);
    const double t = median_seconds(
        kBudget, 5, [&] { la::copy(d.view().block(2 * kB, 2 * kB, kB, kB),
                                   c.view()); },
        [&] { rcs::graph::fw_block(c.view(), a, b); });
    const double relax = static_cast<double>(kB * kB * kB);
    add({"graph.fw_block.ns_per_relax", dims(kB, kB, kB), relax,
         8.0 * 4 * kB * kB, t / relax * 1e9, "ns"});
  }

  // fpga: the FW kernel emulation on one b = 32 block task. (Hybrid FW
  // runs its FPGA-assigned blocks through graph::fw_block, so the traced
  // solve leaves the fpga.fw counters at 0 unless the design is FPGA-only.)
  {
    constexpr std::size_t kB = 32;
    const rcs::fpga::FwKernel fw(sys.fw_fpga);
    const la::Matrix d = rcs::graph::random_digraph(kB, 21, 0.5);
    la::Matrix c(kB, kB);
    const double t = median_seconds(
        kBudget, 5, [&] { la::copy(d.view(), c.view()); },
        [&] { fw.run_block(c.view(), c.view(), c.view()); });
    const double relax = static_cast<double>(kB * kB * kB);
    add({"fpga.fw.ns_per_relax", dims(kB, kB, kB), relax,
         static_cast<double>(fw.input_bytes(kB)), t / relax * 1e9, "ns"});
  }

  // fpga: MatMulArray emulation at the opMM FPGA share, b_f x b x cw (one
  // k-row stripe when Eq. 4 gives the FPGA no rows).
  {
    const rcs::fpga::MatMulArray mm(sys.mm_fpga);
    const auto bf = static_cast<std::size_t>(std::max<long long>(s.b_f, mm.k()));
    const auto bb = static_cast<std::size_t>(s.lu_b);
    const auto cw = static_cast<std::size_t>(s.cw);
    const la::Matrix c = la::random_matrix(bf, bb, 17);
    const la::Matrix d = la::random_matrix(bb, cw, 18);
    la::Matrix e(bf, cw);
    const double t = median_seconds(kBudget, 5, [&] {
      mm.multiply_accumulate(c.view(), d.view(), e.view());
    });
    const double flops = static_cast<double>(la::gemm_flops(bf, bb, cw));
    add({"fpga.mm.gflops", dims(bf, bb, cw), flops,
         static_cast<double>(mm.input_bytes(bf, bb, cw)), flops / t / 1e9,
         "GFLOP/s"});
  }

  // net: one-way 8-byte message (ping-pong / 2) on the default scheduler.
  {
    constexpr int kRounds = 500;
    const double t = ping_pong_seconds(0, kRounds);
    add({"net.small_msg_us", "8 B", 2.0 * kRounds, 16.0 * kRounds,
         t / (2.0 * kRounds) * 1e6, "us"});
  }
  // net: a stream of b x b blocks from rank 0 to rank 1.
  {
    constexpr int kBlocks = 16;
    const auto bb = static_cast<std::size_t>(s.b);
    const la::Matrix blk = la::random_matrix(bb, bb, 19);
    net::World world(2, sys.network);
    const double t = median_seconds(kBudget, 3, [&] {
      world.run([&](net::Comm& c) {
        for (int i = 0; i < kBlocks; ++i) {
          if (c.rank() == 0) {
            net::send_matrix(c, 1, 1, blk.view());
          } else {
            (void)net::recv_matrix(c, 0, 1);
          }
        }
      });
    });
    const double bytes = static_cast<double>(kBlocks) *
                         static_cast<double>(net::matrix_wire_bytes(bb, bb));
    add({"net.block_copy_gbps", dims(s.b, s.b, kBlocks), kBlocks, bytes,
         bytes / t / 1e9, "GB/s"});
  }
  // net: one b x b block from rank 0 to 255 ranks, timed from rank 0's
  // first send to the last receiver's return (world start-up excluded).
  {
    constexpr int kRanks = 256;
    const auto bb = static_cast<std::size_t>(s.b);
    const la::Matrix blk = la::random_matrix(bb, bb, 20);
    net::World world(kRanks, sys.network);
    std::vector<double> done(kRanks, 0.0);
    double start = 0.0;
    std::vector<double> fanout;
    const double begin = now_s();
    while (fanout.size() < 5 || now_s() - begin < 2 * kBudget) {
      world.run([&](net::Comm& c) {
        if (c.rank() == 0) {
          start = now_s();
          for (int dst = 1; dst < kRanks; ++dst) {
            net::send_matrix(c, dst, 1, blk.view());
          }
        } else {
          (void)net::recv_matrix(c, 0, 1);
          done[static_cast<std::size_t>(c.rank())] = now_s();
        }
      });
      fanout.push_back(*std::max_element(done.begin() + 1, done.end()) -
                       start);
    }
    const double bytes = (kRanks - 1.0) *
                         static_cast<double>(net::matrix_wire_bytes(bb, bb));
    add({"net.fanout_ms", dims(s.b, s.b, kRanks - 1), kRanks - 1.0, bytes,
         median(fanout) * 1e3, "ms"});
  }

  // core: one analytic-plane and one predictor evaluation, in batches of
  // 100 (a predictor call takes well under a microsecond).
  {
    const double a = median_seconds(kBudget, 5, [&] {
      for (int i = 0; i < 100; ++i) w.analytic_point();
    });
    add({"core.analytic.point_us", "design point", 1, 0, a / 100 * 1e6, "us"});
    const double p = median_seconds(kBudget, 5, [&] {
      for (int i = 0; i < 100; ++i) w.predict_point();
    });
    add({"core.predict.point_us", "design point", 1, 0, p / 100 * 1e6, "us"});
  }
  return lines;
}

}  // namespace perfbench
