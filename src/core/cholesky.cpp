#include "core/cholesky.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/harness.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

/// Message channels of the schedule (the low bits of block_tag).
enum Chan : int { CBlock = 1, DBlock = 2, EShare = 3, Gather = 4 };

/// Trailing tasks (u, v), u >= v, ordered by readiness: pair i of the panel
/// (the trsm for row t+i) unlocks the tasks with max-index i.
std::vector<std::pair<long long, long long>> opmm_order(long long t,
                                                        long long nb) {
  std::vector<std::pair<long long, long long>> order;
  const long long m = nb - 1 - t;
  order.reserve(static_cast<std::size_t>(m * (m + 1) / 2));
  for (long long i = 1; i <= m; ++i) {
    for (long long j = 1; j <= i; ++j) order.emplace_back(t + i, t + j);
  }
  return order;
}

}  // namespace

CholAnalyticReport cholesky_analytic(const SystemParams& sys,
                                     const CholConfig& cfg) {
  check_chol_config(sys, cfg.n, cfg.b);

  CholAnalyticReport rep;
  rep.partition = mm_partition_at(sys, cfg.b,
                                  resolve_bf(sys, cfg.mode, cfg.b, cfg.b_f));
  rep.interleave =
      solve_lu_interleave(sys, cfg.b, rep.partition, cfg.fanout);
  const int l = cfg.l >= 0 ? cfg.l : rep.interleave.l;
  rep.interleave.l = l;

  const long long nb = cfg.n / cfg.b;
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);
  const double b3 = b2 * static_cast<double>(cfg.b);
  const double t_potrf =
      sys.gpp.seconds_for(node::CpuKernel::Dpotrf, b3 / 3.0);
  const double t_trsm = sys.gpp.seconds_for(node::CpuKernel::Dtrsm, b3);
  const double w_opmm = worker_opmm_seconds(sys, cfg.mode, rep.partition);
  const long long k = sys.mm_fpga.pe_count;
  const double s_opmm = sender_opmm_seconds(sys, rep.partition, cfg.fanout);
  const double post = opmm_return_seconds(sys, cfg.b);
  const double fpga_share = opmm_fpga_share(cfg.mode, rep.partition);

  rep.run.design = std::string("CHOL/") + to_string(cfg.mode);
  double now = 0.0;
  for (long long t = 0; t < iterations; ++t) {
    const long long m = nb - 1 - t;
    const double iter_start = now;
    double panel = now + t_potrf;
    double worker = now;
    rep.run.cpu_flops += b3 / 3.0;

    long long ready = 0, served = 0;
    const long long total = m * (m + 1) / 2;
    auto serve = [&](long long count) {
      for (long long s = 0; s < count && served < ready; ++s, ++served) {
        panel += s_opmm;
        const double start = std::max(worker, panel);
        worker = start + w_opmm + post;
      }
    };
    for (long long i = 1; i <= m; ++i) {
      panel += t_trsm;  // opL for row t+i
      ready += i;       // tasks (t+i, t+1..t+i)
      rep.run.cpu_flops += b3;
      if (l > 0) serve(l);
    }
    serve(total - served);

    rep.run.fpga_flops += static_cast<double>(total) * 2.0 * b3 * fpga_share;
    rep.run.cpu_flops +=
        static_cast<double>(total) * 2.0 * b3 * (1.0 - fpga_share);
    rep.run.cpu_flops += static_cast<double>(total) * b2;  // opMS
    rep.run.bytes_on_network += static_cast<std::uint64_t>(
        static_cast<double>(total) *
        (2.0 * b2 * kWordBytes * static_cast<double>(sys.p - 1) +
         b2 * kWordBytes));
    if (cfg.mode != DesignMode::ProcessorOnly) {
      rep.run.coordination_events += static_cast<std::uint64_t>(
          total * (cfg.b / k) * 2 * (sys.p - 1));
    }
    now = std::max(panel, worker);
    rep.iteration_seconds.push_back(now - iter_start);
  }
  rep.run.seconds = now;
  rep.run.total_flops = rep.run.cpu_flops + rep.run.fpga_flops;
  rep.run.fpga_busy_seconds = rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  rep.run.cpu_busy_seconds = rep.run.seconds;
  return rep;
}

CholFunctionalResult cholesky_functional(const SystemParams& sys,
                                         const CholConfig& cfg,
                                         const Matrix& a, bool use_soft_fp,
                                         sim::TraceRecorder* trace) {
  check_chol_config(sys, cfg.n, cfg.b);
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(cfg.n) &&
                    a.cols() == static_cast<std::size_t>(cfg.n),
                "input matrix shape mismatch");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  const int p = sys.p;
  const long long b_f = resolve_bf(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  const int l =
      cfg.l >= 0 ? cfg.l : solve_lu_interleave(sys, b, part, cfg.fanout).l;
  const fpga::MatMulArray array(sys.mm_fpga);
  Matrix factored(n, n);

  // The timed schedule of one rank; `blocks` holds the blocks it owns.
  auto compute = [&](Rank& rank, BlockMap& blocks) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    const int me = comm.rank();

    // Initial distribution of the lower-triangle blocks (u >= v).
    blocks = distribute_blocks(a, b, p, me, /*lower=*/true);
    auto blk = [&](long long u, long long v) -> Matrix& {
      return owned_block(blocks, me, u, v);
    };

    for (long long t = 0; t < nb; ++t) {
      const int panel = static_cast<int>(t % p);
      const auto order = opmm_order(t, nb);
      const long long total = static_cast<long long>(order.size());
      const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                        static_cast<double>(b);

      if (me == panel) {
        linalg::potrf_unblocked(blk(t, t).view());
        node.cpu_compute(node::CpuKernel::Dpotrf, b3 / 3.0, "opPOTRF");
        long long served = 0, ready = 0;
        auto serve = [&](long long count) {
          for (long long s = 0; s < count && served < ready; ++s, ++served) {
            const auto [u, v] = order[static_cast<std::size_t>(served)];
            // Packed once, sent to every worker.
            const net::Payload cb = net::pack_matrix(blk(u, t).view());
            const net::Payload db = net::pack_matrix(blk(v, t).view());
            fan_out(comm,
                    {{block_tag(CBlock, t, served), cb},
                     {block_tag(DBlock, t, served), db}},
                    /*dma=*/false);
          }
        };
        const long long m = nb - 1 - t;
        for (long long i = 1; i <= m; ++i) {
          linalg::trsm_right_lower_transposed(blk(t, t).view(),
                                              blk(t + i, t).view());
          node.cpu_compute(node::CpuKernel::Dtrsm, b3, "opL");
          ready += i;
          if (l > 0) serve(l);
        }
        serve(total - served);
      } else {
        const auto [c0, c1] = worker_columns(b, p, panel, me);
        const long long cw = c1 - c0;
        for (long long j = 0; j < total; ++j) {
          const auto [u, v] = order[static_cast<std::size_t>(j)];
          const net::MatrixMsg c =
              net::recv_matrix_view(comm, panel, block_tag(CBlock, t, j));
          const net::MatrixMsg d =
              net::recv_matrix_view(comm, panel, block_tag(DBlock, t, j));
          Matrix e(b, cw);
          // E[:, c0:c1) = C * D[c0:c1, :]^T — the worker's column share.
          hybrid_block_product(node, array, c.view(), d.block(c0, 0, cw, b),
                               e.view(), b_f, use_soft_fp,
                               /*d_transposed=*/true, "opMM");
          if (b_f > 0) {
            node.fpga_wait();
            node.read_fpga_results("opMM partial product");
          }
          const int dst = owner_of(u, v, p);
          if (dst == me) {
            linalg::matrix_sub(blk(u, v).block(0, c0, b, cw), e.view());
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * cw), "opMS");
          } else {
            net::send_matrix(comm, dst, block_tag(EShare, t, j), e.view());
          }
        }
      }

      for (long long j = 0; j < total; ++j) {
        const auto [u, v] = order[static_cast<std::size_t>(j)];
        if (owner_of(u, v, p) != me) continue;
        for (int r = 0; r < p; ++r) {
          if (r == panel || r == me) continue;
          const auto [c0, c1] = worker_columns(b, p, panel, r);
          const net::MatrixMsg e =
              net::recv_matrix_view(comm, r, block_tag(EShare, t, j));
          linalg::matrix_sub(blk(u, v).block(0, c0, b, c1 - c0), e.view());
          node.cpu_compute(node::CpuKernel::MemBound,
                           static_cast<double>(b * (c1 - c0)), "opMS");
        }
      }
      comm.barrier();
    }
  };

  // Untimed gather: lower-triangle blocks to rank 0; the upper triangle
  // keeps the input values (potrf semantics).
  auto gather = [&](Rank& rank, BlockMap& blocks) {
    if (rank.comm.rank() == 0) linalg::copy(a.view(), factored.view());
    gather_blocks(rank.comm, blocks, b, p, /*lower=*/true, Gather, factored);
  };

  const RankTotals totals = run_ranks<BlockMap>(
      sys, sys.node_params_mm(), RankOptions{}, trace, compute, gather);

  CholFunctionalResult res;
  res.factored = std::move(factored);
  res.run = totals.run;
  res.run.design = std::string("CHOL/") + to_string(cfg.mode) + "/functional";
  res.partition = part;
  res.l = l;
  return res;
}

}  // namespace rcs::core
