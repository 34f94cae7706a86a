#include "core/mm.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/harness.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

enum class Chan : int { ABlock = 1, BBlock = 2, CShare = 3 };

int make_tag(Chan chan, long long task, long long step) {
  RCS_CHECK_MSG(task < (1 << 14) && step < (1 << 13), "mm tag space exceeded");
  return static_cast<int>((task << 16) | (step << 3) |
                          static_cast<long long>(chan));
}

}  // namespace

MmAnalyticReport mm_analytic(const SystemParams& sys, const MmConfig& cfg) {
  const long long b = cfg.b < 0 ? cfg.n : cfg.b;
  check_mm_config(cfg.n, b);
  const long long nb = cfg.n / b;

  MmAnalyticReport rep;
  rep.partition =
      mm_partition_at(sys, b, resolve_bf(sys, cfg.mode, b, cfg.b_f));
  const MmPartition& part = rep.partition;

  const double b2 = static_cast<double>(b) * static_cast<double>(b);
  const double step_w = worker_opmm_seconds(sys, cfg.mode, part);
  const long long steps = nb * nb * nb;  // block multiply-accumulate tasks
  const double n3 = static_cast<double>(cfg.n) * static_cast<double>(cfg.n) *
                    static_cast<double>(cfg.n);

  rep.run.design = std::string("MM/") + to_string(cfg.mode);
  if (sys.p == 1) {
    // Single-node hybrid multiply [22]: the node streams through all steps.
    rep.run.seconds = static_cast<double>(steps) * step_w;
  } else {
    // Root-fed pipeline: per step the root spends S distributing stripes,
    // the workers spend step_w computing; per output block one share
    // returns per worker and the root stores it.
    const double s = sender_opmm_seconds(sys, part, cfg.fanout);
    const double ret = b2 * kWordBytes / sys.network.bytes_per_s;  // shares
    const double period = std::max(s, step_w);
    rep.run.seconds = s + static_cast<double>(steps) * period +
                      static_cast<double>(nb * nb) * ret + step_w;
    rep.run.bytes_on_network = static_cast<std::uint64_t>(
        static_cast<double>(steps) * 2.0 * b2 * kWordBytes *
            static_cast<double>(sys.p - 1) +
        static_cast<double>(nb * nb) * b2 * kWordBytes);
  }
  rep.run.total_flops = 2.0 * n3;
  rep.run.fpga_flops = rep.run.total_flops * opmm_fpga_share(cfg.mode, part);
  rep.run.cpu_flops = rep.run.total_flops - rep.run.fpga_flops;
  rep.run.fpga_busy_seconds = rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  rep.run.cpu_busy_seconds = rep.run.seconds;  // root/worker CPUs stay hot
  return rep;
}

MmFunctionalResult mm_functional(const SystemParams& sys, const MmConfig& cfg,
                                 const Matrix& a, const Matrix& bmat,
                                 bool use_soft_fp,
                                 sim::TraceRecorder* trace) {
  const long long n = cfg.n;
  const long long b = cfg.b < 0 ? n : cfg.b;
  check_mm_config(n, b);
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(n) &&
                    a.cols() == static_cast<std::size_t>(n) &&
                    bmat.rows() == static_cast<std::size_t>(n) &&
                    bmat.cols() == static_cast<std::size_t>(n),
                "mm operands must be n x n");
  const long long nb = n / b;
  const long long b_f = resolve_bf(sys, cfg.mode, b, cfg.b_f);
  const MmPartition part = mm_partition_at(sys, b, b_f);
  const fpga::MatMulArray array(sys.mm_fpga);
  const int p = sys.p;
  Matrix c(n, n);

  struct NoState {};
  auto compute = [&](Rank& rank, NoState&) {
    net::Comm& comm = rank.comm;
    node::ComputeNode& node = rank.node;
    const int me = comm.rank();
    if (p == 1) {
      // ---- Single node: the [22] hybrid multiply, no network. ----
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v) {
          auto cuv = c.block(u * b, v * b, b, b);
          for (long long w = 0; w < nb; ++w) {
            hybrid_block_product(node, array, a.block(u * b, w * b, b, b),
                                 bmat.block(w * b, v * b, b, b), cuv, b_f,
                                 use_soft_fp, /*d_transposed=*/false, "mm");
            if (b_f > 0) node.fpga_wait();
          }
        }
      }
    } else if (me == 0) {
      // ---- Distributed: rank 0 hosts A/B/C, workers hold running column
      // shares of each block product in on-board SRAM across the nb inner
      // steps, exactly like the streaming accumulation of [21]. ----
      long long task = 0;
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v, ++task) {
          for (long long w = 0; w < nb; ++w) {
            // Packed once, sent to every worker.
            const net::Payload ab =
                net::pack_matrix(a.block(u * b, w * b, b, b));
            const net::Payload bb =
                net::pack_matrix(bmat.block(w * b, v * b, b, b));
            fan_out(comm,
                    {{make_tag(Chan::ABlock, task, w), ab},
                     {make_tag(Chan::BBlock, task, w), bb}},
                    /*dma=*/false);
          }
          for (int r = 1; r < p; ++r) {
            const auto [c0, c1] = worker_columns(b, p, 0, r);
            const net::MatrixMsg share =
                net::recv_matrix_view(comm, r, make_tag(Chan::CShare, task, 0));
            linalg::copy(share.view(),
                         c.block(u * b, v * b + c0, b, c1 - c0));
            node.cpu_compute(node::CpuKernel::MemBound,
                             static_cast<double>(b * (c1 - c0)), "store C");
          }
        }
      }
    } else {
      const auto [c0, c1] = worker_columns(b, p, 0, me);
      const long long cw = c1 - c0;
      long long task = 0;
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v, ++task) {
          Matrix e(b, cw);  // running share, lives in on-board SRAM
          for (long long w = 0; w < nb; ++w) {
            const net::MatrixMsg ablk =
                net::recv_matrix_view(comm, 0, make_tag(Chan::ABlock, task, w));
            const net::MatrixMsg bblk =
                net::recv_matrix_view(comm, 0, make_tag(Chan::BBlock, task, w));
            hybrid_block_product(node, array, ablk.view(),
                                 bblk.block(0, c0, b, cw), e.view(), b_f,
                                 use_soft_fp, /*d_transposed=*/false, "mm");
          }
          if (b_f > 0) {
            node.fpga_wait();
            node.read_fpga_results("mm block share");
          }
          net::send_matrix(comm, 0, make_tag(Chan::CShare, task, 0),
                           e.view());
        }
      }
    }
  };

  const RankTotals totals =
      run_ranks<NoState>(sys, sys.node_params_mm(), RankOptions{}, trace,
                         compute, [](Rank&, NoState&) {});

  MmFunctionalResult res;
  res.c = std::move(c);
  res.run = totals.run;
  res.run.design = std::string("MM/") + to_string(cfg.mode) + "/functional";
  res.partition = part;
  return res;
}

}  // namespace rcs::core
