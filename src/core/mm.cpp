#include "core/mm.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
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

std::pair<long long, long long> worker_columns(long long b, int workers,
                                               int w) {
  const long long base = b / workers;
  const long long rem = b % workers;
  const long long c0 = w * base + std::min<long long>(w, rem);
  return {c0, c0 + base + (w < rem ? 1 : 0)};
}

long long resolve_bf(const SystemParams& sys, const MmConfig& cfg,
                     long long b) {
  if (cfg.b_f >= 0) return cfg.b_f;
  switch (cfg.mode) {
    case DesignMode::Hybrid: return solve_mm_partition(sys, b).b_f;
    case DesignMode::ProcessorOnly: return 0;
    case DesignMode::FpgaOnly: return b;
  }
  return 0;
}

/// One worker's latency for a single b x b block multiply-accumulate step
/// (its column share), given the mode.
double worker_step_seconds(const SystemParams& sys, const MmConfig& cfg,
                           const MmPartition& part, long long b) {
  const long long k = sys.mm_fpga.pe_count;
  const double stripes = static_cast<double>(b) / static_cast<double>(k);
  const double workers = sys.p >= 2 ? static_cast<double>(sys.p - 1) : 1.0;
  const double b3 = static_cast<double>(b) * static_cast<double>(b) *
                    static_cast<double>(b);
  switch (cfg.mode) {
    case DesignMode::Hybrid:
      return stripes * part.stripe_period_seconds();
    case DesignMode::ProcessorOnly:
      return 2.0 * b3 /
             (workers * sys.gpp.sustained(node::CpuKernel::Dgemm));
    case DesignMode::FpgaOnly:
      return stripes * std::max(part.t_f_stripe, part.t_mem_stripe);
  }
  return 0.0;
}

}  // namespace

MmAnalyticReport mm_analytic(const SystemParams& sys, const MmConfig& cfg) {
  const long long b = cfg.b < 0 ? cfg.n : cfg.b;
  RCS_CHECK_MSG(cfg.n > 0 && b > 0 && cfg.n % b == 0, "mm requires b | n");
  const long long nb = cfg.n / b;

  MmAnalyticReport rep;
  SystemParams solver_sys = sys;
  rep.partition = mm_partition_at(solver_sys, b, resolve_bf(sys, cfg, b));
  const MmPartition& part = rep.partition;

  const double b2 = static_cast<double>(b) * static_cast<double>(b);
  const double step_w = worker_step_seconds(sys, cfg, part, b);
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
    const long long k = sys.mm_fpga.pe_count;
    const double stripes = static_cast<double>(b) / static_cast<double>(k);
    const double dest = cfg.fanout == SendFanout::SerialAll
                            ? static_cast<double>(sys.p - 1)
                            : 1.0;
    const double s = stripes * part.t_comm_stripe * dest;
    const double ret = b2 * kWordBytes / sys.network.bytes_per_s;  // shares
    const double period = std::max(s, step_w);
    rep.run.seconds = s + static_cast<double>(steps) * period +
                      static_cast<double>(nb * nb) * ret + step_w;
    rep.run.bytes_on_network = static_cast<std::uint64_t>(
        static_cast<double>(steps) * 2.0 * b2 * kWordBytes *
            static_cast<double>(sys.p - 1) +
        static_cast<double>(nb * nb) * b2 * kWordBytes);
  }
  const double fpga_share =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : (cfg.mode == DesignMode::FpgaOnly
                 ? 1.0
                 : static_cast<double>(part.b_f) / static_cast<double>(b));
  rep.run.total_flops = 2.0 * n3;
  rep.run.fpga_flops = rep.run.total_flops * fpga_share;
  rep.run.cpu_flops = rep.run.total_flops - rep.run.fpga_flops;
  rep.run.fpga_busy_seconds =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  rep.run.cpu_busy_seconds = rep.run.seconds;  // root/worker CPUs stay hot
  return rep;
}

MmFunctionalResult mm_functional(const SystemParams& sys, const MmConfig& cfg,
                                 const Matrix& a, const Matrix& bmat,
                                 bool use_soft_fp,
                                 sim::TraceRecorder* trace) {
  const long long n = cfg.n;
  const long long b = cfg.b < 0 ? n : cfg.b;
  RCS_CHECK_MSG(n > 0 && b > 0 && n % b == 0, "mm requires b | n");
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(n) &&
                    a.cols() == static_cast<std::size_t>(n) &&
                    bmat.rows() == static_cast<std::size_t>(n) &&
                    bmat.cols() == static_cast<std::size_t>(n),
                "mm operands must be n x n");
  const long long nb = n / b;
  const long long b_f = resolve_bf(sys, cfg, b);
  const long long b_p = b - b_f;
  const MmPartition part = mm_partition_at(sys, b, b_f);
  const fpga::MatMulArray array(sys.mm_fpga);
  const long long k = sys.mm_fpga.pe_count;

  MmFunctionalResult res;
  res.partition = part;
  res.run.design = std::string("MM/") + to_string(cfg.mode) + "/functional";

  // ---- Single node: the [22] hybrid multiply, no network. ----
  if (sys.p == 1) {
    net::VirtualClock clock;
    sim::TraceRecorder local_trace(trace != nullptr && trace->enabled());
    node::ComputeNode node(sys.node_params_mm(), clock, &local_trace,
                           "node0");
    Matrix c(n, n);
    for (long long u = 0; u < nb; ++u) {
      for (long long v = 0; v < nb; ++v) {
        auto cuv = c.block(u * b, v * b, b, b);
        for (long long w = 0; w < nb; ++w) {
          auto auw = a.block(u * b, w * b, b, b);
          auto bwv = bmat.block(w * b, v * b, b, b);
          for (long long s = 0; s < b; s += k) {
            const long long ks = std::min(k, b - s);
            if (b_f > 0) {
              node.dram_to_fpga(
                  static_cast<std::uint64_t>((b_f * ks + ks * b) * 8));
              node.fpga_submit(static_cast<double>(array.cycles(b_f, ks, b)),
                               "mm");
            }
            if (b_p > 0) {
              node.cpu_compute(node::CpuKernel::Dgemm,
                               2.0 * static_cast<double>(b_p * ks * b), "mm");
            }
          }
          if (b_f > 0) {
            auto c_f = cuv.block(0, 0, b_f, b);
            if (use_soft_fp) {
              array.multiply_accumulate_soft(auw.block(0, 0, b_f, b), bwv,
                                             c_f);
            } else {
              array.multiply_accumulate(auw.block(0, 0, b_f, b), bwv, c_f);
            }
            node.note_fpga_flops(2.0 * static_cast<double>(b_f * b * b));
          }
          if (b_p > 0) {
            linalg::gemm(auw.block(b_f, 0, b_p, b), bwv,
                         cuv.block(b_f, 0, b_p, b));
          }
          if (b_f > 0) node.fpga_wait();
        }
      }
    }
    if (trace != nullptr) trace->merge_from(std::move(local_trace));
    res.c = std::move(c);
    res.run.seconds = clock.now();
    res.run.cpu_busy_seconds = node.cpu_busy_total();
    res.run.fpga_busy_seconds = node.fpga_busy_total();
    res.run.cpu_flops = node.cpu_flops_total();
    res.run.fpga_flops = node.fpga_flops_total();
    res.run.coordination_events = node.coordination_events();
    res.run.total_flops = res.run.cpu_flops + res.run.fpga_flops;
    return res;
  }

  // ---- Distributed: rank 0 hosts A/B/C, workers hold running column
  // shares of each block product in on-board SRAM across the nb inner
  // steps, exactly like the streaming accumulation of [21]. ----
  const int p = sys.p;
  const int workers = p - 1;
  net::World world(p, sys.network);
  Matrix c(n, n);
  struct Stats {
    sim::SimTime finish = 0.0;
    double cpu_busy = 0.0, fpga_busy = 0.0, cpu_flops = 0.0, fpga_flops = 0.0;
    std::uint64_t bytes = 0, coord = 0;
  };
  std::vector<Stats> stats(static_cast<std::size_t>(p));
  std::vector<sim::TraceRecorder> rank_traces(
      static_cast<std::size_t>(p),
      sim::TraceRecorder(trace != nullptr && trace->enabled()));

  world.run([&](net::Comm& comm) {
    const int me = comm.rank();
    node::ComputeNode node(sys.node_params_mm(), comm.clock(),
                           &rank_traces[static_cast<std::size_t>(me)],
                           "node" + std::to_string(me));
    if (me == 0) {
      long long task = 0;
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v < nb; ++v, ++task) {
          for (long long w = 0; w < nb; ++w) {
            // Packed once, sent to every worker.
            const net::Payload ab =
                net::pack_matrix(a.block(u * b, w * b, b, b));
            const net::Payload bb =
                net::pack_matrix(bmat.block(w * b, v * b, b, b));
            for (int r = 1; r < p; ++r) {
              comm.send_payload(r, make_tag(Chan::ABlock, task, w), ab);
              comm.send_payload(r, make_tag(Chan::BBlock, task, w), bb);
            }
          }
          for (int r = 1; r < p; ++r) {
            const auto [c0, c1] = worker_columns(b, workers, r - 1);
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
      const auto [c0, c1] = worker_columns(b, workers, me - 1);
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
            auto bshare = bblk.block(0, c0, b, cw);
            for (long long s = 0; s < b; s += k) {
              const long long ks = std::min(k, b - s);
              if (b_f > 0) {
                node.dram_to_fpga(
                    static_cast<std::uint64_t>((b_f * ks + ks * cw) * 8));
                node.fpga_submit(
                    static_cast<double>(array.cycles(b_f, ks, cw)), "mm");
              }
              if (b_p > 0) {
                node.cpu_compute(node::CpuKernel::Dgemm,
                                 2.0 * static_cast<double>(b_p * ks * cw),
                                 "mm");
              }
            }
            if (b_f > 0) {
              auto e_f = e.block(0, 0, b_f, cw);
              if (use_soft_fp) {
                array.multiply_accumulate_soft(ablk.block(0, 0, b_f, b),
                                               bshare, e_f);
              } else {
                array.multiply_accumulate(ablk.block(0, 0, b_f, b), bshare,
                                          e_f);
              }
              node.note_fpga_flops(2.0 * static_cast<double>(b_f * b * cw));
            }
            if (b_p > 0) {
              linalg::gemm(ablk.block(b_f, 0, b_p, b), bshare,
                           e.block(b_f, 0, b_p, cw));
            }
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
    Stats& st = stats[static_cast<std::size_t>(me)];
    st.finish = comm.clock().now();
    st.cpu_busy = node.cpu_busy_total();
    st.fpga_busy = node.fpga_busy_total();
    st.cpu_flops = node.cpu_flops_total();
    st.fpga_flops = node.fpga_flops_total();
    st.bytes = comm.bytes_sent();
    st.coord = node.coordination_events();
  });

  if (trace != nullptr) {
    for (auto& rt : rank_traces) trace->merge_from(std::move(rt));
  }
  res.c = std::move(c);
  for (const Stats& st : stats) {
    res.run.seconds = std::max(res.run.seconds, st.finish);
    res.run.cpu_busy_seconds += st.cpu_busy;
    res.run.fpga_busy_seconds += st.fpga_busy;
    res.run.cpu_flops += st.cpu_flops;
    res.run.fpga_flops += st.fpga_flops;
    res.run.bytes_on_network += st.bytes;
    res.run.coordination_events += st.coord;
  }
  res.run.total_flops = res.run.cpu_flops + res.run.fpga_flops;
  return res;
}

}  // namespace rcs::core
