#include "core/cholesky.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "net/matrix_channel.hpp"
#include "node/compute_node.hpp"

namespace rcs::core {

namespace {

using linalg::Matrix;

enum class Chan : int { CBlock = 1, DBlock = 2, EShare = 3, Gather = 4 };

int make_tag(Chan chan, long long t, long long j) {
  RCS_CHECK_MSG(t < (1 << 9) && j < (1 << 18), "tag space exceeded");
  return static_cast<int>((t << 21) | (j << 3) | static_cast<long long>(chan));
}

int owner_of(long long u, long long v, int p) {
  return static_cast<int>(std::min(u, v) % p);
}

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

std::pair<long long, long long> worker_columns(long long b, int workers,
                                               int w) {
  const long long base = b / workers;
  const long long rem = b % workers;
  const long long c0 = w * base + std::min<long long>(w, rem);
  return {c0, c0 + base + (w < rem ? 1 : 0)};
}

long long resolve_bf(const SystemParams& sys, const CholConfig& cfg) {
  if (cfg.b_f >= 0) return cfg.b_f;
  switch (cfg.mode) {
    case DesignMode::Hybrid: return solve_mm_partition(sys, cfg.b).b_f;
    case DesignMode::ProcessorOnly: return 0;
    case DesignMode::FpgaOnly: return cfg.b;
  }
  return 0;
}

double worker_opmm_seconds(const SystemParams& sys, const CholConfig& cfg,
                           const MmPartition& part) {
  const long long k = sys.mm_fpga.pe_count;
  const double stripes = static_cast<double>(cfg.b) / static_cast<double>(k);
  const double p1 = static_cast<double>(sys.p - 1);
  const double b3 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b) *
                    static_cast<double>(cfg.b);
  switch (cfg.mode) {
    case DesignMode::Hybrid:
      return stripes * part.stripe_period_seconds();
    case DesignMode::ProcessorOnly:
      return 2.0 * b3 / (p1 * sys.gpp.sustained(node::CpuKernel::Dgemm));
    case DesignMode::FpgaOnly:
      return stripes * std::max(part.t_f_stripe, part.t_mem_stripe);
  }
  return 0.0;
}

}  // namespace

CholAnalyticReport cholesky_analytic(const SystemParams& sys,
                                     const CholConfig& cfg) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "cholesky requires b | n");
  RCS_CHECK_MSG(sys.p >= 2, "the distributed design needs p >= 2");

  CholAnalyticReport rep;
  rep.partition = mm_partition_at(sys, cfg.b, resolve_bf(sys, cfg));
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
  const double w_opmm = worker_opmm_seconds(sys, cfg, rep.partition);
  const long long k = sys.mm_fpga.pe_count;
  const double dest = cfg.fanout == SendFanout::SerialAll
                          ? static_cast<double>(sys.p - 1)
                          : 1.0;
  const double s_opmm = static_cast<double>(cfg.b) / static_cast<double>(k) *
                        rep.partition.t_comm_stripe * dest;
  const double p1 = static_cast<double>(sys.p - 1);
  const double post =
      static_cast<double>(cfg.b) * (static_cast<double>(cfg.b) / p1) *
          kWordBytes / sys.network.bytes_per_s +
      (b2 / p1) / sys.gpp.sustained(node::CpuKernel::MemBound);
  const double fpga_share =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : (cfg.mode == DesignMode::FpgaOnly
                 ? 1.0
                 : static_cast<double>(rep.partition.b_f) /
                       static_cast<double>(cfg.b));

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
  rep.run.fpga_busy_seconds =
      cfg.mode == DesignMode::ProcessorOnly
          ? 0.0
          : rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  rep.run.cpu_busy_seconds = rep.run.seconds;
  return rep;
}

CholFunctionalResult cholesky_functional(const SystemParams& sys,
                                         const CholConfig& cfg,
                                         const Matrix& a, bool use_soft_fp,
                                         sim::TraceRecorder* trace) {
  RCS_CHECK_MSG(cfg.n > 0 && cfg.b > 0 && cfg.n % cfg.b == 0,
                "cholesky requires b | n");
  RCS_CHECK_MSG(a.rows() == static_cast<std::size_t>(cfg.n) &&
                    a.cols() == static_cast<std::size_t>(cfg.n),
                "input matrix shape mismatch");
  RCS_CHECK_MSG(sys.p >= 2, "the distributed design needs p >= 2");

  const long long n = cfg.n;
  const long long b = cfg.b;
  const long long nb = n / b;
  const int p = sys.p;
  const int workers = p - 1;
  const long long b_f = resolve_bf(sys, cfg);
  const long long b_p = b - b_f;
  const MmPartition part = mm_partition_at(sys, b, b_f);
  LuInterleave li = solve_lu_interleave(sys, b, part, cfg.fanout);
  const int l = cfg.l >= 0 ? cfg.l : li.l;
  const fpga::MatMulArray array(sys.mm_fpga);
  const long long k = sys.mm_fpga.pe_count;

  net::World world(p, sys.network);
  struct Stats {
    sim::SimTime finish = 0.0;
    double cpu_busy = 0.0, fpga_busy = 0.0, cpu_flops = 0.0, fpga_flops = 0.0;
    std::uint64_t bytes = 0, coord = 0;
  };
  std::vector<Stats> stats(static_cast<std::size_t>(p));
  std::vector<sim::TraceRecorder> rank_traces(
      static_cast<std::size_t>(p),
      sim::TraceRecorder(trace != nullptr && trace->enabled()));
  Matrix factored(n, n);

  world.run([&](net::Comm& comm) {
    const int me = comm.rank();
    node::ComputeNode node(sys.node_params_mm(), comm.clock(),
                           &rank_traces[static_cast<std::size_t>(me)],
                           "node" + std::to_string(me));

    // Initial distribution of the lower-triangle blocks (u >= v).
    std::map<std::pair<long long, long long>, Matrix> blocks;
    for (long long u = 0; u < nb; ++u) {
      for (long long v = 0; v <= u; ++v) {
        if (owner_of(u, v, p) == me) {
          blocks.emplace(std::make_pair(u, v),
                         Matrix::from_view(a.block(u * b, v * b, b, b)));
        }
      }
    }
    auto blk = [&](long long u, long long v) -> Matrix& {
      auto it = blocks.find({u, v});
      RCS_CHECK_MSG(it != blocks.end(), "rank " << me << " missing block ("
                                                << u << "," << v << ")");
      return it->second;
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
            for (int r = 0; r < p; ++r) {
              if (r == panel) continue;
              comm.send_payload(r, make_tag(Chan::CBlock, t, served), cb);
              comm.send_payload(r, make_tag(Chan::DBlock, t, served), db);
            }
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
        const int widx = me < panel ? me : me - 1;
        const auto [c0, c1] = worker_columns(b, workers, widx);
        const long long cw = c1 - c0;
        for (long long j = 0; j < total; ++j) {
          const auto [u, v] = order[static_cast<std::size_t>(j)];
          const net::MatrixMsg c =
              net::recv_matrix_view(comm, panel, make_tag(Chan::CBlock, t, j));
          const net::MatrixMsg d =
              net::recv_matrix_view(comm, panel, make_tag(Chan::DBlock, t, j));
          Matrix e(b, cw);
          // E[:, c0:c1) = C * D[c0:c1, :]^T — the worker's column share.
          auto dshare = d.block(c0, 0, cw, b);
          for (long long s = 0; s < b; s += k) {
            const long long ks = std::min(k, b - s);
            if (b_f > 0) {
              node.dram_to_fpga(
                  static_cast<std::uint64_t>((b_f * ks + ks * cw) * 8));
              node.fpga_submit(
                  static_cast<double>(array.cycles(b_f, ks, cw)), "opMM");
            }
            if (b_p > 0) {
              node.cpu_compute(node::CpuKernel::Dgemm,
                               2.0 * static_cast<double>(b_p * ks * cw),
                               "opMM");
            }
          }
          if (b_f > 0) {
            auto e_f = e.block(0, 0, b_f, cw);
            if (use_soft_fp) {
              array.multiply_accumulate_nt_soft(c.block(0, 0, b_f, b),
                                                dshare, e_f);
            } else {
              array.multiply_accumulate_nt(c.block(0, 0, b_f, b), dshare,
                                           e_f);
            }
            node.note_fpga_flops(2.0 * static_cast<double>(b_f * b * cw));
          }
          if (b_p > 0) {
            linalg::gemm_nt(c.block(b_f, 0, b_p, b), dshare,
                            e.block(b_f, 0, b_p, cw));
          }
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
            net::send_matrix(comm, dst, make_tag(Chan::EShare, t, j),
                             e.view());
          }
        }
      }

      for (long long j = 0; j < total; ++j) {
        const auto [u, v] = order[static_cast<std::size_t>(j)];
        if (owner_of(u, v, p) != me) continue;
        for (int r = 0; r < p; ++r) {
          if (r == panel || r == me) continue;
          const int widx = r < panel ? r : r - 1;
          const auto [c0, c1] = worker_columns(b, workers, widx);
          const net::MatrixMsg e =
              net::recv_matrix_view(comm, r, make_tag(Chan::EShare, t, j));
          linalg::matrix_sub(blk(u, v).block(0, c0, b, c1 - c0), e.view());
          node.cpu_compute(node::CpuKernel::MemBound,
                           static_cast<double>(b * (c1 - c0)), "opMS");
        }
      }
      comm.barrier();
    }

    Stats& st = stats[static_cast<std::size_t>(me)];
    st.finish = comm.clock().now();
    st.cpu_busy = node.cpu_busy_total();
    st.fpga_busy = node.fpga_busy_total();
    st.cpu_flops = node.cpu_flops_total();
    st.fpga_flops = node.fpga_flops_total();
    st.bytes = comm.bytes_sent();
    st.coord = node.coordination_events();

    // Untimed gather: lower-triangle blocks to rank 0; the upper triangle
    // keeps the input values (potrf semantics).
    if (me == 0) {
      linalg::copy(a.view(), factored.view());
      for (long long u = 0; u < nb; ++u) {
        for (long long v = 0; v <= u; ++v) {
          const int o = owner_of(u, v, p);
          Matrix block = o == 0 ? std::move(blk(u, v))
                                : net::recv_matrix(
                                      comm, o,
                                      make_tag(Chan::Gather, 0, u * nb + v));
          linalg::copy(block.view(), factored.block(u * b, v * b, b, b));
        }
      }
    } else {
      for (auto& [key, block] : blocks) {
        net::send_matrix(comm, 0,
                         make_tag(Chan::Gather, 0, key.first * nb + key.second),
                         block.view());
      }
    }
  });

  if (trace != nullptr) {
    for (auto& rt : rank_traces) trace->merge_from(std::move(rt));
  }
  CholFunctionalResult res;
  res.factored = std::move(factored);
  res.partition = part;
  res.l = l;
  res.run.design = std::string("CHOL/") + to_string(cfg.mode) + "/functional";
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
