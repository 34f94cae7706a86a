#include "core/lu_analytic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rcs::core {

LuAnalyticReport lu_analytic(const SystemParams& sys, const LuConfig& cfg) {
  check_lu_config(sys, cfg.n, cfg.b);

  LuAnalyticReport rep;
  rep.partition = mm_partition_at(sys, cfg.b,
                                  resolve_bf(sys, cfg.mode, cfg.b, cfg.b_f));
  rep.interleave =
      solve_lu_interleave(sys, cfg.b, rep.partition, cfg.fanout);
  int l = cfg.l >= 0 ? cfg.l : rep.interleave.l;
  rep.interleave.l = l;

  const PanelTimes pt = panel_times(sys, cfg.b);
  const long long nb = cfg.n / cfg.b;
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);
  const double b3 = b2 * static_cast<double>(cfg.b);

  // Per-opMM costs: one worker's share, the panel's stripe distribution,
  // the worker's E return plus amortized opMS, and flops/bytes summed over
  // the workers. Each worker returns its b x b/(p-1) slice of E to the
  // block owner.
  const MmPartition& part = rep.partition;
  const double worker_s = worker_opmm_seconds(sys, cfg.mode, part);
  const double sender_s = sender_opmm_seconds(sys, part, cfg.fanout);
  const double post_s = opmm_return_seconds(sys, cfg.b);
  const double opmm_fpga_flops = 2.0 * b3 * opmm_fpga_share(cfg.mode, part);
  const double opmm_cpu_flops = 2.0 * b3 - opmm_fpga_flops;
  const long long k = sys.mm_fpga.pe_count;
  const double stripes = static_cast<double>(cfg.b) / static_cast<double>(k);
  const std::uint64_t sender_bytes = static_cast<std::uint64_t>(
      stripes * 2.0 * static_cast<double>(cfg.b) * static_cast<double>(k) *
      kWordBytes * static_cast<double>(sys.p - 1));
  const std::uint64_t result_bytes =
      static_cast<std::uint64_t>(b2 * kWordBytes);

  rep.run.design = std::string("LU/") + to_string(cfg.mode);
  double now = 0.0;
  double panel_free = 0.0;   // lookahead mode: panel-node availability
  double worker_free = 0.0;  // lookahead mode: worker availability
  double diag_ready = 0.0;   // lookahead: when the next diagonal block lands

  for (long long t = 0; t < iterations; ++t) {
    const long long m = nb - 1 - t;  // trailing block rows/columns
    const double iter_start =
        cfg.lookahead ? std::max(panel_free, diag_ready) : now;
    double panel = iter_start;
    double worker = cfg.lookahead ? std::max(worker_free, iter_start) : now;
    bool first_opmm_recorded = false;

    // opLU on the panel node.
    panel += pt.t_lu;
    rep.run.cpu_flops += (2.0 / 3.0) * b3;

    // Panel pipeline: after each opL/opU pair for index i, opMMs with
    // max(u, v) == i become ready (2i - 1 of them); the panel node serves
    // up to l ready opMMs after each panel operation.
    long long ready = 0;
    long long served = 0;
    const long long total_opmm = m * m;
    auto serve = [&](long long count) {
      for (long long s = 0; s < count && served < ready; ++s) {
        panel += sender_s;  // distribute stripes
        const double start = std::max(worker, panel);
        worker = start + worker_s + post_s;
        if (!first_opmm_recorded) {
          // opMM #1 is (t+1, t+1): the next panel's diagonal block.
          diag_ready = worker;
          first_opmm_recorded = true;
        }
        ++served;
      }
    };
    for (long long i = 1; i <= m; ++i) {
      panel += pt.t_opl;
      if (l > 0) serve(l);
      panel += pt.t_opu;
      ready += 2 * i - 1;  // running total: i^2 opMMs ready after pair i
      if (l > 0) serve(l);
      rep.run.cpu_flops += 2.0 * b3;  // opL + opU
    }
    RCS_CHECK(ready == total_opmm);
    serve(total_opmm - served);  // drain whatever remains

    rep.run.cpu_flops += static_cast<double>(total_opmm) * opmm_cpu_flops;
    rep.run.fpga_flops += static_cast<double>(total_opmm) * opmm_fpga_flops;
    rep.run.cpu_flops += static_cast<double>(total_opmm) * b2;  // opMS
    rep.run.bytes_on_network += static_cast<std::uint64_t>(total_opmm) *
                                (sender_bytes + result_bytes);
    // Two coordination events (start + done) per stripe per worker node.
    if (cfg.mode != DesignMode::ProcessorOnly) {
      rep.run.coordination_events +=
          static_cast<std::uint64_t>(total_opmm) *
          static_cast<std::uint64_t>(cfg.b / k) * 2u *
          static_cast<std::uint64_t>(sys.p - 1);
    }

    if (cfg.lookahead) {
      // No barrier: the panel node frees up when its own work ends, the
      // workers keep draining; iteration t+1 gates only on the updated
      // diagonal block (recorded by the first opMM above).
      panel_free = panel;
      worker_free = worker;
      now = std::max(now, std::max(panel, worker));
      if (m == 0) diag_ready = panel;  // nothing to wait for afterwards
    } else {
      // Iteration barrier: the next panel depends on opMS-updated blocks.
      now = std::max(panel, worker);
    }
    rep.iteration_seconds.push_back(std::max(panel, worker) - iter_start);
    rep.panel_busy_seconds += panel - iter_start;
    rep.worker_busy_seconds += worker - iter_start;
  }

  rep.run.seconds = now;
  rep.run.total_flops = rep.run.cpu_flops + rep.run.fpga_flops;
  rep.run.cpu_busy_seconds = rep.panel_busy_seconds +
                             rep.worker_busy_seconds *
                                 static_cast<double>(sys.p - 1);
  rep.run.fpga_busy_seconds = rep.run.fpga_flops / sys.mm_fpga.peak_flops();
  return rep;
}

double lu_single_opmm_latency(const SystemParams& sys, long long b,
                              long long b_f, SendFanout fanout) {
  const DesignMode mode =
      b_f == 0 ? DesignMode::ProcessorOnly : DesignMode::Hybrid;
  const MmPartition part = mm_partition_at(sys, b, b_f);
  // One opMM with a cold pipeline: the workers start once the stripes are on
  // the wire, then compute.
  return sender_opmm_seconds(sys, part, fanout) +
         worker_opmm_seconds(sys, mode, part) + opmm_return_seconds(sys, b);
}

}  // namespace rcs::core
