#include "core/fw_analytic.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcs::core {

namespace {

/// One node's latency for a wave of l1 CPU tasks and l2 FPGA tasks. The
/// FPGA tasks are streamed first (the CPU is busy for T_mem per task, the
/// FPGA pipelines behind the stream), then the CPU runs its own tasks.
double wave_seconds(const FwPartition& part) {
  double cpu = 0.0;
  double fpga = 0.0;
  for (long long i = 0; i < part.l2; ++i) {
    cpu += part.t_mem;
    fpga = std::max(fpga, cpu) + part.t_f;
  }
  cpu += static_cast<double>(part.l1) * part.t_p;
  return std::max(cpu, fpga);
}

}  // namespace

FwAnalyticReport fw_analytic(const SystemParams& sys, const FwConfig& cfg) {
  check_fw_config(sys, cfg.n, cfg.b);

  FwAnalyticReport rep;
  rep.partition = fw_partition_at(
      sys, cfg.n, cfg.b, resolve_l1(sys, cfg.mode, cfg.n, cfg.b, cfg.l1));
  const FwPartition& part = rep.partition;

  const long long nb = cfg.n / cfg.b;
  const long long iterations =
      cfg.max_iterations >= 0 ? std::min<long long>(cfg.max_iterations, nb)
                              : nb;
  const double b2 = static_cast<double>(cfg.b) * static_cast<double>(cfg.b);
  const double b3 = b2 * static_cast<double>(cfg.b);
  // Broadcast of one b x b block from the owner to the other nodes:
  // root-serialized (§4.3) or binomial-tree when enabled.
  int tree_rounds = 0;
  while ((1 << tree_rounds) < sys.p) ++tree_rounds;
  const double bcast_hops =
      cfg.tree_bcast ? static_cast<double>(tree_rounds)
                     : static_cast<double>(sys.p - 1);
  const double bcast = bcast_hops * b2 * kWordBytes /
                       sys.network.bytes_per_s;
  // op1 runs on whichever side the mode assigns whole tasks to by default.
  const double t_op1 = cfg.mode == DesignMode::FpgaOnly
                           ? part.t_mem + part.t_f
                           : part.t_p;
  const double wave = wave_seconds(part);

  rep.run.design = std::string("FW/") + to_string(cfg.mode);
  double now = 0.0;

  for (long long t = 0; t < iterations; ++t) {
    const double iter_start = now;
    // Phase 0: op1 on the owner, broadcast of D_tt.
    double owner_free = now + t_op1 + bcast;
    double worker_free = owner_free;  // workers gated on the D_tt arrival
    double data_ready = owner_free;

    // Wave 0 is the op21 wave; waves 1..nb-1 are op3 waves. The owner's
    // wave w < nb-1 contains the next op22, broadcast when the wave ends.
    for (long long w = 0; w < nb; ++w) {
      const double owner_end = owner_free + wave;
      double next_data = data_ready;
      double owner_next = owner_end;
      if (w < nb - 1) {
        owner_next = owner_end + bcast;
        next_data = owner_next;
      }
      const double worker_start = std::max(worker_free, data_ready);
      worker_free = worker_start + wave;
      owner_free = owner_next;
      data_ready = next_data;
    }
    now = std::max(owner_free, worker_free);
    rep.iteration_seconds.push_back(now - iter_start);
    rep.owner_busy_seconds += owner_free - iter_start;
    rep.worker_busy_seconds += worker_free - iter_start;

    // Flop accounting: (nb waves) x (ops_per_phase tasks) per node x p nodes
    // plus op1 — in total (nb^2) block tasks per iteration.
    const double tasks = static_cast<double>(nb) * static_cast<double>(nb);
    const double total = tasks * 2.0 * b3;
    double fpga_share = 0.0;
    if (cfg.mode == DesignMode::FpgaOnly) {
      fpga_share = 1.0;
    } else if (cfg.mode == DesignMode::Hybrid) {
      fpga_share = static_cast<double>(part.l2) /
                   static_cast<double>(part.ops_per_phase);
    }
    rep.run.fpga_flops += total * fpga_share;
    rep.run.cpu_flops += total * (1.0 - fpga_share);
    rep.run.bytes_on_network += static_cast<std::uint64_t>(
        static_cast<double>(nb) * static_cast<double>(sys.p - 1) * b2 *
        kWordBytes);
    rep.run.coordination_events += static_cast<std::uint64_t>(
        2 * part.l2 * nb * sys.p);
  }

  rep.run.seconds = now;
  rep.run.total_flops = rep.run.cpu_flops + rep.run.fpga_flops;
  rep.run.cpu_busy_seconds =
      rep.owner_busy_seconds +
      rep.worker_busy_seconds * static_cast<double>(sys.p - 1);
  rep.run.fpga_busy_seconds =
      rep.run.fpga_flops / sys.fw_fpga.peak_flops();
  return rep;
}

}  // namespace rcs::core
