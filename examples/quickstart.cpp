// Quickstart: the whole library in one sitting.
//
//   1. Describe a reconfigurable computing system (or pick a preset).
//   2. Let the design model partition the workload (Eq. 4/5/6).
//   3. Run a hybrid design — functionally, on real data, over the MiniMPI
//      node runtime — and read back the simulated performance report.
//
//   ./quickstart [--n 96] [--b 24] [--p 4]

#include <iostream>

#include "common/cli.hpp"
#include "core/rcs.hpp"

using namespace rcs;

namespace {

int run(int argc, char** argv) {
  Cli cli("Quickstart for the rcs-codesign library");
  cli.add_int("n", 512, "matrix dimension (b must divide n)");
  cli.add_int("b", 128, "block size");
  cli.add_int("p", 4, "number of simulated nodes");
  if (!cli.parse(argc, argv)) return 0;
  const long long n = cli.get_int("n");
  const long long b = cli.get_int("b");
  const int p = static_cast<int>(cli.get_int("p"));

  // 1. A system: one Cray XD1 chassis, scaled to p nodes.
  core::SystemParams sys = core::SystemParams::cray_xd1().with_nodes(p);
  std::cout << "System: " << sys.name << " with " << sys.p << " nodes\n"
            << "  per node: dgemm " << sys.gpp.sustained(node::CpuKernel::Dgemm) / 1e9
            << " GFLOPS CPU + " << sys.mm_fpga.name << " ("
            << sys.mm_fpga.peak_flops() / 1e9 << " GFLOPS peak, B_d = "
            << sys.mm_fpga.dram_bytes_per_s / 1e9 << " GB/s)\n"
            << "  network: B_n = " << sys.network.bytes_per_s / 1e9
            << " GB/s\n\n";

  // 2. The design model picks the hardware/software split.
  core::LuConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const auto part = core::solve_mm_partition(sys, cfg.b);
  std::cout << "Eq. 4 partition for b = " << cfg.b << ": b_f = " << part.b_f
            << " rows to the FPGA, b_p = " << part.b_p
            << " to the processor\n";
  const auto li = core::solve_lu_interleave(sys, cfg.b, part,
                                            core::SendFanout::SerialAll);
  std::cout << "Eq. 5 interleave: serve l = " << li.l
            << " opMM tasks per panel operation\n\n";

  // 3. Factor a real matrix with the distributed hybrid design.
  const linalg::Matrix a = linalg::diagonally_dominant(cfg.n, /*seed=*/42);
  const auto res = core::lu_functional(sys, cfg, a);

  std::cout << "Hybrid LU on real data (" << cfg.n << "x" << cfg.n << "):\n"
            << "  residual ||A - LU||/||A|| = "
            << linalg::lu_residual(a.view(), res.factored.view()) << "\n"
            << "  simulated latency  = " << res.run.seconds << " s\n"
            << "  sustained          = " << res.run.gflops() << " GFLOPS\n"
            << "  CPU / FPGA flops   = " << res.run.cpu_flops << " / "
            << res.run.fpga_flops << "\n"
            << "  network traffic    = " << res.run.bytes_on_network
            << " bytes\n"
            << "  coordination events= " << res.run.coordination_events
            << "\n\n";

  // Compare against the two baselines, as the paper does.
  for (auto mode :
       {core::DesignMode::ProcessorOnly, core::DesignMode::FpgaOnly}) {
    core::LuConfig c = cfg;
    c.mode = mode;
    const auto r = core::lu_functional(sys, c, a);
    std::cout << "  " << core::to_string(mode) << " baseline: "
              << r.run.seconds << " s  ("
              << res.run.seconds / r.run.seconds << "x of hybrid's time)\n";
  }
  std::cout << "\nDone. Try bench/fig9_summary for the paper-scale numbers.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main("quickstart", run, argc, argv);
}
