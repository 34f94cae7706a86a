// Example: all-pairs shortest paths on a road-network-like graph through
// the hybrid Floyd–Warshall design — the paper's second application.
//
// Builds a grid "city" with highway shortcuts, runs the distributed hybrid
// design, answers a few routing queries (with path reconstruction from the
// reference algorithm), and compares the three design variants' simulated
// time.
//
//   ./shortest_paths [--rows 8] [--cols 8] [--b 8] [--p 4]

#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/rcs.hpp"

using namespace rcs;

namespace {

int run(int argc, char** argv) {
  Cli cli("All-pairs shortest paths over the hybrid Floyd-Warshall design");
  cli.add_int("rows", 8, "grid rows");
  cli.add_int("cols", 8, "grid columns");
  cli.add_int("b", 8, "block size");
  cli.add_int("p", 4, "simulated nodes (b*p must divide rows*cols)");
  if (!cli.parse(argc, argv)) return 0;

  const std::size_t rows = cli.get_int("rows");
  const std::size_t cols = cli.get_int("cols");
  const long long n = static_cast<long long>(rows * cols);
  const long long b = cli.get_int("b");
  const int p = static_cast<int>(cli.get_int("p"));

  const core::SystemParams sys =
      core::SystemParams::cray_xd1().with_nodes(p);
  const linalg::Matrix d0 = graph::grid_road_network(rows, cols, 77);

  std::cout << "City grid " << rows << "x" << cols << " (" << n
            << " intersections) with highway shortcuts; " << p
            << " nodes (" << sys.name << ")\n\n";

  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;
  const auto res = core::fw_functional(sys, cfg, d0);
  std::cout << "Hybrid design: l1 = " << res.partition.l1 << " block tasks "
            << "per phase on the CPU, l2 = " << res.partition.l2
            << " on the FPGA (Eq. 6)\n"
            << "Simulated latency " << res.run.seconds << " s, "
            << res.run.gflops() << " GFLOPS\n\n";

  // Routing queries, with paths from the blocked next-hop matrix (same
  // blocked operation order as the hybrid design, so distances match it
  // bit for bit).
  linalg::Matrix dist_ref = d0;
  std::vector<std::size_t> next;
  graph::blocked_floyd_warshall_with_paths(dist_ref, b, next);

  Table q("Sample routes (corner to corner and crosstown)");
  q.set_header({"from", "to", "distance", "hops", "matches hybrid result"});
  const std::size_t corners[4] = {0, cols - 1, (rows - 1) * cols,
                                  rows * cols - 1};
  for (int i = 0; i < 3; ++i) {
    const std::size_t from = corners[i];
    const std::size_t to = corners[3 - i];
    const auto path = graph::reconstruct_path(next, n, from, to);
    q.add_row({Table::num((long long)from), Table::num((long long)to),
               Table::num(res.distances(from, to), 4),
               Table::num((long long)path.size() - 1),
               res.distances(from, to) == dist_ref(from, to) ? "yes" : "NO"});
  }
  q.print(std::cout);

  Table t("\nDesign variants");
  t.set_header({"design", "latency (sim)", "GFLOPS", "vs hybrid"});
  for (auto mode : {core::DesignMode::Hybrid, core::DesignMode::ProcessorOnly,
                    core::DesignMode::FpgaOnly}) {
    core::FwConfig c = cfg;
    c.mode = mode;
    const auto r = core::fw_functional(sys, c, d0);
    t.add_row({core::to_string(mode), Table::seconds(r.run.seconds),
               Table::num(r.run.gflops(), 4),
               Table::num(r.run.seconds / res.run.seconds, 3) + "x"});
  }
  t.print(std::cout);

  std::cout << "\nFor this kernel the FPGA is ~10x the processor, so the\n"
               "FPGA-only baseline is close to the hybrid and the\n"
               "processor-only baseline is far behind — Fig. 9's shape.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main("shortest_paths", run, argc, argv);
}
