// Example: execution tracing — watch where every simulated second goes.
//
// Runs the hybrid Floyd–Warshall design with tracing enabled, prints the
// per-resource utilization table (the paper's claim that the hybrid
// "utilizes the computing power of both the processors and the FPGAs
// efficiently", §7), and writes a Gantt-ready CSV of every busy interval.
//
//   ./trace_gantt [--n 96] [--b 8] [--p 4] [--csv trace.csv]

#include <fstream>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/rcs.hpp"

using namespace rcs;

namespace {

int run(int argc, char** argv) {
  Cli cli("Execution-trace export for the hybrid Floyd-Warshall design");
  cli.add_int("n", 96, "vertices (b*p must divide n)");
  cli.add_int("b", 8, "block size");
  cli.add_int("p", 4, "simulated nodes");
  cli.add_string("csv", "", "write the Gantt CSV here (empty: skip)");
  if (!cli.parse(argc, argv)) return 0;
  const long long n = cli.get_int("n");
  const long long b = cli.get_int("b");
  const int p = static_cast<int>(cli.get_int("p"));
  const std::string path = cli.get_string("csv");

  const core::SystemParams sys = core::SystemParams::cray_xd1().with_nodes(p);
  core::FwConfig cfg;
  cfg.n = n;
  cfg.b = b;
  cfg.mode = core::DesignMode::Hybrid;

  const linalg::Matrix d0 = graph::random_digraph(cfg.n, 5, 0.5);
  sim::TraceRecorder trace(true);
  const auto res = core::fw_functional(sys, cfg, d0, false, &trace);

  std::cout << "Hybrid FW on " << sys.p << " nodes: " << res.run.seconds
            << " simulated seconds, " << res.run.gflops() << " GFLOPS, "
            << trace.spans().size() << " trace spans\n\n";

  Table t("Per-resource utilization over the run");
  t.set_header({"resource", "busy", "utilization"});
  for (const auto& [resource, busy] : trace.busy_by_resource()) {
    t.add_row({resource, Table::seconds(busy),
               Table::num(100.0 * busy / res.run.seconds, 3) + "%"});
  }
  t.print(std::cout);

  if (!path.empty()) {
    std::ofstream out(path);
    trace.write_csv(out);
    std::cout << "\nGantt CSV written to " << path << " ("
              << trace.spans().size() << " rows: resource,start,end,label)\n";
  } else {
    std::cout << "\n(pass --csv trace.csv to export the Gantt data)\n";
  }

  // The same run replayed under explicit network links, for completeness.
  std::vector<net::MessageEvent> log;
  core::fw_functional(sys, cfg, d0, false, nullptr, &log);
  std::cout << "\nMessages sent during the run: " << log.size() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main("trace_gantt", run, argc, argv);
}
