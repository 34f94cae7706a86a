// Example: a general experiment driver — every application, design variant
// and simulation plane of the library behind one command line. Useful for
// scripting sweeps beyond the canned benches.
//
//   ./experiment_runner --app lu --mode hybrid --plane analytic
//                       --n 30000 --b 3000 --p 6
//   ./experiment_runner --app fw --mode fpga --plane functional
//                       --n 96 --b 8 --p 4 --seed 7
//   ./experiment_runner --app chol --mode cpu    --plane analytic --csv
//   ./experiment_runner --app mm   --mode hybrid --plane functional --n 64
//
// Prints one row of results (or CSV with --csv) so runs compose in shell
// loops; functional runs also verify the numerical result against the
// sequential reference and fail loudly on any mismatch. A configuration the
// library rejects (say, b not dividing n) prints the reason to stderr and
// exits with status 2.

#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/drift.hpp"
#include "core/rcs.hpp"

using namespace rcs;
using core::DesignMode;

namespace {

DesignMode parse_mode(const std::string& s) {
  if (s == "hybrid") return DesignMode::Hybrid;
  if (s == "cpu") return DesignMode::ProcessorOnly;
  if (s == "fpga") return DesignMode::FpgaOnly;
  RCS_CHECK_MSG(false, "unknown --mode '" << s << "' (hybrid|cpu|fpga)");
  return DesignMode::Hybrid;
}

struct Row {
  core::RunReport run;
  std::string verified = "-";
};

int run(int argc, char** argv) {
  Cli cli("rcs-codesign experiment driver");
  cli.add_string("app", "lu", "application: lu | fw | chol | mm");
  cli.add_string("mode", "hybrid", "design: hybrid | cpu | fpga");
  cli.add_string("plane", "analytic", "plane: analytic | functional");
  cli.add_string("machine", "xd1", "machine preset: xd1 | xt3 | rasc");
  cli.add_int("n", 0, "problem size (0: a sensible default per plane)");
  cli.add_int("b", 0, "block size (0: default)");
  cli.add_int("p", 0, "nodes (0: preset default)");
  cli.add_int("bf", -1, "override b_f (-1: solve)");
  cli.add_int("l", -1, "override l / l1 (-1: solve)");
  cli.add_int("seed", 1, "workload seed (functional)");
  cli.add_bool("csv", false, "emit CSV instead of a table");
  cli.add_bool("drift", false,
               "functional lu/fw only: also print the per-phase predicted vs "
               "simulated vs measured drift report");
  if (!cli.parse(argc, argv)) return 0;
  const std::string app = cli.get_string("app");
  const std::string mode_name = cli.get_string("mode");
  const std::string plane = cli.get_string("plane");
  const std::string machine = cli.get_string("machine");
  long long n = cli.get_int("n");
  long long b = cli.get_int("b");
  const long long p = cli.get_int("p");
  const long long bf = cli.get_int("bf");
  const long long l = cli.get_int("l");
  const std::uint64_t seed = cli.get_int("seed");
  const bool csv = cli.get_bool("csv");
  const bool drift = cli.get_bool("drift");

  const DesignMode mode = parse_mode(mode_name);
  const bool functional = plane == "functional";
  RCS_CHECK_MSG(functional || plane == "analytic",
                "unknown --plane '" << plane << "'");
  RCS_CHECK_MSG(!drift || (functional && (app == "lu" || app == "fw")),
                "--drift needs --plane functional and --app lu|fw");

  core::SystemParams sys = core::SystemParams::cray_xd1();
  if (machine == "xt3") sys = core::SystemParams::cray_xt3_drc();
  if (machine == "rasc") sys = core::SystemParams::sgi_rasc();
  if (p > 0) sys.p = static_cast<int>(p);

  Row row;

  if (app == "lu" || app == "chol") {
    if (b == 0) b = functional ? 16 : 3000;
    if (n == 0) n = functional ? b * 4 : b * 10;
    if (app == "lu") {
      core::LuConfig cfg;
      cfg.n = n; cfg.b = b; cfg.mode = mode;
      cfg.b_f = bf;
      cfg.l = static_cast<int>(l);
      if (functional) {
        const auto a = linalg::diagonally_dominant(n, seed);
        auto ref = a;
        linalg::getrf_blocked(ref.view(), b);
        const auto res = core::lu_functional(sys, cfg, a);
        row.run = res.run;
        row.verified = linalg::bit_equal(res.factored.view(), ref.view())
                           ? "bit-exact" : "MISMATCH";
        RCS_CHECK_MSG(row.verified == "bit-exact", "LU verification failed");
      } else {
        row.run = core::lu_analytic(sys, cfg).run;
      }
    } else {
      core::CholConfig cfg;
      cfg.n = n; cfg.b = b; cfg.mode = mode;
      cfg.b_f = bf;
      cfg.l = static_cast<int>(l);
      if (functional) {
        const auto a = linalg::spd_matrix(n, seed);
        auto ref = a;
        linalg::potrf_blocked(ref.view(), b);
        const auto res = core::cholesky_functional(sys, cfg, a);
        row.run = res.run;
        row.verified = linalg::bit_equal(res.factored.view(), ref.view())
                           ? "bit-exact" : "MISMATCH";
        RCS_CHECK_MSG(row.verified == "bit-exact", "Cholesky verification failed");
      } else {
        row.run = core::cholesky_analytic(sys, cfg).run;
      }
    }
  } else if (app == "fw") {
    if (b == 0) b = functional ? 8 : 256;
    if (n == 0) n = functional ? b * sys.p * 3 : b * sys.p * 60;
    core::FwConfig cfg;
    cfg.n = n; cfg.b = b; cfg.mode = mode;
    cfg.l1 = l;
    if (functional) {
      const auto d0 = graph::random_digraph(n, seed, 0.5);
      auto ref = d0;
      graph::blocked_floyd_warshall(ref, b);
      const auto res = core::fw_functional(sys, cfg, d0);
      row.run = res.run;
      row.verified = linalg::bit_equal(res.distances.view(), ref.view())
                         ? "bit-exact" : "MISMATCH";
      RCS_CHECK_MSG(row.verified == "bit-exact", "FW verification failed");
    } else {
      row.run = core::fw_analytic(sys, cfg).run;
    }
  } else if (app == "mm") {
    if (b == 0) b = functional ? 32 : 3000;
    if (n == 0) n = functional ? b * 2 : b * 10;
    core::MmConfig cfg;
    cfg.n = n; cfg.b = b; cfg.mode = mode;
    cfg.b_f = bf;
    if (functional) {
      const auto a = linalg::random_matrix(n, n, seed);
      const auto bm = linalg::random_matrix(n, n, seed + 1);
      linalg::Matrix ref(n, n);
      linalg::gemm(a.view(), bm.view(), ref.view());
      const auto res = core::mm_functional(sys, cfg, a, bm);
      row.run = res.run;
      row.verified = linalg::bit_equal(res.c.view(), ref.view())
                         ? "bit-exact" : "MISMATCH";
      RCS_CHECK_MSG(row.verified == "bit-exact", "MM verification failed");
    } else {
      row.run = core::mm_analytic(sys, cfg).run;
    }
  } else {
    RCS_CHECK_MSG(false, "unknown --app '" << app << "' (lu|fw|chol|mm)");
  }

  Table t;
  t.set_header({"app", "mode", "plane", "n", "b", "p", "latency (s)",
                "GFLOPS", "network bytes", "verified"});
  t.add_row({app, mode_name, plane, Table::num(n), Table::num(b),
             Table::num((long long)sys.p), Table::num(row.run.seconds, 6),
             Table::num(row.run.gflops(), 4),
             Table::num((long long)row.run.bytes_on_network), row.verified});
  if (csv) {
    t.print_csv(std::cout);
  } else {
    t.print(std::cout);
  }

  if (drift) {
    if (app == "lu") {
      core::LuConfig cfg;
      cfg.n = n; cfg.b = b; cfg.mode = mode;
      cfg.b_f = bf;
      cfg.l = static_cast<int>(l);
      const auto a = linalg::diagonally_dominant(n, seed);
      core::lu_drift_report(sys, cfg, a).print(std::cout);
    } else {
      core::FwConfig cfg;
      cfg.n = n; cfg.b = b; cfg.mode = mode;
      cfg.l1 = l;
      const auto d0 = graph::random_digraph(n, seed, 0.5);
      core::fw_drift_report(sys, cfg, d0).print(std::cout);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main("experiment_runner", run, argc, argv);
}
