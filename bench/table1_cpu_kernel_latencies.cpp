// Table 1 reproduction: routines and latencies of the LU panel operations on
// one processor at b = 3000 (opLU = dgetrf, opL = opU = dtrsm), from the
// calibrated GPP model every other bench uses. The output is a byte-stable
// artifact; the host kernels behind opLU/opL/opU (getrf_unblocked,
// trsm_right_upper, trsm_left_lower_unit) are timed by bench/perf_wallclock.

#include <iostream>

#include "common/table.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"

using namespace rcs;

int main() {
  const auto sys = core::SystemParams::cray_xd1();
  const long long b = 3000;
  const auto pt = core::panel_times(sys, b);

  Table model("Table 1 — Routines and latencies for LU panel operations "
              "(b = 3000, calibrated GPP model)");
  model.set_header({"Operation", "Routine", "Latency (paper)", "Latency (model)"});
  model.add_row({"opLU", "dgetrf", "4.9 s", Table::seconds(pt.t_lu)});
  model.add_row({"opL", "dtrsm", "7.1 s", Table::seconds(pt.t_opl)});
  model.add_row({"opU", "dtrsm", "7.1 s", Table::seconds(pt.t_opu)});
  model.print(std::cout);

  std::cout << "\nShape check: opL/opU slower than opLU (paper: 7.1 vs 4.9), "
            << "model ratio = " << Table::num(pt.t_opl / pt.t_lu, 3) << "\n";
  return 0;
}
