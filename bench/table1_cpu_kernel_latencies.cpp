// Table 1 reproduction: routines and latencies of the LU panel operations on
// one processor at b = 3000 (opLU = dgetrf, opL = opU = dtrsm).
//
// Two layers are reported:
//   * the calibrated GPP model at the paper's scale (what every other bench
//     uses), and
//   * a host-measured validation at a smaller block size, demonstrating the
//     functional kernels behind the model (absolute rates differ from a
//     2.2 GHz Opteron running ACML, and so does the opLU : opL ratio; the
//     model keeps the paper's).

#include <chrono>
#include <iostream>

#include "common/table.hpp"
#include "core/partition.hpp"
#include "core/system.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"

using namespace rcs;

namespace {

double time_once(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

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
  std::cout << "\n";

  // Host-measured validation of the functional kernels at b = 512.
  const std::size_t bv = 512;
  linalg::Matrix a = linalg::diagonally_dominant(bv, 1);
  linalg::Matrix panel = a;
  const double t_lu =
      time_once([&] { linalg::getrf_unblocked(panel.view()); });

  linalg::Matrix tri = panel;  // factored: use its triangles
  linalg::Matrix rhs = linalg::random_matrix(bv, bv, 2);
  const double t_opu =
      time_once([&] { linalg::trsm_left_lower_unit(tri.view(), rhs.view()); });
  // All three kernels are blocked: each 32-column block is solved by a
  // scalar loop and the rest is one packed-gemm update. The two solves also
  // split their independent rows (opL) or columns (opU) across the pool,
  // while getrf's column blocks form a serial chain, so opL runs several
  // times faster than opLU here: the host ratio below does not show the
  // paper's opL > opLU shape, which the calibrated model keeps.
  linalg::Matrix rhs2 = linalg::random_matrix(bv, bv, 3);
  const double t_opl =
      time_once([&] { linalg::trsm_right_upper(tri.view(), rhs2.view()); });

  Table host("Host-measured functional kernels (b = 512, this machine)");
  host.set_header({"Operation", "Kernel", "Latency", "Rate"});
  const double b3 = double(bv) * bv * bv;
  host.add_row({"opLU", "getrf_unblocked", Table::seconds(t_lu),
                Table::num((2.0 / 3.0) * b3 / t_lu / 1e9, 3) + " GFLOPS"});
  host.add_row({"opL", "trsm_right_upper", Table::seconds(t_opl),
                Table::num(b3 / t_opl / 1e9, 3) + " GFLOPS"});
  host.add_row({"opU", "trsm_left_lower_unit", Table::seconds(t_opu),
                Table::num(b3 / t_opu / 1e9, 3) + " GFLOPS"});
  host.print(std::cout);

  std::cout << "\nShape check: opL/opU slower than opLU (paper: 7.1 vs 4.9), "
            << "model ratio = " << Table::num(pt.t_opl / pt.t_lu, 3)
            << ", host ratio = " << Table::num(t_opl / t_lu, 3) << "\n";
  return 0;
}
