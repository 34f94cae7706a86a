#pragma once
// Umbrella header: the full public API of the rcs-codesign library.
//
// Quick tour:
//   core/system.hpp        — SystemParams + machine presets (Cray XD1, ...)
//   core/partition.hpp     — Eq. 1/2/4/5/6 workload-partition solvers
//   core/predict.hpp       — the §4.5 performance predictor
//   core/lu_analytic.hpp   — paper-scale LU schedule simulator
//   core/fw_analytic.hpp   — paper-scale Floyd–Warshall schedule simulator
//   core/lu_functional.hpp — real-data distributed LU over MiniMPI
//   core/fw_functional.hpp — real-data distributed FW over MiniMPI
//   core/mm.hpp, core/cholesky.hpp — the two extension applications
//   plus the substrates the designs run on: linalg/ (gemm, trsm, getrf,
//   potrf), graph/ (Floyd–Warshall), fpga/, node/, net/ (MiniMPI), sim/,
//   fparith/ and common/.

#include "core/cholesky.hpp"
#include "core/design.hpp"
#include "core/fw_analytic.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_analytic.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/partition.hpp"
#include "core/predict.hpp"
#include "core/system.hpp"
#include "fparith/backend.hpp"
#include "fparith/ieee754.hpp"
#include "fpga/device.hpp"
#include "fpga/fw_kernel.hpp"
#include "fpga/matmul_array.hpp"
#include "fpga/resources.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/matrix.hpp"
#include "net/contention.hpp"
#include "net/matrix_channel.hpp"
#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "node/gpp.hpp"
#include "sim/trace.hpp"
