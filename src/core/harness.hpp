#pragma once
// Internal building blocks of the four functional schedules (LU, FW,
// Cholesky, MM). Every schedule is the same master-worker run over a
// MiniMPI World; what differs is only the per-application message
// choreography. This header holds what they share:
//
//  * run_ranks — the rank harness: World and per-rank recorders, each
//    rank's ComputeNode, the timed compute body, the capture of the rank's
//    simulated totals, the untimed gather body, and the fold of the totals
//    into one RunReport.
//  * the frame-distributed block storage of LU and Cholesky: each rank's
//    owned blocks and their gather at rank 0.
//  * hybrid_block_product — the §5.1 opMM kernel: the k-wide stripe stream
//    charged to the node, FPGA rows through MatMulArray, CPU rows through
//    the host gemm.

#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/span2d.hpp"
#include "common/thread_pool.hpp"
#include "core/design.hpp"
#include "core/system.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/matrix.hpp"
#include "net/minimpi.hpp"
#include "node/compute_node.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

/// What a rank's bodies work with.
struct Rank {
  net::Comm& comm;
  node::ComputeNode& node;
  sim::TraceRecorder& trace;  // this rank's recorder (merged after the run)
  sim::FaultStats& faults;    // this rank's fault accounting
};

/// World-level switches of one run.
struct RankOptions {
  const sim::FaultPlan* faults = nullptr;  // null or empty: fault-free
  int max_workers = 0;                     // see World::set_max_workers
  std::vector<net::MessageEvent>* message_log = nullptr;  // filled if set
};

/// Simulated totals of one rank, or of a whole run.
struct RankTotals {
  RunReport run;  // every field but `design`
  std::map<std::string, net::OverlapStats> overlap;
  sim::FaultStats faults;  // node-side plus link/crash/timeout accounting
};

/// Close the timed part of a rank's run: record its totals into `out` and
/// detach comm tracing, so the untimed gather stays out of both.
void end_timed(Rank& rank, RankTotals& out);

/// Fold per-rank totals into the run's: the latest finish is the makespan,
/// everything else sums.
RankTotals fold_totals(const std::vector<RankTotals>& ranks);

/// Run one functional schedule on sys.p ranks. On each rank a fresh
/// `State` (the rank's own storage, e.g. its blocks) is handed first to
/// `compute`, the timed schedule, and then, once the rank's totals are
/// recorded, to `gather`, the untimed collection of results at rank 0. The
/// state dies with the rank.
template <class State, class Compute, class Gather>
RankTotals run_ranks(const SystemParams& sys, const node::NodeParams& params,
                     const RankOptions& opts, sim::TraceRecorder* trace,
                     const Compute& compute, const Gather& gather) {
  // Spawn the shared compute pool before the world runs: the rank fibers'
  // worker loops are hosted on its threads and every rank's kernels run
  // through it, so p ranks never oversubscribe the machine and never race
  // the pool's lazy construction.
  // Virtual-clock charges stay serial per rank, so simulated timings are
  // independent of RCS_THREADS.
  common::ThreadPool::global();
  // An empty plan is the fault-free path: the network and node layers skip
  // every fault branch when the installed plan is null.
  const sim::FaultPlan* plan =
      opts.faults != nullptr && !opts.faults->empty() ? opts.faults : nullptr;
  net::World world(sys.p, sys.network);
  world.set_message_logging(opts.message_log != nullptr);
  world.set_fault_plan(plan);
  world.set_max_workers(opts.max_workers);
  const auto p = static_cast<std::size_t>(sys.p);
  std::vector<sim::TraceRecorder> traces(
      p, sim::TraceRecorder(trace != nullptr && trace->enabled()));
  std::vector<RankTotals> totals(p);

  world.run([&](net::Comm& comm) {
    const auto me = static_cast<std::size_t>(comm.rank());
    node::ComputeNode node(params, comm.clock(), &traces[me],
                           "node" + std::to_string(me));
    node.set_faults(plan, comm.rank(), &totals[me].faults);
    Rank rank{comm, node, traces[me], totals[me].faults};
    State state{};
    compute(rank, state);
    end_timed(rank, totals[me]);
    gather(rank, state);
  });

  if (trace != nullptr) {
    for (auto& rt : traces) trace->merge_from(std::move(rt));
  }
  if (opts.message_log != nullptr) *opts.message_log = world.message_log();
  return fold_totals(totals);
}

/// Send each (tag, payload) of `msgs` to every other rank, destination by
/// destination in ascending order: over the NIC (isend) when `dma`, else
/// serialized on the CPU. The payloads are packed once by the caller; the
/// wire is charged per destination.
void fan_out(net::Comm& comm,
             std::initializer_list<std::pair<int, const net::Payload&>> msgs,
             bool dma);

/// Blocks a rank owns under the frame distribution (owner_of), keyed (u, v).
using BlockMap = std::map<std::pair<long long, long long>, linalg::Matrix>;

/// Copy out of `a` the b x b blocks that `rank` of `p` owns — every block
/// of the grid, or only the lower triangle (v <= u) when `lower`.
BlockMap distribute_blocks(const linalg::Matrix& a, long long b, int p,
                           int rank, bool lower);

/// Block (u, v) of `blocks`; throws naming `rank` when it is not there.
linalg::Matrix& owned_block(BlockMap& blocks, int rank, long long u,
                            long long v);

/// Untimed gather of block-distributed results into `out` at rank 0: every
/// other rank sends its blocks on channel `chan`, and rank 0 places each
/// block of the grid (lower triangle only when `lower`) in (u, v) order.
void gather_blocks(net::Comm& comm, BlockMap& blocks, long long b, int p,
                   bool lower, int chan, linalg::Matrix& out);

/// The hybrid block product e += c x d (e += c x d^T when `d_transposed`)
/// of one opMM share. Charges the k-wide stripe stream over the inner
/// dimension to `node` — per stripe, the DRAM->FPGA transfer and FPGA
/// submission of the b_f FPGA rows, then the CPU's dgemm on the rest —
/// and computes rows [0, b_f) of e through `mm` (its bit-accurate cores
/// when `soft_fp`) and the remaining rows through the host gemm. The
/// caller closes the §4.4 handshake (fpga_wait / read_fpga_results).
void hybrid_block_product(node::ComputeNode& node,
                          const fpga::MatMulArray& mm, Span2D<const double> c,
                          Span2D<const double> d, Span2D<double> e,
                          long long b_f, bool soft_fp, bool d_transposed,
                          const char* label);

}  // namespace rcs::core
