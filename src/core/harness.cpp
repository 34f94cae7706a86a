#include "core/harness.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/partition.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "net/matrix_channel.hpp"

namespace rcs::core {

void end_timed(Rank& rank, RankTotals& out) {
  net::Comm& comm = rank.comm;
  comm.set_trace(nullptr);
  RunReport& run = out.run;
  run.seconds = comm.clock().now();
  run.cpu_busy_seconds = rank.node.cpu_busy_total();
  run.fpga_busy_seconds = rank.node.fpga_busy_total();
  run.cpu_flops = rank.node.cpu_flops_total();
  run.fpga_flops = rank.node.fpga_flops_total();
  run.bytes_on_network = comm.bytes_sent();
  run.coordination_events = rank.node.coordination_events();
  out.overlap = comm.overlap_stats();
  out.faults += comm.fault_stats();  // link/crash/timeout side of the plan
}

RankTotals fold_totals(const std::vector<RankTotals>& ranks) {
  RankTotals totals;
  RunReport& run = totals.run;
  for (const RankTotals& r : ranks) {
    run.seconds = std::max(run.seconds, r.run.seconds);
    run.cpu_busy_seconds += r.run.cpu_busy_seconds;
    run.fpga_busy_seconds += r.run.fpga_busy_seconds;
    run.cpu_flops += r.run.cpu_flops;
    run.fpga_flops += r.run.fpga_flops;
    run.bytes_on_network += r.run.bytes_on_network;
    run.coordination_events += r.run.coordination_events;
    for (const auto& [ph, os] : r.overlap) totals.overlap[ph] += os;
    totals.faults += r.faults;
  }
  run.total_flops = run.cpu_flops + run.fpga_flops;
  return totals;
}

void fan_out(net::Comm& comm,
             std::initializer_list<std::pair<int, const net::Payload&>> msgs,
             bool dma) {
  for (int r = 0; r < comm.size(); ++r) {
    if (r == comm.rank()) continue;
    for (const auto& [tag, payload] : msgs) {
      if (dma) {
        comm.isend_payload(r, tag, payload);
      } else {
        comm.send_payload(r, tag, payload);
      }
    }
  }
}

BlockMap distribute_blocks(const linalg::Matrix& a, long long b, int p,
                           int rank, bool lower) {
  const long long nb = static_cast<long long>(a.rows()) / b;
  BlockMap blocks;
  for (long long u = 0; u < nb; ++u) {
    for (long long v = 0; v <= (lower ? u : nb - 1); ++v) {
      if (owner_of(u, v, p) == rank) {
        blocks.emplace(std::make_pair(u, v),
                       linalg::Matrix::from_view(a.block(u * b, v * b, b, b)));
      }
    }
  }
  return blocks;
}

linalg::Matrix& owned_block(BlockMap& blocks, int rank, long long u,
                            long long v) {
  auto it = blocks.find({u, v});
  RCS_CHECK_MSG(it != blocks.end(), "rank " << rank << " missing block ("
                                            << u << "," << v << ")");
  return it->second;
}

void gather_blocks(net::Comm& comm, BlockMap& blocks, long long b, int p,
                   bool lower, int chan, linalg::Matrix& out) {
  const long long nb = static_cast<long long>(out.rows()) / b;
  if (comm.rank() != 0) {
    for (auto& [key, block] : blocks) {
      net::send_matrix(comm, 0, block_tag(chan, 0, key.first * nb + key.second),
                       block.view());
    }
    return;
  }
  for (long long u = 0; u < nb; ++u) {
    for (long long v = 0; v <= (lower ? u : nb - 1); ++v) {
      const int o = owner_of(u, v, p);
      linalg::Matrix block =
          o == 0 ? std::move(owned_block(blocks, 0, u, v))
                 : net::recv_matrix(comm, o, block_tag(chan, 0, u * nb + v));
      linalg::copy(block.view(), out.block(u * b, v * b, b, b));
    }
  }
}

void hybrid_block_product(node::ComputeNode& node,
                          const fpga::MatMulArray& mm, Span2D<const double> c,
                          Span2D<const double> d, Span2D<double> e,
                          long long b_f, bool soft_fp, bool d_transposed,
                          const char* label) {
  const long long k = node.fpga_device().pe_count;
  const long long inner = static_cast<long long>(c.cols());
  const long long cw = static_cast<long long>(e.cols());
  const long long b_p = static_cast<long long>(e.rows()) - b_f;
  // Timing: stream the k-wide stripes; the FPGA pipelines behind the DRAM
  // stream while the CPU computes its own rows.
  for (long long s = 0; s < inner; s += k) {
    const long long ks = std::min(k, inner - s);
    if (b_f > 0) {
      node.dram_to_fpga(static_cast<std::uint64_t>((b_f * ks + ks * cw) * 8));
      node.fpga_submit(static_cast<double>(mm.cycles(b_f, ks, cw)), label);
    }
    if (b_p > 0) {
      node.cpu_compute(node::CpuKernel::Dgemm,
                       2.0 * static_cast<double>(b_p * ks * cw), label);
    }
  }
  // Functional compute (order-identical to the stripe stream).
  if (b_f > 0) {
    const auto c_f = c.block(0, 0, b_f, inner);
    const auto e_f = e.block(0, 0, b_f, cw);
    if (d_transposed) {
      if (soft_fp) {
        mm.multiply_accumulate_nt_soft(c_f, d, e_f);
      } else {
        mm.multiply_accumulate_nt(c_f, d, e_f);
      }
    } else if (soft_fp) {
      mm.multiply_accumulate_soft(c_f, d, e_f);
    } else {
      mm.multiply_accumulate(c_f, d, e_f);
    }
    node.note_fpga_flops(2.0 * static_cast<double>(b_f * inner * cw));
  }
  if (b_p > 0) {
    const auto c_p = c.block(b_f, 0, b_p, inner);
    const auto e_p = e.block(b_f, 0, b_p, cw);
    if (d_transposed) {
      linalg::gemm_nt(c_p, d, e_p);
    } else {
      linalg::gemm(c_p, d, e_p);
    }
  }
}

}  // namespace rcs::core
