#include "graph/floyd_warshall.hpp"

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace rcs::graph {

void floyd_warshall(Matrix& d) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "floyd_warshall: square matrix required");
  const std::size_t n = d.rows();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = d(i, k);
      if (dik == kNoEdge) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + d(k, j);
        if (via < d(i, j)) d(i, j) = via;
      }
    }
  }
}

void floyd_warshall_with_paths(Matrix& d, std::vector<std::size_t>& next_hop) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "floyd_warshall: square matrix required");
  const std::size_t n = d.rows();
  next_hop.assign(n * n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && d(i, j) != kNoEdge) next_hop[i * n + j] = j;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const double dik = d(i, k);
      if (dik == kNoEdge) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const double via = dik + d(k, j);
        if (via < d(i, j)) {
          d(i, j) = via;
          next_hop[i * n + j] = next_hop[i * n + k];
        }
      }
    }
  }
}

std::vector<std::size_t> reconstruct_path(
    const std::vector<std::size_t>& next_hop, std::size_t n, std::size_t i,
    std::size_t j) {
  RCS_CHECK_MSG(next_hop.size() == n * n, "reconstruct_path: bad next_hop size");
  RCS_CHECK_MSG(i < n && j < n, "reconstruct_path: vertex out of range");
  std::vector<std::size_t> path;
  if (i == j) {
    path.push_back(i);
    return path;
  }
  if (next_hop[i * n + j] == static_cast<std::size_t>(-1)) return path;
  std::size_t cur = i;
  path.push_back(cur);
  while (cur != j) {
    cur = next_hop[cur * n + j];
    path.push_back(cur);
    RCS_CHECK_MSG(path.size() <= n, "reconstruct_path: cycle detected");
  }
  return path;
}

void fw_block_with_next(Span2D<double> c, Span2D<const double> a,
                        Span2D<const double> b, Span2D<std::size_t> next_c,
                        Span2D<const std::size_t> next_a) {
  RCS_CHECK_MSG(a.cols() == b.rows() && c.rows() == a.rows() &&
                    c.cols() == b.cols(),
                "fw_block_with_next shape mismatch");
  RCS_CHECK_MSG(next_c.rows() == c.rows() && next_c.cols() == c.cols() &&
                    next_a.rows() == a.rows() && next_a.cols() == a.cols(),
                "fw_block_with_next next-hop shape mismatch");
  const std::size_t m = c.rows();
  const std::size_t n = c.cols();
  const std::size_t kk = a.cols();
  for (std::size_t k = 0; k < kk; ++k) {
    const double* bk = b.row(k);
    for (std::size_t i = 0; i < m; ++i) {
      const double aik = a(i, k);
      const std::size_t via = next_a(i, k);
      double* ci = c.row(i);
      for (std::size_t j = 0; j < n; ++j) {
        const double cand = aik + bk[j];
        if (cand < ci[j]) {
          ci[j] = cand;
          next_c(i, j) = via;
        }
      }
    }
  }
}

void blocked_floyd_warshall_with_paths(Matrix& d, std::size_t b,
                                       std::vector<std::size_t>& next_hop) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "square matrix required");
  const std::size_t n = d.rows();
  RCS_CHECK_MSG(b > 0 && n % b == 0,
                "block size " << b << " must divide n = " << n);
  next_hop.assign(n * n, static_cast<std::size_t>(-1));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && d(i, j) != kNoEdge) next_hop[i * n + j] = j;
    }
  }
  Span2D<std::size_t> next(next_hop.data(), n, n, n);
  const std::size_t nb = n / b;
  auto blk = [&](std::size_t u, std::size_t v) {
    return d.block(u * b, v * b, b, b);
  };
  auto nblk = [&](std::size_t u, std::size_t v) {
    return next.block(u * b, v * b, b, b);
  };
  for (std::size_t t = 0; t < nb; ++t) {
    fw_block_with_next(blk(t, t), blk(t, t), blk(t, t), nblk(t, t),
                       nblk(t, t));
    // Step-2 blocks touch disjoint (t,q) / (q,t) blocks and only read the
    // diagonal, so the q wave parallelizes block-for-block.
    common::parallel_for(0, nb, 1, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        if (q == t) continue;
        fw_block_with_next(blk(t, q), blk(t, t), blk(t, q), nblk(t, q),
                           nblk(t, t));
        fw_block_with_next(blk(q, t), blk(q, t), blk(t, t), nblk(q, t),
                           nblk(q, t));
      }
    });
    // Step-3 blocks (u,v) only read row t and column t: independent.
    common::parallel_for(0, nb, 1, [&](std::size_t u0, std::size_t u1) {
      for (std::size_t u = u0; u < u1; ++u) {
        if (u == t) continue;
        for (std::size_t v = 0; v < nb; ++v) {
          if (v == t) continue;
          fw_block_with_next(blk(u, v), blk(u, t), blk(t, v), nblk(u, v),
                             nblk(u, t));
        }
      }
    });
  }
}

void blocked_floyd_warshall(Matrix& d, std::size_t b) {
  RCS_CHECK_MSG(d.rows() == d.cols(), "square matrix required");
  const std::size_t n = d.rows();
  RCS_CHECK_MSG(b > 0 && n % b == 0,
                "block size " << b << " must divide n = " << n);
  const std::size_t nb = n / b;
  auto blk = [&](std::size_t u, std::size_t v) {
    return d.block(u * b, v * b, b, b);
  };
  // Grains sized by cost: one q item is two block tasks, one u item a row
  // of nb - 1; at small b a task takes microseconds, so grain 1 would spend
  // more time in the pool queue than in the kernel.
  const double task_flops =
      static_cast<double>(fw_block_flops(static_cast<long long>(b)));
  const std::size_t q_grain = common::grain_for_flops(2.0 * task_flops);
  const std::size_t u_grain = common::grain_for_flops(
      static_cast<double>(nb - 1) * task_flops);
  for (std::size_t t = 0; t < nb; ++t) {
    // Step 1 (op1): diagonal block.
    fw_block(blk(t, t), blk(t, t), blk(t, t));
    // Step 2 (op21 row blocks, op22 column blocks): each q writes only its
    // own (t,q)/(q,t) pair and reads the diagonal — parallel over q.
    common::parallel_for(0, nb, q_grain, [&](std::size_t q0, std::size_t q1) {
      for (std::size_t q = q0; q < q1; ++q) {
        if (q == t) continue;
        fw_block(blk(t, q), blk(t, t), blk(t, q));  // op21
        fw_block(blk(q, t), blk(q, t), blk(t, t));  // op22
      }
    });
    // Step 3 (op3): remaining blocks, independent given row/column t —
    // parallel over block rows. Relaxation order within a block is
    // unchanged, so distances match the serial schedule bit-for-bit.
    common::parallel_for(0, nb, u_grain, [&](std::size_t u0, std::size_t u1) {
      for (std::size_t u = u0; u < u1; ++u) {
        if (u == t) continue;
        for (std::size_t v = 0; v < nb; ++v) {
          if (v == t) continue;
          fw_block(blk(u, v), blk(u, t), blk(t, v));
        }
      }
    });
  }
}

}  // namespace rcs::graph
