// The parallel compute runtime must be invisible in the numbers: the packed
// parallel gemm and the parallelized MatMulArray emulation have to produce
// results bit-identical to their naive/serial counterparts at every thread
// count, including ragged shapes that exercise the microkernel edge paths.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fiber.hpp"
#include "common/thread_pool.hpp"
#include "core/system.hpp"
#include "fpga/matmul_array.hpp"
#include "linalg/blas.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/generate.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "net/minimpi.hpp"

namespace la = rcs::linalg;
namespace simd = rcs::linalg::simd;
namespace common = rcs::common;
using rcs::fpga::MatMulArray;

namespace {

// Thread counts the whole suite sweeps: serial, small, and a deliberately
// oversubscribed odd count (the issue's RCS_THREADS ∈ {1, 2, 7}).
const int kThreadCounts[] = {1, 2, 7};

// Shapes with non-multiple-of-tile m/n/k (MR=4, NR=8, KC=256, MC=64) plus
// aligned ones, degenerate edges, and a size big enough to cross panel
// boundaries.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},    {3, 5, 2},    {4, 8, 8},     {37, 53, 29},
    {64, 64, 64}, {65, 63, 66}, {70, 300, 17}, {128, 260, 130},
};

// Ragged sweep from {1, 7, 63, 257, 1000}: every extent class (unit, tiny,
// one-under-tile, panel-crossing, above-NC slab) in non-square mixes, each
// kept small enough (m*k*n <= ~2e7) that the naive reference stays fast.
const Shape kRaggedShapes[] = {
    {1, 1000, 7},   {7, 257, 63},  {63, 63, 257},  {257, 1000, 1},
    {1000, 7, 257}, {63, 1000, 63}, {1000, 63, 63}, {257, 257, 257},
};

la::Matrix seeded(std::size_t r, std::size_t c, int seed) {
  return la::random_matrix(r, c, seed);
}

/// Run `body(level)` once per SIMD level this CPU supports, restoring the
/// previously active level afterwards.
template <typename Body>
void for_each_simd_level(const Body& body) {
  const simd::Level saved = simd::active_level();
  for (int lv = 0; lv <= static_cast<int>(simd::max_supported_level());
       ++lv) {
    body(static_cast<simd::Level>(lv));
  }
  simd::set_level(saved);
}

class BlasParallel : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    common::ThreadPool::set_global_threads(GetParam());
  }
  static void TearDownTestSuite() {
    common::ThreadPool::set_global_threads(1);
  }
};

TEST_P(BlasParallel, GemmBitIdenticalToNaive) {
  int seed = 1;
  for (const Shape& s : kShapes) {
    const la::Matrix a = seeded(s.m, s.k, seed++);
    const la::Matrix b = seeded(s.k, s.n, seed++);
    la::Matrix c_ref = seeded(s.m, s.n, 99);  // nonzero C: gemm accumulates
    la::Matrix c = c_ref;
    la::gemm_naive(a.view(), b.view(), c_ref.view());
    la::gemm(a.view(), b.view(), c.view());
    EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << " threads=" << GetParam();
  }
}

TEST_P(BlasParallel, GemmTiledBitIdenticalToNaive) {
  const la::Matrix a = seeded(65, 77, 5);
  const la::Matrix b = seeded(77, 41, 6);
  la::Matrix c_ref = seeded(65, 41, 7);
  la::Matrix c = c_ref;
  la::gemm_naive(a.view(), b.view(), c_ref.view());
  la::gemm_tiled(a.view(), b.view(), c.view());
  EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()));
}

TEST_P(BlasParallel, GemmStridedViewsBitIdentical) {
  // The functional plane calls gemm on strided sub-blocks; cover that path.
  const la::Matrix a = seeded(96, 96, 11);
  const la::Matrix b = seeded(96, 96, 12);
  la::Matrix c_ref = seeded(96, 96, 13);
  la::Matrix c = c_ref;
  la::gemm_naive(a.block(5, 3, 70, 50), b.block(3, 7, 50, 61),
                 c_ref.block(9, 20, 70, 61));
  la::gemm(a.block(5, 3, 70, 50), b.block(3, 7, 50, 61),
           c.block(9, 20, 70, 61));
  EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()));
}

TEST_P(BlasParallel, MatMulArrayBitIdenticalToNaive) {
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  int seed = 40;
  for (const Shape& s : kShapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    la::Matrix e_ref = seeded(s.m, s.n, 77);
    la::Matrix e = e_ref;
    // NativeFp::mac is acc + a*b — the same per-entry update, in the same
    // ascending-l order, as gemm_naive.
    la::gemm_naive(c.view(), d.view(), e_ref.view());
    array.multiply_accumulate(c.view(), d.view(), e.view());
    EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view()))
        << "m=" << s.m << " k=" << s.k << " n=" << s.n
        << " threads=" << GetParam();
  }
}

TEST_P(BlasParallel, MatMulArraySoftMatchesSerialSoft) {
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  const la::Matrix c = seeded(13, 9, 81);
  const la::Matrix d = seeded(9, 11, 82);
  la::Matrix e_serial = seeded(13, 11, 83);
  la::Matrix e_par = e_serial;

  common::ThreadPool::set_global_threads(1);
  array.multiply_accumulate_soft(c.view(), d.view(), e_serial.view());
  common::ThreadPool::set_global_threads(GetParam());
  array.multiply_accumulate_soft(c.view(), d.view(), e_par.view());
  EXPECT_TRUE(la::bit_equal(e_par.view(), e_serial.view()));

  // NT form, both backends.
  const la::Matrix dt = seeded(11, 9, 84);
  la::Matrix f_serial = seeded(13, 11, 85);
  la::Matrix f_par = f_serial;
  common::ThreadPool::set_global_threads(1);
  array.multiply_accumulate_nt_soft(c.view(), dt.view(), f_serial.view());
  common::ThreadPool::set_global_threads(GetParam());
  array.multiply_accumulate_nt_soft(c.view(), dt.view(), f_par.view());
  EXPECT_TRUE(la::bit_equal(f_par.view(), f_serial.view()));
}

TEST_P(BlasParallel, GemmRaggedSweepAcrossSimdPaths) {
  int seed = 200;
  for (const Shape& s : kRaggedShapes) {
    const la::Matrix a = seeded(s.m, s.k, seed++);
    const la::Matrix b = seeded(s.k, s.n, seed++);
    la::Matrix c_ref = seeded(s.m, s.n, 201);
    const la::Matrix c0 = c_ref;
    la::gemm_naive(a.view(), b.view(), c_ref.view());
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      la::Matrix c = c0;
      la::gemm(a.view(), b.view(), c.view());
      EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()))
          << "m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
    });
  }
}

TEST_P(BlasParallel, MatMulArrayStreamedRaggedSweepAcrossSimdPaths) {
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  int seed = 300;
  for (const Shape& s : kRaggedShapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    const la::Matrix dt = seeded(s.n, s.k, seed++);
    la::Matrix e_ref = seeded(s.m, s.n, 301);
    la::Matrix ent_ref = e_ref;
    const la::Matrix e0 = e_ref;
    la::gemm_naive(c.view(), d.view(), e_ref.view());
    // Ascending-l naive NT reference.
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        double acc = ent_ref(i, j);
        for (std::size_t l = 0; l < s.k; ++l) acc += c(i, l) * dt(j, l);
        ent_ref(i, j) = acc;
      }
    }
    for_each_simd_level([&](simd::Level level) {
      simd::set_level(level);
      la::Matrix e = e0;
      array.multiply_accumulate(c.view(), d.view(), e.view());
      EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view()))
          << "nn m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
      la::Matrix ent = e0;
      array.multiply_accumulate_nt(c.view(), dt.view(), ent.view());
      EXPECT_TRUE(la::bit_equal(ent.view(), ent_ref.view()))
          << "nt m=" << s.m << " k=" << s.k << " n=" << s.n
          << " threads=" << GetParam()
          << " simd=" << simd::level_name(level);
    });
  }
}

TEST_P(BlasParallel, MatMulArraySoftRaggedMatchesSerial) {
  // Soft-float stays on the scalar row loop; two small ragged shapes keep
  // the bit-accurate cores affordable.
  const MatMulArray array(rcs::core::SystemParams::cray_xd1().mm_fpga);
  const Shape soft_shapes[] = {{7, 63, 1}, {63, 7, 7}};
  int seed = 400;
  for (const Shape& s : soft_shapes) {
    const la::Matrix c = seeded(s.m, s.k, seed++);
    const la::Matrix d = seeded(s.k, s.n, seed++);
    const la::Matrix dt = seeded(s.n, s.k, seed++);
    la::Matrix e_ref = seeded(s.m, s.n, 401);
    la::Matrix ent_ref = e_ref;
    const la::Matrix e0 = e_ref;
    common::ThreadPool::set_global_threads(1);
    array.multiply_accumulate_soft(c.view(), d.view(), e_ref.view());
    array.multiply_accumulate_nt_soft(c.view(), dt.view(), ent_ref.view());
    common::ThreadPool::set_global_threads(GetParam());
    la::Matrix e = e0;
    array.multiply_accumulate_soft(c.view(), d.view(), e.view());
    EXPECT_TRUE(la::bit_equal(e.view(), e_ref.view()));
    la::Matrix ent = e0;
    array.multiply_accumulate_nt_soft(c.view(), dt.view(), ent.view());
    EXPECT_TRUE(la::bit_equal(ent.view(), ent_ref.view()));
  }
}

TEST_P(BlasParallel, GemmNtBitIdenticalAcrossSimdPaths) {
  // gemm_nt routes through the engine's NT path above the small-product
  // threshold; 70x300x70 crosses it.
  const la::Matrix a = seeded(70, 300, 501);
  const la::Matrix b = seeded(70, 300, 502);
  la::Matrix ref(70, 70);
  for (std::size_t i = 0; i < 70; ++i) {
    for (std::size_t j = 0; j < 70; ++j) {
      double acc = ref(i, j);
      for (std::size_t l = 0; l < 300; ++l) acc += a(i, l) * b(j, l);
      ref(i, j) = acc;
    }
  }
  for_each_simd_level([&](simd::Level level) {
    simd::set_level(level);
    la::Matrix c(70, 70);
    la::gemm_nt(a.view(), b.view(), c.view());
    EXPECT_TRUE(la::bit_equal(c.view(), ref.view()))
        << "threads=" << GetParam() << " simd=" << simd::level_name(level);
  });
}

// Salt a matrix with the IEEE special values the narrow kernel's lanes must
// carry through untouched: +inf, -inf, NaN, +0 and -0 (-0 + -0 stays -0,
// so a C entry of -0 with all-zero products must come back as -0). The NaN
// is the one this machine makes for inf * 0, so every NaN in play has one
// bit pattern: when both operands of an add are NaN, IEEE 754 leaves open
// which one comes back, and the compiler may order an add's operands
// either way.
void salt_specials(la::Matrix& x, std::size_t seed) {
  const double inf = std::numeric_limits<double>::infinity();
  volatile double zero = 0.0;
  const double specials[] = {inf, -inf, inf * zero, 0.0, -0.0};
  for (std::size_t i = seed % 7; i < x.size(); i += 13) {
    x.data()[i] = specials[(i + seed) % 5];
  }
}

// The narrow-column path (C with fewer than simd::kNR columns) against
// gemm_naive, bitwise: n in {1,2,3,7} x m in {1,3,7,8,9,257} x k in
// {1,7,255,256}, on strided blocks of wider A, B and C (opMM's dshare is a
// column block of a wider D), at every supported SIMD level, for gemm and
// for gemm_nt (whose B^T takes the same kernel). Once on finite data, where
// any change to an entry's accumulation order shows in its rounding, and
// once salted with special values, which reach most long rows.
TEST_P(BlasParallel, GemmNarrowBitIdenticalToNaiveAcrossSimdPaths) {
  const std::size_t ns[] = {1, 2, 3, 7};
  const std::size_t ms[] = {1, 3, 7, 8, 9, 257};
  const std::size_t ks[] = {1, 7, 255, 256};
  for (bool salted : {false, true}) {
    la::Matrix wa = seeded(260, 261, 701);
    la::Matrix wb = seeded(259, 12, 702);
    la::Matrix wbt = seeded(11, 259, 703);
    la::Matrix wc = seeded(258, 13, 704);
    if (salted) {
      salt_specials(wa, 1);
      salt_specials(wb, 2);
      salt_specials(wbt, 3);
      salt_specials(wc, 4);
    }
    for (std::size_t n : ns) {
      for (std::size_t m : ms) {
        for (std::size_t k : ks) {
          const auto a = wa.block(2, 3, m, k);
          const auto b = wb.block(1, 4, k, n);
          const auto bt = wbt.block(3, 2, n, k);
          la::Matrix ref = wc;
          la::gemm_naive(a, b, ref.block(1, 5, m, n));
          // gemm_naive is the oracle for gemm_nt too, on an explicit copy
          // of B^T: a hand loop here may add its operands the other way
          // round, and which NaN an add returns when both are NaN follows
          // the operand order.
          la::Matrix bt_t(k, n);
          for (std::size_t l = 0; l < k; ++l) {
            for (std::size_t j = 0; j < n; ++j) bt_t(l, j) = bt(j, l);
          }
          la::Matrix ref_nt = wc;
          la::gemm_naive(a, bt_t.view(), ref_nt.block(1, 5, m, n));
          for_each_simd_level([&](simd::Level level) {
            simd::set_level(level);
            const std::string tag =
                "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                " n=" + std::to_string(n) + " salted=" +
                std::to_string(salted) + " threads=" +
                std::to_string(GetParam()) +
                " simd=" + simd::level_name(level);
            la::Matrix c = wc;
            la::gemm(a, b, c.block(1, 5, m, n));
            EXPECT_TRUE(la::bit_equal(c.view(), ref.view())) << "gemm " << tag;
            la::Matrix c_nt = wc;
            la::gemm_nt(a, bt, c_nt.block(1, 5, m, n));
            EXPECT_TRUE(la::bit_equal(c_nt.view(), ref_nt.view()))
                << "gemm_nt " << tag;
          });
        }
      }
    }
  }
}

TEST_P(BlasParallel, TrsmLeftLowerUnitBitIdenticalToSerial) {
  // Column-strip parallel solve vs the single-thread result, including a
  // single-column B (fully serial by the grain heuristic).
  for (std::size_t rhs_cols : {std::size_t{1}, std::size_t{7},
                               std::size_t{257}}) {
    la::Matrix l = seeded(129, 129, 601);
    for (std::size_t i = 0; i < 129; ++i) l(i, i) = 1.0;
    const la::Matrix b0 = seeded(129, rhs_cols, 602);
    common::ThreadPool::set_global_threads(1);
    la::Matrix ref = b0;
    la::trsm_left_lower_unit(l.view(), ref.view());
    common::ThreadPool::set_global_threads(GetParam());
    la::Matrix b = b0;
    la::trsm_left_lower_unit(l.view(), b.view());
    EXPECT_TRUE(la::bit_equal(b.view(), ref.view()))
        << "rhs_cols=" << rhs_cols << " threads=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BlasParallel,
                         ::testing::ValuesIn(kThreadCounts));

// ---------------------------------------------------------------------------
// Minimum-grain heuristic

TEST(GrainHeuristic, FloorsChunksAtMinWork) {
  // 20 us floor at 10 ns/item -> 2000 items per chunk.
  EXPECT_EQ(common::grain_for_cost(10.0), 2000u);
  // Items already >= the floor run at grain 1 (full parallelism).
  EXPECT_EQ(common::grain_for_cost(common::kMinChunkNs), 1u);
  EXPECT_EQ(common::grain_for_cost(1e9), 1u);
  // Degenerate costs never divide by zero or overflow.
  EXPECT_EQ(common::grain_for_cost(0.0), 1u);
  EXPECT_EQ(common::grain_for_cost(-5.0), 1u);
  EXPECT_EQ(common::grain_for_cost(1e-12), static_cast<std::size_t>(1e9));
  // Flop variant: 100 flops/item at 0.05 ns/flop = 5 ns/item -> 4000.
  EXPECT_EQ(common::grain_for_flops(100.0), 4000u);
}

TEST(GrainHeuristic, SmallJobsStaySerial) {
  common::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  // 100 items at 10 ns each is far below one 20 us chunk -> 1 chunk.
  pool.parallel_for(0, 100, common::grain_for_cost(10.0),
                    [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 1);
}

// ---------------------------------------------------------------------------
// ThreadPool primitive behavior

TEST(ThreadPool, ChunksPartitionTheRange) {
  for (int threads : {1, 2, 3, 8}) {
    common::ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), 1, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ThreadPool, GrainLimitsChunkCount) {
  common::ThreadPool pool(8);
  std::atomic<int> chunks{0};
  pool.parallel_for(0, 10, 6, [&](std::size_t, std::size_t) { ++chunks; });
  EXPECT_EQ(chunks.load(), 1);  // 10 items, grain 6 -> one chunk
}

TEST(ThreadPool, NestedCallsRunSerially) {
  common::ThreadPool::set_global_threads(4);
  std::atomic<int> total{0};
  common::parallel_for(0, 8, 1, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      // Nested: must degrade to serial, not deadlock.
      common::parallel_for(0, 10, 1,
                           [&](std::size_t nb, std::size_t ne) {
                             total.fetch_add(static_cast<int>(ne - nb));
                           });
    }
  });
  EXPECT_EQ(total.load(), 80);
  common::ThreadPool::set_global_threads(1);
}

TEST(ThreadPool, PropagatesBodyException) {
  common::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  common::ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(5, 5, 1, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

// Regression: the nested-parallelism cap used to serialize any parallel_for
// issued from a pool-hosted context. MiniMPI rank fibers are hosted inside a
// pool parallel_for (the worker loops), but a rank's GEMM must still fan
// out — the fiber scheduler clears the in-parallel-body flag while a fiber
// runs and restores it on yield. A serialized call runs its body exactly
// once over the whole range; the pool path partitions into
// min(threads, count/grain) chunks, so with 3 pool threads the rank must
// observe 3 chunks. Rank 0 parks in recv before its parallel_for to prove
// the flag also survives a suspend/resume cycle.
TEST(ThreadPool, RankFiberParallelForIsNotSerialized) {
  common::ThreadPool::set_global_threads(3);
  rcs::net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  rcs::net::World world(2, np);
  world.set_max_workers(2);  // fiber mode, worker loops hosted on the pool
  std::atomic<int> chunks0{0}, chunks1{0};
  world.run([&](rcs::net::Comm& comm) {
    auto& chunks = comm.rank() == 0 ? chunks0 : chunks1;
    if (comm.rank() == 0) comm.recv(1, 1);  // park + resume before computing
    common::parallel_for(0, 300, 1, [&](std::size_t, std::size_t) {
      chunks.fetch_add(1);
      // True nested parallelism from inside a chunk body must still
      // degrade to serial (one invocation), fiber or not.
      std::atomic<int> inner{0};
      common::parallel_for(0, 300, 1,
                           [&](std::size_t, std::size_t) { ++inner; });
      EXPECT_EQ(inner.load(), 1);
    });
    if (comm.rank() == 1) comm.send_value(0, 1, 1);
  });
  EXPECT_EQ(chunks0.load(), 3);
  EXPECT_EQ(chunks1.load(), 3);
  common::ThreadPool::set_global_threads(1);
}

rcs::net::NetworkParams instant_net() {
  rcs::net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  return np;
}

/// Spin (yielding) until `flag` is set or ten seconds pass; the deadline
/// turns a scheduler that never helps into a test failure, not a hang.
void await(const std::atomic<bool>& flag) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// Idle fiber worker loops run other ranks' kernel chunks. In a default
// (fiber) world of 4 ranks on a 4-thread pool, rank 0 calls parallel_for
// while ranks 1-3 are parked in recv, so the other three threads are
// worker loops with no ready fiber. The chunk rank 0 runs itself waits
// until some other thread has started a chunk, so the job must be helped
// whatever the timing. A gemm issued from the same rank must then still be
// bit-identical to the naive product.
TEST(ThreadPool, IdleFiberLoopsRunAParkedWorldsChunks) {
  common::ThreadPool::set_global_threads(4);
  rcs::net::World world(4, instant_net());
  const la::Matrix a = seeded(96, 80, 21);
  const la::Matrix b = seeded(80, 72, 22);
  la::Matrix c_ref = seeded(96, 72, 23);
  la::Matrix c = c_ref;
  la::gemm_naive(a.view(), b.view(), c_ref.view());
  std::mutex ids_mu;
  std::set<std::thread::id> ids;
  std::atomic<bool> helped{false};
  world.run([&](rcs::net::Comm& comm) {
    if (comm.rank() != 0) {
      comm.recv(0, 1);
      return;
    }
    const std::thread::id me = std::this_thread::get_id();
    common::parallel_for(0, 4, 1, [&](std::size_t, std::size_t) {
      const std::thread::id id = std::this_thread::get_id();
      {
        std::lock_guard<std::mutex> lock(ids_mu);
        ids.insert(id);
      }
      if (id != me) {
        helped = true;
      } else {
        await(helped);
      }
    });
    la::gemm(a.view(), b.view(), c.view());
    for (int r = 1; r < comm.size(); ++r) comm.send_value(r, 1, 0);
  });
  EXPECT_TRUE(helped.load());
  EXPECT_GE(ids.size(), 2u);
  EXPECT_TRUE(la::bit_equal(c.view(), c_ref.view()));
  common::ThreadPool::set_global_threads(1);
}

// Many rank fibers issue parallel_for at once, interleaved with messages,
// at 1, 2 and 4 pool threads: every job completes (the suite TIMEOUT is the
// deadlock guard) and every rank's gemm is bit-identical to the naive one.
TEST(ThreadPool, ManyFibersIssueParallelForAtOnce) {
  constexpr int kP = 16;
  const la::Matrix a = seeded(64, 64, 31);
  const la::Matrix b = seeded(64, 64, 32);
  la::Matrix c_ref(64, 64);
  la::gemm_naive(a.view(), b.view(), c_ref.view());
  for (const int threads : {1, 2, 4}) {
    common::ThreadPool::set_global_threads(threads);
    rcs::net::World world(kP, instant_net());
    std::vector<la::Matrix> c(kP, la::Matrix(64, 64));
    std::vector<std::size_t> sums(kP, 0);
    world.run([&](rcs::net::Comm& comm) {
      const int r = comm.rank();
      const auto me = static_cast<std::size_t>(r);
      for (int round = 0; round < 3; ++round) {
        std::atomic<std::size_t> sum{0};
        common::parallel_for(0, 1000, 1, [&](std::size_t i0, std::size_t i1) {
          for (std::size_t i = i0; i < i1; ++i) sum.fetch_add(i);
        });
        sums[me] += sum.load();
        comm.send_value((r + 1) % kP, round, r);
        EXPECT_EQ(comm.recv((r + kP - 1) % kP, round).as<int>(),
                  (r + kP - 1) % kP);
      }
      la::gemm(a.view(), b.view(), c[me].view());
      comm.barrier();
    });
    for (int r = 0; r < kP; ++r) {
      const auto me = static_cast<std::size_t>(r);
      EXPECT_EQ(sums[me], 3u * 999u * 1000u / 2u)
          << "rank " << r << " threads " << threads;
      EXPECT_TRUE(la::bit_equal(c[me].view(), c_ref.view()))
          << "rank " << r << " threads " << threads;
    }
  }
  common::ThreadPool::set_global_threads(1);
}

// A chunk run by an idle worker loop executes on the loop's own stack, so
// it must never block: Fiber::park from such a chunk is a checked error
// that reaches the parallel_for caller (here rank 0, and through it
// World::run). The chunk rank 0 runs itself (on its fiber) waits until the
// helper's chunk has tried, so the helped chunk is certain to exist.
TEST(ThreadPool, ParkFromAHelpedChunkIsRejected) {
  common::ThreadPool::set_global_threads(2);
  rcs::net::World world(2, instant_net());
  std::atomic<bool> tried{false};
  try {
    world.run([&](rcs::net::Comm& comm) {
      if (comm.rank() != 0) return;  // leaves its worker loop idle
      common::parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
        if (common::Fiber::current() != nullptr) {
          await(tried);
          return;
        }
        std::mutex mu;
        std::unique_lock<std::mutex> lock(mu);
        tried = true;
        common::Fiber::park(lock);
      });
    });
    ADD_FAILURE() << "expected the helped chunk's park to throw";
  } catch (const rcs::Error& e) {
    EXPECT_NE(std::string(e.what()).find("pool chunk"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(tried.load());
  common::ThreadPool::set_global_threads(1);
}

}  // namespace
