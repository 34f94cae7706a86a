#pragma once
// Intra-node parallel compute runtime: a persistent worker pool with a
// static-chunked `parallel_for` primitive.
//
// The process runs one fixed set of OS threads: the pool's workers plus
// whichever thread calls into it. MiniMPI rank fibers are hosted on these
// same threads (common::FiberScheduler runs its worker loops through
// host_loops), and every compute kernel's `parallel_for` enqueues into the
// same pool, so rank tasks and kernel chunks share one worker set and the
// machine is never oversubscribed. An idle fiber worker loop waits in
// idle_step, where it claims chunks of pending jobs as a plain worker
// would. A call made from inside a running body (nested parallelism)
// degrades to serial execution instead of deadlocking or spawning more
// threads.
//
// Determinism contract: `parallel_for` splits [begin, end) into contiguous
// chunks that partition the range, so a body that writes only its own chunk
// produces output independent of the thread count and of chunk-to-thread
// assignment. All parallel kernels in this repo preserve their documented
// per-entry accumulation order inside a chunk, so results are bit-identical
// at any `RCS_THREADS`. Simulated timings never flow through the pool.

#include <cstddef>
#include <functional>
#include <memory>

namespace rcs::common {

class ThreadPool {
 public:
  /// A pool that runs bodies on `threads` threads total: `threads - 1`
  /// persistent workers plus the calling thread (which always participates).
  /// `threads <= 1` means fully serial (no workers spawned).
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads this pool applies to one parallel_for (workers + caller).
  int threads() const;

  /// Run `body(chunk_begin, chunk_end)` over a static partition of
  /// [begin, end) into at most `threads()` contiguous chunks of at least
  /// `grain` items (sizes as equal as possible). The calling thread executes
  /// chunks alongside the workers and returns only when every chunk is done.
  /// The first exception thrown by any chunk is rethrown to the caller after
  /// completion. Safe to call concurrently from multiple threads; calls made
  /// from inside a running body execute serially (nested-parallelism cap).
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// Cooperative-scheduler hosting, for common::FiberScheduler only.
  ///
  /// host_loops runs loop(0..n-1) like parallel_for(0, n, 1, ...) with one
  /// index per chunk (the calling thread runs at least one), but the job
  /// is never claimed by idle_step: a hosted loop never ends up running
  /// another loop. The job stays out of the pool telemetry (pool.jobs,
  /// pool.chunks, busy and queue-wait time), which counts compute chunks.
  void host_loops(std::size_t n, const std::function<void(std::size_t)>& loop);

  /// The one wait point of a hosted loop with nothing of its own to run.
  /// With the pool's mutex held it calls `has_work()`; when that is true it
  /// returns at once. Otherwise it runs one chunk of a pending
  /// parallel_for job and returns, or, when no job has an unclaimed chunk,
  /// sleeps until a job is pushed or wake_hosted() is called, and checks
  /// again. `has_work` may take a mutex of its own, which must never be
  /// held while calling wake_hosted. Chunks run here count in the pool
  /// telemetry like any other.
  void idle_step(const std::function<bool()>& has_work);

  /// Wake every loop sleeping in idle_step, after making a has_work() true.
  /// All of them: a woken loop checks only its own work, and loops of
  /// several host_loops calls may be waiting.
  void wake_hosted();

  /// The shared process-global pool used by all parallel kernels. Sized on
  /// first use from the `RCS_THREADS` environment variable, defaulting to
  /// std::thread::hardware_concurrency().
  static ThreadPool& global();

  /// Resize the global pool (joins the old workers, spawns new ones). Must
  /// not be called while any parallel_for is in flight; intended for tests
  /// and benchmark harnesses that sweep thread counts.
  static void set_global_threads(int threads);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Swap the calling thread's "inside a parallel_for body" flag, returning
/// the previous value. For the fiber scheduler only: a rank fiber hosted in
/// a host_loops chunk must see top-level-thread semantics (its compute
/// kernels' parallel_for calls fan out instead of silently degrading to
/// serial), so the scheduler clears the flag when switching onto a fiber
/// stack and restores the host's value when the fiber yields. True nested
/// parallelism — a parallel_for issued from inside a running body — still
/// runs serial.
bool exchange_in_parallel_body(bool value);

/// Convenience: parallel_for on the shared global pool.
inline void parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  ThreadPool::global().parallel_for(begin, end, grain, body);
}

/// Floor on the useful work per chunk: dispatching one chunk costs a few
/// microseconds (queue mutex, cv wake, two atomics), so bodies cheaper than
/// ~20 us per chunk spend more time in the pool than in the kernel — the
/// queue-wait lane dwarfs the busy lane in the trace. Callers size `grain`
/// with grain_for_cost so small jobs degrade toward serial instead.
inline constexpr double kMinChunkNs = 20'000.0;

/// Minimum-grain heuristic: the smallest items-per-chunk such that one chunk
/// amounts to at least `min_chunk_ns` of estimated work. Feed the result to
/// parallel_for as `grain`; jobs whose whole range is below the floor then
/// run serially (no enqueue, no wake) by the existing max_chunks logic.
inline std::size_t grain_for_cost(double ns_per_item,
                                  double min_chunk_ns = kMinChunkNs) {
  if (ns_per_item <= 0.0) return 1;
  const double g = min_chunk_ns / ns_per_item;
  if (g <= 1.0) return 1;
  if (g >= 1e9) return static_cast<std::size_t>(1e9);
  return static_cast<std::size_t>(g);
}

/// grain_for_cost with cost expressed in flops, at a nominal ~20 GFLOP/s
/// single-thread rate (0.05 ns/flop) — the right order of magnitude for the
/// post-SIMD dense kernels this repo runs.
inline std::size_t grain_for_flops(double flops_per_item) {
  return grain_for_cost(flops_per_item * 0.05);
}

}  // namespace rcs::common
