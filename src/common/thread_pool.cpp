#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace rcs::common {

namespace {

/// True while this thread is executing a parallel_for body — nested calls
/// detect it and run serially instead of re-entering the pool.
thread_local bool tls_in_parallel_body = false;

/// Pool telemetry: resolved once, recorded with relaxed atomics only when
/// RCS_METRICS / RCS_TRACE are on. Wall-clock only — the determinism
/// contract (simulated timings never flow through the pool) is untouched.
struct PoolMetrics {
  obs::Counter& jobs;          // parallel_for calls that fanned out
  obs::Counter& serial_runs;   // calls that degraded to serial
  obs::Counter& chunks;        // chunks executed (all threads)
  obs::Counter& busy_ns;       // summed wall time inside chunk bodies
  obs::Histogram& queue_wait;  // ns from job submit to chunk claim

  static PoolMetrics& get() {
    static PoolMetrics m{
        obs::Registry::global().counter("pool.jobs"),
        obs::Registry::global().counter("pool.serial_runs"),
        obs::Registry::global().counter("pool.chunks"),
        obs::Registry::global().counter("pool.busy_ns"),
        obs::Registry::global().histogram("pool.queue_wait_ns")};
    return m;
  }
};

bool pool_telemetry_on() {
  return obs::metrics_enabled() || obs::trace_enabled();
}

/// One parallel_for invocation: a statically chunked range plus completion
/// bookkeeping. Shared between the submitting thread and the workers.
struct Job {
  const std::function<void(std::size_t, std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t count = 0;    // end - begin
  std::size_t nchunks = 0;  // static partition size
  bool host = false;        // hosts worker loops: idle_step never claims it
  std::int64_t submit_ns = -1;       // telemetry: when the job was enqueued
  std::atomic<std::size_t> next{0};  // next unclaimed chunk index
  std::atomic<std::size_t> done{0};  // chunks finished
  std::mutex mu;
  std::condition_variable cv;  // signalled when done == nchunks
  std::exception_ptr error;    // first exception from any chunk

  /// Chunk c covers [chunk_begin(c), chunk_begin(c+1)): sizes differ by at
  /// most one item (same even split worker_columns uses for column shares).
  std::size_t chunk_begin(std::size_t c) const {
    const std::size_t base = count / nchunks;
    const std::size_t rem = count % nchunks;
    return begin + c * base + std::min(c, rem);
  }

  /// Claim and run one chunk; returns false when the job has no chunks left.
  bool run_one() {
    const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
    if (c >= nchunks) return false;
    const std::int64_t t0 = submit_ns >= 0 ? obs::trace_now_ns() : -1;
    const bool saved = tls_in_parallel_body;
    tls_in_parallel_body = true;
    try {
      (*body)(chunk_begin(c), chunk_begin(c + 1));
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!error) error = std::current_exception();
    }
    tls_in_parallel_body = saved;
    if (t0 >= 0) {
      const std::int64_t t1 = obs::trace_now_ns();
      PoolMetrics& pm = PoolMetrics::get();
      pm.chunks.add(1);
      pm.busy_ns.add(static_cast<std::uint64_t>(t1 - t0));
      pm.queue_wait.record(static_cast<double>(t0 - submit_ns));
      obs::record_span("chunk", "pool", t0, t1);
    }
    if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks) {
      std::lock_guard<std::mutex> lock(mu);
      cv.notify_all();
    }
    return true;
  }

  bool exhausted() const {
    return next.load(std::memory_order_relaxed) >= nchunks;
  }
};

}  // namespace

struct ThreadPool::Impl {
  int threads = 1;
  std::mutex mu;
  std::condition_variable cv;  // wakes workers when jobs arrive / on stop
  std::condition_variable idle_cv;  // wakes hosted loops sleeping in idle_step
  std::deque<std::shared_ptr<Job>> jobs;
  bool stopping = false;
  std::vector<std::thread> workers;

  /// The first queued job idle_step may claim a chunk of, or null. Call
  /// with `mu` held.
  std::shared_ptr<Job> helpable() const {
    for (const std::shared_ptr<Job>& job : jobs) {
      if (!job->host && !job->exhausted()) return job;
    }
    return nullptr;
  }

  void run(std::size_t begin, std::size_t end, std::size_t grain,
           const std::function<void(std::size_t, std::size_t)>& body,
           bool host);

  void worker_main() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait(lock, [&] { return stopping || !jobs.empty(); });
      if (stopping) return;
      std::shared_ptr<Job> job = jobs.front();
      if (job->exhausted()) {
        jobs.pop_front();
        continue;
      }
      lock.unlock();
      job->run_one();
      lock.lock();
    }
  }

  void start(int n) {
    threads = std::max(1, n);
    workers.reserve(static_cast<std::size_t>(threads - 1));
    for (int i = 0; i < threads - 1; ++i) {
      workers.emplace_back([this, i] {
        obs::set_thread_lane("pool.worker " + std::to_string(i));
        worker_main();
      });
    }
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu);
      RCS_CHECK_MSG(jobs.empty(),
                    "ThreadPool stopped/resized with work in flight");
      stopping = true;
    }
    cv.notify_all();
    for (std::thread& w : workers) w.join();
    workers.clear();
    stopping = false;
  }
};

ThreadPool::ThreadPool(int threads) : impl_(std::make_unique<Impl>()) {
  impl_->start(threads);
}

ThreadPool::~ThreadPool() { impl_->stop(); }

int ThreadPool::threads() const { return impl_->threads; }

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  impl_->run(begin, end, grain, body, /*host=*/false);
}

void ThreadPool::host_loops(std::size_t n,
                            const std::function<void(std::size_t)>& loop) {
  impl_->run(0, n, 1,
             [&loop](std::size_t b, std::size_t e) {
               for (std::size_t i = b; i < e; ++i) loop(i);
             },
             /*host=*/true);
}

void ThreadPool::idle_step(const std::function<bool()>& has_work) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  for (;;) {
    if (has_work()) return;
    if (std::shared_ptr<Job> job = impl_->helpable()) {
      lock.unlock();
      job->run_one();
      return;
    }
    impl_->idle_cv.wait(lock);
  }
}

void ThreadPool::wake_hosted() {
  {
    // Taking the mutex orders this wake after any has_work() check that
    // missed the new work: that loop is already waiting on idle_cv.
    std::lock_guard<std::mutex> lock(impl_->mu);
  }
  impl_->idle_cv.notify_all();
}

void ThreadPool::Impl::run(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body, bool host) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t max_chunks = std::min<std::size_t>(
      static_cast<std::size_t>(threads), std::max<std::size_t>(1, count / g));
  // The counters measure compute work. Hosted loops are not: their chunks
  // last as long as the whole fiber world, and the chunks they help with
  // are counted on their own.
  const bool telemetry = !host && pool_telemetry_on();
  if (max_chunks <= 1 || tls_in_parallel_body) {
    if (telemetry) PoolMetrics::get().serial_runs.add(1);
    obs::ScopedTimer span(host ? "host_loops(serial)" : "parallel_for(serial)",
                          "pool");
    body(begin, end);
    return;
  }
  if (telemetry) PoolMetrics::get().jobs.add(1);
  obs::ScopedTimer span(host ? "host_loops" : "parallel_for", "pool");

  auto job = std::make_shared<Job>();
  job->body = &body;
  job->begin = begin;
  job->count = count;
  job->nchunks = max_chunks;
  job->host = host;
  if (telemetry) job->submit_ns = obs::trace_now_ns();
  {
    std::lock_guard<std::mutex> lock(mu);
    jobs.push_back(job);
  }
  cv.notify_all();
  if (!host) idle_cv.notify_all();

  // The caller works too: claim chunks until the job is exhausted, then wait
  // for the chunks other threads claimed.
  while (job->run_one()) {
  }
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->nchunks;
    });
  }
  // Retire the (exhausted) job from the queue ourselves: workers only pop
  // lazily on their next wake-up, and the pool may be destroyed before then.
  {
    std::lock_guard<std::mutex> lock(mu);
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job), jobs.end());
  }
  if (job->error) std::rethrow_exception(job->error);
}

namespace {

int default_thread_count() {
  if (const char* env = std::getenv("RCS_THREADS")) {
    const int n = std::atoi(env);
    if (n >= 1) return std::min(n, 256);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(default_thread_count());
  return pool;
}

}  // namespace

bool exchange_in_parallel_body(bool value) {
  const bool prev = tls_in_parallel_body;
  tls_in_parallel_body = value;
  return prev;
}

ThreadPool& ThreadPool::global() { return *global_slot(); }

void ThreadPool::set_global_threads(int threads) {
  RCS_CHECK_MSG(threads >= 1, "thread count must be >= 1, got " << threads);
  global_slot() = std::make_unique<ThreadPool>(threads);
}

}  // namespace rcs::common
