// The benchmark's own checks (rcs_perfbench --self-test):
//   * the verification gate rejects perturbed results — one flipped bit,
//     a makespan off by one ulp, a wrong shape, a changed grid output;
//   * the critical-path buckets of a traced solve sum to its simulated
//     makespan on every functional workload;
//   * the self-time and steal-correction arithmetic on hand-written inputs;
//   * the simulated makespan repeats across seeds and in the serial
//     baseline; the analytic grid does not depend on the evaluation order.

#include <cmath>
#include <cstring>
#include <iostream>

#include "bench.hpp"
#include "common/thread_pool.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok    " : "FAIL  ") << what << "\n";
  if (!ok) ++g_failures;
}

double next_up(double v) { return std::nextafter(v, 2.0 * v + 1.0); }

void check_self_times() {
  // Lane 1: solve [0, 100 us] > parallel_for [10, 90] > chunk [10, 60]
  //         > gemm [20, 50]; lane 2: chunk [0, 30] > op3 [5, 25].
  const std::string trace =
      "{\"traceEvents\": [\n"
      "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1}\n"
      "{\"name\": \"gemm\", \"cat\": \"linalg\", \"ph\": \"X\", \"ts\": "
      "20.000, \"dur\": 30.000, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"chunk\", \"cat\": \"pool\", \"ph\": \"X\", \"ts\": "
      "10.000, \"dur\": 50.000, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"parallel_for\", \"cat\": \"pool\", \"ph\": \"X\", "
      "\"ts\": 10.000, \"dur\": 80.000, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"solve\", \"cat\": \"bench\", \"ph\": \"X\", \"ts\": "
      "0.000, \"dur\": 100.000, \"pid\": 1, \"tid\": 1},\n"
      "{\"name\": \"op3\", \"cat\": \"fw\", \"ph\": \"X\", \"ts\": 5.000, "
      "\"dur\": 20.000, \"pid\": 1, \"tid\": 2},\n"
      "{\"name\": \"chunk\", \"cat\": \"pool\", \"ph\": \"X\", \"ts\": "
      "0.000, \"dur\": 30.000, \"pid\": 1, \"tid\": 2}\n"
      "]}\n";
  const auto self = self_times_from_chrome(trace);
  auto near = [](double a, double b) { return std::fabs(a - b) < 1e-12; };
  expect(self.size() == 3, "self time: pool spans are transparent");
  expect(near(self.at("bench.solve"), 70e-6),
         "self time: solve = 100 us - gemm child 30 us");
  expect(near(self.at("linalg.gemm"), 30e-6), "self time: gemm = 30 us");
  expect(near(self.at("fw.op3"), 20e-6), "self time: op3 on a worker lane");
}

void check_steal_correction() {
  const std::vector<double> c = steal_corrected({{0.3, 0.1}, {0.3, 0.9}}, 0.4);
  expect(std::fabs(c[0] - 0.26) < 1e-12 && c[1] == kMinKept * 0.3,
         "steal correction: share x steal, floored at a quarter of the wall");
}

void check_functional(const std::string& name) {
  auto w = make_workload(name);
  w->setup(7);
  rcs::sim::TraceRecorder rec(true);
  const SolveResult r = w->solve(0, &rec);
  const SolveResult& ref = w->reference();
  expect(check_result(r, ref, 0.0).empty(), name + ": solve matches reference");
  expect(check_result(r, ref, r.sim_makespan_s).empty(),
         name + ": same makespan passes");

  SolveResult bad = r;
  double& x = bad.matrix(bad.matrix.rows() / 2, bad.matrix.cols() / 3);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bits ^= 1;
  std::memcpy(&x, &bits, sizeof bits);
  expect(!check_result(bad, ref, 0.0).empty(), name + ": one flipped bit fails");
  expect(!check_result(r, ref, next_up(r.sim_makespan_s)).empty(),
         name + ": makespan one ulp off fails");
  SolveResult empty = r;
  empty.matrix = rcs::linalg::Matrix();
  expect(!check_result(empty, ref, 0.0).empty(), name + ": wrong shape fails");

  const CpBuckets cp = cp_buckets(rec, r.ranks, r.sim_makespan_s);
  expect(std::fabs(cp.sum() - r.sim_makespan_s) <= 1e-9 * r.sim_makespan_s &&
             cp.cpu_s > 0.0,
         name + ": core.cp.* buckets sum to sim_makespan_s");

  // The serial baseline and another seed repeat the makespan exactly.
  const int threads = rcs::common::ThreadPool::global().threads();
  rcs::common::ThreadPool::set_global_threads(1);
  const SolveResult serial = w->solve(1, nullptr);
  rcs::common::ThreadPool::set_global_threads(threads);
  expect(check_result(serial, ref, r.sim_makespan_s).empty(),
         name + ": serial baseline is bit-equal, same makespan");
  w->setup(8);
  expect(check_result(w->solve(0, nullptr), w->reference(), r.sim_makespan_s)
             .empty(),
         name + ": another seed repeats the makespan");
}

void check_analytic() {
  auto w = make_workload("paper-analytic");
  w->setup(7);
  const SolveResult r = w->solve(0, nullptr);
  expect(check_result(r, w->reference(), 0.0).empty(),
         "paper-analytic: shuffled pass matches the canonical pass");
  SolveResult bad = r;
  bad.values.back() = next_up(bad.values.back());
  expect(!check_result(bad, w->reference(), 0.0).empty(),
         "paper-analytic: one changed grid output fails");
  auto w2 = make_workload("paper-analytic");
  w2->setup(8);
  expect(check_result(w2->solve(0, nullptr), w->reference(),
                      r.sim_makespan_s)
             .empty(),
         "paper-analytic: result does not depend on the seed");
}

}  // namespace

int self_test() {
  check_self_times();
  check_steal_correction();
  for (const char* name : {"lu-mid", "fw-fine", "lu-p256"}) {
    check_functional(name);
  }
  check_analytic();
  std::cout << (g_failures == 0 ? "self-test passed" : "self-test FAILED")
            << "\n";
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
