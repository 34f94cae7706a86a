// The four workloads: three functional solves over MiniMPI (hybrid LU at
// the ROADMAP reference point, fine-grained hybrid FW, LU on a 256-rank
// world) and one pass over the paper's analytic design grids.

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/cholesky.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/mm.hpp"
#include "core/predict.hpp"
#include "graph/floyd_warshall.hpp"
#include "graph/generate.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"

namespace perfbench {

namespace core = rcs::core;
namespace la = rcs::linalg;

namespace {

/// Shapes of an LU design point: Eq. 4 split of a b x b block and one
/// worker's column share.
Shapes lu_shapes(const core::SystemParams& sys, long long b) {
  const auto part = core::solve_mm_partition(sys, b);
  Shapes s;
  s.b = b;
  s.lu_b = b;
  s.b_f = part.b_f;
  s.b_p = part.b_p;
  s.cw = (b + sys.p - 2) / (sys.p - 1);
  return s;
}

/// lu-mid's shapes, for the LU kernel probes of the other workloads.
Shapes lu_mid_shapes() {
  return lu_shapes(core::SystemParams::cray_xd1(), 192);
}

class LuWorkload : public Workload {
 public:
  LuWorkload(long long n, long long b, int p) {
    sys_ = core::SystemParams::cray_xd1().with_nodes(p);
    cfg_.n = n;
    cfg_.b = b;
    cfg_.mode = core::DesignMode::Hybrid;
    cfg_.lookahead = true;
  }

  void setup(std::uint64_t seed) override {
    const auto n = static_cast<std::size_t>(cfg_.n);
    a_ = la::diagonally_dominant(n, seed);
    ref_ = SolveResult{};
    ref_.matrix = a_;
    la::getrf_blocked(ref_.matrix.view(), static_cast<std::size_t>(cfg_.b));
    ref_.predicted_s = core::predict_lu(sys_, cfg_).latency_seconds();
  }

  SolveResult solve(int max_workers, rcs::sim::TraceRecorder* trace) override {
    core::LuConfig cfg = cfg_;
    cfg.max_workers = max_workers;
    auto res = core::lu_functional(sys_, cfg, a_, false, trace);
    SolveResult r;
    r.matrix = std::move(res.factored);
    r.sim_makespan_s = res.run.seconds;
    r.predicted_s = ref_.predicted_s;
    r.ranks = sys_.p;
    return r;
  }

  const SolveResult& reference() const override { return ref_; }
  Shapes shapes() const override { return lu_shapes(sys_, cfg_.b); }

  void analytic_point() const override { (void)core::lu_analytic(sys_, cfg_); }
  void predict_point() const override { (void)core::predict_lu(sys_, cfg_); }

 private:
  core::SystemParams sys_;
  core::LuConfig cfg_;
  la::Matrix a_;
  SolveResult ref_;
};

class FwWorkload : public Workload {
 public:
  FwWorkload(long long n, long long b, int p) {
    sys_ = core::SystemParams::cray_xd1().with_nodes(p);
    cfg_.n = n;
    cfg_.b = b;
    cfg_.mode = core::DesignMode::Hybrid;
    cfg_.lookahead = true;
  }

  void setup(std::uint64_t seed) override {
    d0_ = rcs::graph::random_digraph(static_cast<std::size_t>(cfg_.n), seed,
                                     0.5);
    ref_ = SolveResult{};
    ref_.matrix = d0_;
    rcs::graph::blocked_floyd_warshall(ref_.matrix,
                                       static_cast<std::size_t>(cfg_.b));
    ref_.predicted_s = core::predict_fw(sys_, cfg_).latency_seconds();
  }

  SolveResult solve(int max_workers, rcs::sim::TraceRecorder* trace) override {
    core::FwConfig cfg = cfg_;
    cfg.max_workers = max_workers;
    auto res = core::fw_functional(sys_, cfg, d0_, false, trace);
    SolveResult r;
    r.matrix = std::move(res.distances);
    r.sim_makespan_s = res.run.seconds;
    r.predicted_s = ref_.predicted_s;
    r.ranks = sys_.p;
    return r;
  }

  const SolveResult& reference() const override { return ref_; }

  Shapes shapes() const override {
    Shapes s = lu_mid_shapes();
    s.b = cfg_.b;
    return s;
  }

  void analytic_point() const override { (void)core::fw_analytic(sys_, cfg_); }
  void predict_point() const override { (void)core::predict_fw(sys_, cfg_); }

 private:
  core::SystemParams sys_;
  core::FwConfig cfg_;
  la::Matrix d0_;
  SolveResult ref_;
};

/// One pass over the Fig. 5-9 design grids at paper scale for LU, FW, MM
/// and Cholesky through the analytic plane and the predictor. The seed
/// shuffles the evaluation order; every output is stored by grid index, so
/// the result must not depend on it.
class AnalyticWorkload : public Workload {
 public:
  AnalyticWorkload() {
    const auto xd1 = core::SystemParams::cray_xd1();
    // Fig. 9 LU is the canonical point: its simulated latency and the
    // predictor's are the first two grid outputs.
    core::LuConfig lu9;
    lu9.n = 30000;
    lu9.b = 3000;
    points_.push_back([=] { return core::lu_analytic(xd1, lu9).run.seconds; });
    points_.push_back(
        [=] { return core::predict_lu(xd1, lu9).latency_seconds(); });
    for (auto mode : {core::DesignMode::ProcessorOnly,
                      core::DesignMode::FpgaOnly}) {
      core::LuConfig c = lu9;
      c.mode = mode;
      points_.push_back([=] { return core::lu_analytic(xd1, c).run.seconds; });
    }
    core::FwConfig fw9;
    fw9.n = 92160;
    fw9.b = 256;
    for (auto mode : {core::DesignMode::Hybrid, core::DesignMode::ProcessorOnly,
                      core::DesignMode::FpgaOnly}) {
      core::FwConfig c = fw9;
      c.mode = mode;
      points_.push_back([=] { return core::fw_analytic(xd1, c).run.seconds; });
    }
    points_.push_back(
        [=] { return core::predict_fw(xd1, fw9).latency_seconds(); });
    // Fig. 5: one 3000 x 3000 block MM vs b_f.
    for (long long bf = 0; bf <= 3000; bf += 200) {
      const long long bfk = (bf / 8) * 8;
      points_.push_back([=] {
        return core::lu_single_opmm_latency(xd1, 3000, bfk,
                                            core::SendFanout::SerialAll);
      });
    }
    // Fig. 6: iteration 0 of LU vs l, both fan-out conventions.
    for (int l = 0; l <= 8; ++l) {
      for (auto fan : {core::SendFanout::SerialAll,
                       core::SendFanout::PaperSingle}) {
        core::LuConfig c = lu9;
        c.max_iterations = 1;
        c.l = l;
        c.fanout = fan;
        points_.push_back(
            [=] { return core::lu_analytic(xd1, c).run.seconds; });
      }
    }
    // Fig. 7: one FW iteration vs l1.
    core::FwConfig fw7;
    fw7.n = 18432;
    fw7.b = 256;
    fw7.max_iterations = 1;
    const long long ops = core::solve_fw_partition(xd1, fw7.n, fw7.b)
                              .ops_per_phase;
    for (long long l1 = 0; l1 <= ops; ++l1) {
      core::FwConfig c = fw7;
      c.l1 = l1;
      points_.push_back([=] { return core::fw_analytic(xd1, c).run.seconds; });
      points_.push_back(
          [=] { return core::predict_fw(xd1, c).latency_seconds(); });
    }
    // Fig. 8: hybrid LU vs n/b.
    for (long long nb = 2; nb <= 10; ++nb) {
      core::LuConfig c = lu9;
      c.n = 3000 * nb;
      points_.push_back([=] { return core::lu_analytic(xd1, c).run.seconds; });
      points_.push_back(
          [=] { return core::predict_lu(xd1, c).latency_seconds(); });
    }
    // MM: one node vs b_f, then chassis scaling.
    const auto one = xd1.with_nodes(1);
    for (long long bf = 0; bf <= 3000; bf += 500) {
      core::MmConfig c;
      c.n = 3000;
      c.b = 3000;
      c.b_f = (bf / 8) * 8;
      c.mode = c.b_f == 0 ? core::DesignMode::ProcessorOnly
                          : core::DesignMode::Hybrid;
      points_.push_back([=] { return core::mm_analytic(one, c).run.seconds; });
    }
    for (int p : {2, 3, 4, 6}) {
      core::MmConfig c;
      c.n = 30000;
      c.b = 3000;
      const auto sys = xd1.with_nodes(p);
      points_.push_back([=] { return core::mm_analytic(sys, c).run.seconds; });
    }
    // Cholesky: design variants and n/b.
    for (auto mode : {core::DesignMode::Hybrid, core::DesignMode::ProcessorOnly,
                      core::DesignMode::FpgaOnly}) {
      core::CholConfig c;
      c.n = 30000;
      c.b = 3000;
      c.mode = mode;
      points_.push_back(
          [=] { return core::cholesky_analytic(xd1, c).run.seconds; });
    }
    for (long long nb = 2; nb <= 10; nb += 2) {
      core::CholConfig c;
      c.n = 3000 * nb;
      c.b = 3000;
      points_.push_back(
          [=] { return core::cholesky_analytic(xd1, c).run.seconds; });
    }
    order_.resize(points_.size());
    std::iota(order_.begin(), order_.end(), 0);
  }

  void setup(std::uint64_t seed) override {
    std::iota(order_.begin(), order_.end(), 0);
    ref_ = evaluate();  // canonical order
    rcs::Rng rng(seed);
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng() % i]);
    }
  }

  SolveResult solve(int, rcs::sim::TraceRecorder*) override {
    return evaluate();
  }

  const SolveResult& reference() const override { return ref_; }

  /// The analytic plane moves no data; every probe runs at lu-mid's shapes.
  Shapes shapes() const override { return lu_mid_shapes(); }

  void analytic_point() const override { (void)points_[0](); }
  void predict_point() const override { (void)points_[1](); }

 private:
  SolveResult evaluate() const {
    SolveResult r;
    r.values.assign(points_.size(), 0.0);
    for (std::size_t i : order_) r.values[i] = points_[i]();
    r.sim_makespan_s = r.values[0];
    r.predicted_s = r.values[1];
    return r;
  }

  std::vector<std::function<double()>> points_;
  std::vector<std::size_t> order_;
  SolveResult ref_;
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"lu-mid", "fw-fine",
                                                 "lu-p256", "paper-analytic"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "lu-mid") return std::make_unique<LuWorkload>(1536, 192, 6);
  if (name == "fw-fine") return std::make_unique<FwWorkload>(768, 32, 6);
  if (name == "lu-p256") return std::make_unique<LuWorkload>(1024, 256, 256);
  if (name == "paper-analytic") return std::make_unique<AnalyticWorkload>();
  return nullptr;
}

StealShares steal_shares(const std::string& name) {
  // Calibrated on a 4-vCPU VM; see README, "Steal". paper-analytic's
  // solves last milliseconds, below the 10 ms resolution of the steal
  // counter, so nothing is taken out of them.
  if (name == "lu-mid") return {0.47, 0.38};
  if (name == "fw-fine") return {0.45, 0.95};
  if (name == "lu-p256") return {0.32, 1.0};
  return {};
}

std::string check_result(const SolveResult& r, const SolveResult& ref,
                         double first_makespan) {
  std::ostringstream why;
  if (!ref.matrix.empty()) {
    if (r.matrix.rows() != ref.matrix.rows() ||
        r.matrix.cols() != ref.matrix.cols()) {
      why << "result is " << r.matrix.rows() << "x" << r.matrix.cols()
          << ", reference " << ref.matrix.rows() << "x" << ref.matrix.cols();
      return why.str();
    }
    if (!la::bit_equal(r.matrix.view(), ref.matrix.view())) {
      return "result is not bit-equal to the sequential reference";
    }
  }
  if (r.values.size() != ref.values.size()) {
    why << r.values.size() << " grid outputs, reference has "
        << ref.values.size();
    return why.str();
  }
  for (std::size_t i = 0; i < r.values.size(); ++i) {
    if (!same_bits(r.values[i], ref.values[i])) {
      why << "grid output " << i << " is " << r.values[i] << ", reference "
          << ref.values[i];
      return why.str();
    }
  }
  if (!(r.sim_makespan_s > 0.0)) return "simulated makespan is not positive";
  if (first_makespan > 0.0 && !same_bits(r.sim_makespan_s, first_makespan)) {
    why.precision(17);
    why << "simulated makespan " << r.sim_makespan_s
        << " differs from the first solve's " << first_makespan;
    return why.str();
  }
  return "";
}

}  // namespace perfbench
