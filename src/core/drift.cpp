#include "core/drift.hpp"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <utility>

#include "core/analysis.hpp"
#include "core/fw_functional.hpp"
#include "core/lu_functional.hpp"
#include "core/predict.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/trace.hpp"

namespace rcs::core {

namespace {

/// Current values of the "<cat>.wall.<phase>_ns" counters (creating any
/// that have never been touched, at value 0).
std::map<std::string, std::uint64_t> wall_counters(
    const std::string& cat, const std::vector<std::string>& phases) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& ph : phases) {
    out[ph] =
        obs::Registry::global().counter(cat + ".wall." + ph + "_ns").value();
  }
  return out;
}

PhaseDrift make_phase(const std::string& name, double predicted,
                      const std::map<std::string, sim::SimTime>& sim_busy,
                      std::uint64_t before_ns, std::uint64_t after_ns) {
  PhaseDrift d;
  d.phase = name;
  d.predicted_s = predicted;
  const auto it = sim_busy.find(name);
  d.simulated_s = it == sim_busy.end() ? 0.0 : it->second;
  d.measured_s = static_cast<double>(after_ns - before_ns) * 1e-9;
  return d;
}

/// Copy the functional run's per-phase OverlapStats onto the matching
/// PhaseDrift rows (phases that receive nothing keep their zeros).
void attach_overlap(std::vector<PhaseDrift>& phases,
                    const std::map<std::string, net::OverlapStats>& overlap) {
  for (PhaseDrift& ph : phases) {
    const auto it = overlap.find(ph.phase);
    if (it == overlap.end()) continue;
    ph.overlap_hidden_s = it->second.hidden_s;
    ph.overlap_total_s = it->second.total_s;
  }
}

/// Run one traced functional run (`run` executes it into the recorder it
/// is given) and set its per-phase simulated busy time and measured wall
/// time beside the predictor's `pred`.
template <class Run>
DriftReport traced_drift(const std::string& app,
                         const std::vector<std::string>& names,
                         const std::map<std::string, double>& pred,
                         double predicted_latency_s, int p, const Run& run) {
  const bool metrics_were_on = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  const auto before = wall_counters(app, names);

  sim::TraceRecorder rec(true);
  const std::int64_t w0 = obs::trace_now_ns();
  const auto res = run(&rec);
  const double wall =
      static_cast<double>(obs::trace_now_ns() - w0) * 1e-9;
  const auto after = wall_counters(app, names);
  obs::set_metrics_enabled(metrics_were_on);
  const auto sim_busy = rec.busy_by_label();

  DriftReport rep;
  rep.design = res.run.design;
  rep.predicted_latency_s = predicted_latency_s;
  rep.simulated_makespan_s = res.run.seconds;
  rep.measured_wall_s = wall;
  for (const auto& name : names) {
    rep.phases.push_back(make_phase(name, pred.at(name), sim_busy,
                                    before.at(name), after.at(name)));
  }
  attach_overlap(rep.phases, res.overlap);
  if (res.run.seconds > 0.0) rep.utilization = rec.utilization(res.run.seconds);
  rep.faults = res.faults;
  rep.analysis = analyze_run(rec, p, res.run.seconds);
  return rep;
}

}  // namespace

double PhaseDrift::drift_measured() const {
  return predicted_s > 0.0 ? std::abs(measured_s - predicted_s) / predicted_s
                           : 0.0;
}

double PhaseDrift::drift_simulated() const {
  return predicted_s > 0.0 ? std::abs(simulated_s - predicted_s) / predicted_s
                           : 0.0;
}

double PhaseDrift::overlap_efficiency() const {
  return overlap_total_s > 0.0 ? overlap_hidden_s / overlap_total_s : 0.0;
}

DriftReport lu_drift_report(const SystemParams& sys, const LuConfig& cfg,
                            const linalg::Matrix& a) {
  std::map<std::string, double> pred = predict_lu_phase_seconds(sys, cfg);
  // The functional plane's "opMM" phase covers both sides of the split.
  pred["opMM"] = pred["opMM.cpu"] + pred["opMM.fpga"];
  return traced_drift(
      "lu", {"opLU", "opL", "opU", "opMM", "opMS"}, pred,
      predict_lu(sys, cfg).latency_seconds(), sys.p,
      [&](sim::TraceRecorder* rec) {
        return lu_functional(sys, cfg, a, false, rec);
      });
}

DriftReport fw_drift_report(const SystemParams& sys, const FwConfig& cfg,
                            const linalg::Matrix& d0) {
  return traced_drift(
      "fw", {"op1", "op21", "op22", "op3"}, predict_fw_phase_seconds(sys, cfg),
      predict_fw(sys, cfg).latency_seconds(), sys.p,
      [&](sim::TraceRecorder* rec) {
        return fw_functional(sys, cfg, d0, false, rec);
      });
}

void DriftReport::write_json(std::ostream& os, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const auto flags = os.flags();
  const auto prec = os.precision();
  os << std::setprecision(9);
  os << "{\n";
  os << pad << "  \"design\": \"" << obs::json_escape(design) << "\",\n";
  os << pad << "  \"predicted_latency_s\": " << predicted_latency_s << ",\n";
  os << pad << "  \"simulated_makespan_s\": " << simulated_makespan_s << ",\n";
  os << pad << "  \"measured_wall_s\": " << measured_wall_s << ",\n";
  os << pad << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseDrift& ph = phases[i];
    os << pad << "    {\"phase\": \"" << obs::json_escape(ph.phase)
       << "\", \"predicted_s\": " << ph.predicted_s
       << ", \"simulated_s\": " << ph.simulated_s
       << ", \"measured_s\": " << ph.measured_s
       << ", \"drift_simulated\": " << ph.drift_simulated()
       << ", \"drift_measured\": " << ph.drift_measured()
       << ", \"overlap_hidden_s\": " << ph.overlap_hidden_s
       << ", \"overlap_total_s\": " << ph.overlap_total_s
       << ", \"overlap_efficiency\": " << ph.overlap_efficiency() << '}'
       << (i + 1 < phases.size() ? "," : "") << '\n';
  }
  os << pad << "  ],\n";
  os << pad << "  \"utilization\": {";
  bool first = true;
  for (const auto& [res, u] : utilization) {
    os << (first ? "" : ", ") << '"' << obs::json_escape(res) << "\": " << u;
    first = false;
  }
  os << "},\n";
  os << pad << "  \"faults\": {"
     << "\"bitflips_injected\": " << faults.bitflips_injected
     << ", \"slowdown_hits\": " << faults.slowdown_hits
     << ", \"slowdown_added_s\": " << faults.slowdown_added_s
     << ", \"link_hits\": " << faults.link_hits
     << ", \"link_added_s\": " << faults.link_added_s
     << ", \"crashes\": " << faults.crashes
     << ", \"checks\": " << faults.checks
     << ", \"detected\": " << faults.detected
     << ", \"corrected_elements\": " << faults.corrected_elements
     << ", \"reissued_blocks\": " << faults.reissued_blocks
     << ", \"straggler_timeouts\": " << faults.straggler_timeouts
     << ", \"straggler_reissues\": " << faults.straggler_reissues
     << ", \"recovery_cpu_s\": " << faults.recovery_cpu_s
     << ", \"mttr_p50_s\": " << faults.mttr_percentile(0.5)
     << ", \"mttr_p99_s\": " << faults.mttr_percentile(0.99) << "},\n";
  os << pad << "  \"analysis\": ";
  analysis.write_json(os, indent + 2);
  os << '\n' << pad << "}";
  os.flags(flags);
  os.precision(prec);
}

void DriftReport::print(std::ostream& os) const {
  os << design << ": predicted latency " << predicted_latency_s
     << " s, simulated makespan " << simulated_makespan_s
     << " s, measured wall " << measured_wall_s << " s\n";
  os << "  " << std::left << std::setw(8) << "phase" << std::right
     << std::setw(14) << "predicted_s" << std::setw(14) << "simulated_s"
     << std::setw(14) << "measured_s" << std::setw(12) << "sim_drift"
     << std::setw(12) << "meas_drift" << std::setw(10) << "overlap" << '\n';
  for (const PhaseDrift& ph : phases) {
    os << "  " << std::left << std::setw(8) << ph.phase << std::right
       << std::setw(14) << std::setprecision(4) << ph.predicted_s
       << std::setw(14) << ph.simulated_s << std::setw(14) << ph.measured_s
       << std::setw(11) << std::setprecision(2) << 100.0 * ph.drift_simulated()
       << '%' << std::setw(11) << 100.0 * ph.drift_measured() << '%';
    if (ph.overlap_total_s > 0.0) {
      os << std::setw(9) << 100.0 * ph.overlap_efficiency() << '%';
    } else {
      os << std::setw(10) << "-";
    }
    os << '\n';
  }
  analysis.print(os);
}

}  // namespace rcs::core
