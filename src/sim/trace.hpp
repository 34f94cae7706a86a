#pragma once
// Execution-trace recording: per-resource busy intervals with labels,
// exportable as CSV for Gantt-style inspection of a simulated run.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rcs::sim {

/// Simulated time in seconds.
using SimTime = double;

/// One recorded busy interval on a named resource.
struct TraceSpan {
  std::string resource;  // e.g. "node2.cpu", "node2.fpga", "net.0->3"
  SimTime start;
  SimTime end;
  std::string label;  // e.g. "opMM", "bcast D_tt"
};

/// One communication operation as seen by the rank that executed it —
/// recorded by net::Comm when a recorder is attached (Comm::set_trace).
/// Kept separate from TraceSpans so comm events never pollute
/// busy_by_label() (whose labels are the drift reports' phase names): the
/// critical-path analyzer consumes both streams.
struct CommEvent {
  enum class Kind {
    Send,     // blocking send: [t0, t1] occupies the sender's CPU
    NicSend,  // isend: [t0, t1] is the CPU setup; the NIC drives the wire
    Recv,     // receive: [t0, t1] is the clock interval of the wait
  };
  Kind kind = Kind::Send;
  int rank = -1;         // the rank whose clock interval [t0, t1] is
  int peer = -1;         // dst for sends, src for receives
  SimTime t0 = 0.0;      // this rank's clock when the operation began
  SimTime t1 = 0.0;      // this rank's clock when it completed
  SimTime depart = 0.0;  // wire interval of the message involved
  SimTime arrival = 0.0;
  std::uint64_t bytes = 0;
  std::string phase;  // overlap phase / collective label ("send", "opMM", ...)
};

/// Collects TraceSpans during a simulated run. Recording can be disabled
/// (the default for large analytic sweeps) so hot paths pay one branch.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled = false) : enabled_(enabled) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Record one interval (no-op when disabled).
  void add(std::string resource, SimTime start, SimTime end,
           std::string label);

  /// Record one communication event (no-op when disabled).
  void add_comm(CommEvent ev);

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const std::vector<CommEvent>& comm_events() const { return comm_events_; }

  /// Total recorded volume (spans + comm events). Scaling sweeps publish it
  /// per design point so the trace/analysis cost of a large-p world is
  /// visible next to its makespan.
  std::size_t event_count() const {
    return spans_.size() + comm_events_.size();
  }
  void clear() {
    spans_.clear();
    comm_events_.clear();
  }

  /// Splice another recorder's spans into this one (used to merge the
  /// per-rank recorders of a functional run; recorders themselves are not
  /// thread-safe, so each rank records privately and merges afterwards).
  void merge_from(TraceRecorder&& other);

  /// Total busy time per resource.
  std::map<std::string, SimTime> busy_by_resource() const;

  /// Total busy time per span label (summed across resources) — the
  /// "simulated" column of the drift reports.
  std::map<std::string, SimTime> busy_by_label() const;

  /// Utilization per resource over [0, horizon].
  std::map<std::string, double> utilization(SimTime horizon) const;

  /// CSV: resource,start,end,label — one row per span, sorted by start.
  /// Fields containing commas, quotes, or newlines are RFC-4180 quoted.
  void write_csv(std::ostream& os) const;

  /// Chrome trace-event JSON over *simulated* time (1 simulated µs = 1 trace
  /// µs), one lane per resource — the same format the wall-clock tracer
  /// emits, so Perfetto can show both planes side by side.
  void write_chrome_json(std::ostream& os) const;

 private:
  bool enabled_;
  std::vector<TraceSpan> spans_;
  std::vector<CommEvent> comm_events_;
};

}  // namespace rcs::sim
