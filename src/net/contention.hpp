#pragma once
// Network-contention analysis: replay a run's message log through explicit
// link models and measure how much queueing the virtual-time accounting
// ignored.
//
// MiniMPI charges transfers to the *sender's* clock (or NIC), which encodes
// the paper's assumption of a non-blocking crossbar (Section 3: "a
// non-blocking crossbar switching fabric which provides two 2 GB/s links to
// each node"). This module checks that assumption after the fact: take the
// MessageEvents of a functional run, push them through per-link
// BandwidthLink timelines, and report the added delay each link model would
// have produced. Near-zero added delay under PerNodeLinks confirms the
// design never oversubscribes a node's links; large delays under SharedBus
// show why a bus-based system would need a different partition.

#include <map>
#include <string>
#include <vector>

#include "net/minimpi.hpp"

namespace rcs::net {

/// A link that serializes transfers at `bytes_per_s` with `latency_s` of
/// per-message latency: a transfer submitted at `earliest` starts once the
/// link is free.
class BandwidthLink {
 public:
  BandwidthLink(double bytes_per_s, double latency_s = 0.0)
      : bytes_per_s_(bytes_per_s), latency_s_(latency_s) {
    RCS_CHECK_MSG(bytes_per_s > 0.0, "link bandwidth must be positive");
    RCS_CHECK_MSG(latency_s >= 0.0, "link latency must be non-negative");
  }

  /// Time to move `bytes` once the link is free (latency + serialization).
  SimTime transfer_time(std::uint64_t bytes) const {
    return latency_s_ + static_cast<double>(bytes) / bytes_per_s_;
  }

  /// Occupy the link for a `bytes` transfer submitted at `earliest`.
  /// Returns the completion time.
  SimTime transfer(SimTime earliest, std::uint64_t bytes) {
    const SimTime duration = transfer_time(bytes);
    const SimTime start = earliest > free_at_ ? earliest : free_at_;
    free_at_ = start + duration;
    busy_total_ += duration;
    return free_at_;
  }

  SimTime busy_total() const { return busy_total_; }
  SimTime free_at() const { return free_at_; }

 private:
  double bytes_per_s_;
  double latency_s_;
  SimTime free_at_ = 0.0;
  SimTime busy_total_ = 0.0;
};

/// Topology models for the replay.
enum class LinkModel {
  Crossbar,      // one link per ordered (src, dst) pair — contention-free
                 // between distinct pairs, as the paper assumes
  PerNodeLinks,  // one egress + one ingress link per node at B_n each
                 // (the XD1's "two 2 GB/s links per node")
  SharedBus,     // a single B_n bus for everyone — the stress case
};

const char* to_string(LinkModel m);

/// Outcome of replaying a message log under one link model.
struct ContentionReport {
  LinkModel model{};
  std::size_t messages = 0;
  double original_last_arrival = 0.0;  // from the log
  double replayed_last_arrival = 0.0;  // with explicit link queueing
  double max_added_delay = 0.0;        // worst per-message queueing
  double total_added_delay = 0.0;
  double busiest_link_utilization = 0.0;  // busy / replayed_last_arrival
  std::string busiest_link;

  /// Relative slowdown explicit queueing would cause (1.0 = assumption
  /// holds exactly).
  double slowdown() const {
    return original_last_arrival > 0.0
               ? replayed_last_arrival / original_last_arrival
               : 1.0;
  }
};

/// Replay `log` (as produced by World::message_log()) under `model`.
ContentionReport analyze_contention(const std::vector<MessageEvent>& log,
                                    const NetworkParams& net, int world_size,
                                    LinkModel model);

}  // namespace rcs::net
