#include "net/contention.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rcs::net {

const char* to_string(LinkModel m) {
  switch (m) {
    case LinkModel::Crossbar: return "crossbar";
    case LinkModel::PerNodeLinks: return "per-node-links";
    case LinkModel::SharedBus: return "shared-bus";
  }
  return "?";
}

ContentionReport analyze_contention(const std::vector<MessageEvent>& log,
                                    const NetworkParams& net, int world_size,
                                    LinkModel model) {
  RCS_CHECK_MSG(world_size >= 1, "bad world size");
  ContentionReport rep;
  rep.model = model;
  rep.messages = log.size();

  // Link keying per model. A message may traverse up to two links
  // (egress + ingress under PerNodeLinks); it completes when the slower
  // one is done — approximated by reserving them sequentially, which upper-
  // bounds store-and-forward behaviour.
  std::map<std::string, BandwidthLink> links;
  auto link = [&](const std::string& key) -> BandwidthLink& {
    auto it = links.find(key);
    if (it == links.end()) {
      it = links.emplace(key, BandwidthLink(net.bytes_per_s, net.latency_s))
               .first;
    }
    return it->second;
  };

  std::vector<MessageEvent> sorted = log;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const MessageEvent& a, const MessageEvent& b) {
                     return a.depart < b.depart;
                   });

  for (const MessageEvent& m : sorted) {
    rep.original_last_arrival = std::max(rep.original_last_arrival, m.arrival);
    double done = m.depart;
    switch (model) {
      case LinkModel::Crossbar:
        done = link("pair." + std::to_string(m.src) + "->" +
                    std::to_string(m.dst))
                   .transfer(m.depart, m.bytes);
        break;
      case LinkModel::PerNodeLinks: {
        const double egress =
            link("egress." + std::to_string(m.src)).transfer(m.depart, m.bytes);
        // Cut-through: the ingress link starts as the first byte arrives
        // (egress completion minus the serialization time).
        done = link("ingress." + std::to_string(m.dst))
                   .transfer(egress - static_cast<double>(m.bytes) /
                                          net.bytes_per_s,
                             m.bytes);
        break;
      }
      case LinkModel::SharedBus:
        done = link("bus").transfer(m.depart, m.bytes);
        break;
    }
    const double added = done - m.arrival;
    if (added > rep.max_added_delay) rep.max_added_delay = added;
    if (added > 0.0) rep.total_added_delay += added;
    rep.replayed_last_arrival = std::max(rep.replayed_last_arrival, done);
  }

  for (const auto& [key, l] : links) {
    const double horizon =
        rep.replayed_last_arrival > 0.0 ? rep.replayed_last_arrival : 1.0;
    const double util = l.busy_total() / horizon;
    if (util > rep.busiest_link_utilization) {
      rep.busiest_link_utilization = util;
      rep.busiest_link = key;
    }
  }
  return rep;
}

}  // namespace rcs::net
