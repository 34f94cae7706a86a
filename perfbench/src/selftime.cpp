// Attribution of a traced solve: per-module self time from the obs
// wall-clock trace, and the simulated critical path split into buckets.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "bench.hpp"
#include "core/analysis.hpp"

namespace perfbench {

namespace {

struct Span {
  std::string key;  // "<cat>.<name>"
  bool transparent = false;
  long long t0 = 0, t1 = 0;  // ns
  long long child_ns = 0;
};

/// Value of `"key": ...` in one exported event line ("" when absent).
std::string field(const std::string& line, const char* key) {
  const std::string k = std::string("\"") + key + "\": ";
  const auto at = line.find(k);
  if (at == std::string::npos) return "";
  auto pos = at + k.size();
  if (line[pos] == '"') {
    const auto end = line.find('"', pos + 1);
    return line.substr(pos + 1, end - pos - 1);
  }
  const auto end = line.find_first_of(",}", pos);
  return line.substr(pos, end - pos);
}

long long us_to_ns(const std::string& v) {
  return std::llround(std::strtod(v.c_str(), nullptr) * 1e3);
}

}  // namespace

std::map<std::string, double> self_times_from_chrome(const std::string& json) {
  std::map<int, std::vector<Span>> lanes;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    if (field(line, "ph") != "X") continue;
    Span s;
    const std::string cat = field(line, "cat");
    s.key = cat + "." + field(line, "name");
    s.transparent = cat == "pool";
    s.t0 = us_to_ns(field(line, "ts"));
    s.t1 = s.t0 + us_to_ns(field(line, "dur"));
    lanes[std::atoi(field(line, "tid").c_str())].push_back(std::move(s));
  }
  std::map<std::string, double> self;
  for (auto& [tid, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.t0 != b.t0 ? a.t0 < b.t0 : a.t1 > b.t1;
    });
    std::vector<Span*> open;  // enclosing non-transparent spans
    auto close = [&](Span* s) {
      self[s->key] += static_cast<double>(s->t1 - s->t0 - s->child_ns) * 1e-9;
    };
    for (Span& s : spans) {
      while (!open.empty() && open.back()->t1 <= s.t0) {
        close(open.back());
        open.pop_back();
      }
      if (s.transparent) continue;
      if (!open.empty()) {
        open.back()->child_ns += std::min(s.t1, open.back()->t1) - s.t0;
      }
      open.push_back(&s);
    }
    while (!open.empty()) {
      close(open.back());
      open.pop_back();
    }
  }
  return self;
}

CpBuckets cp_buckets(const rcs::sim::TraceRecorder& rec, int ranks,
                     double makespan) {
  const auto an = rcs::core::analyze_run(rec, ranks, makespan);
  CpBuckets b;
  for (const auto& seg : an.critical_path) {
    const double d = seg.duration();
    if (seg.kind == "cpu" || seg.kind == "recovery") {
      b.cpu_s += d;
    } else if (seg.kind == "fpga") {
      b.fpga_s += d;
    } else if (seg.kind == "transfer" || seg.kind == "wire") {
      b.transfer_s += d;
    } else {
      b.idle_s += d;
    }
  }
  return b;
}

}  // namespace perfbench
