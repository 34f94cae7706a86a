// Clocks, statistics, provenance and the result line.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "linalg/simd.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double steal_s() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int got = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
  std::fclose(f);
  if (got != 8) return 0.0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<double> steal_corrected(const std::vector<Sample>& v,
                                    double share) {
  std::vector<double> out;
  for (const Sample& s : v) {
    out.push_back(std::max(s.seconds - share * s.steal, kMinKept * s.seconds));
  }
  return out;
}

int available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

double peak_rss_mb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss is not: a child started by posix_spawn (vfork + exec)
  // inherits its parent's peak at exec.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  long kib = -1;
  while (f != nullptr && std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  if (f != nullptr) std::fclose(f);
  if (kib < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kib = ru.ru_maxrss;
  }
  return static_cast<double>(kib) / 1024.0;
}

void print_provenance(int pool_threads, int cores) {
  (void)rcs::linalg::simd::active_level();  // resolves the dispatch path
  const auto p = rcs::obs::Provenance::collect();
  using rcs::obs::json_escape;
  std::cout << "provenance: {\"git_sha\": \"" << json_escape(p.git_sha)
            << "\", \"git_dirty\": " << (p.git_dirty ? "true" : "false")
            << ", \"compiler\": \"" << json_escape(p.compiler)
            << "\", \"build_type\": \"" << json_escape(p.build_type)
            << "\", \"nproc\": " << cores << ", \"hw_cores\": " << p.hw_cores
            << ", \"simd\": \"" << json_escape(p.simd)
            << "\", \"pool_threads\": " << pool_threads << "}\n";
  if (p.build_type != "Release") {
    std::cout << "warning: build type is " << p.build_type
              << ", not Release; timings are not comparable\n";
  }
  if (pool_threads > cores) {
    std::cout << "warning: " << pool_threads << " pool threads on " << cores
              << " cores (oversubscribed)\n";
  }
  if (p.git_dirty) std::cout << "warning: built from a dirty tree\n";
}

std::string result_json(bool correct, long attempted, long failed,
                        const Metrics& m) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  char num[40];
  for (const auto& [name, metric] : m) {
    std::snprintf(num, sizeof(num), "%.17g", metric.value);
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << num
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
