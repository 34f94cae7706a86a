#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace rcs::obs {

namespace {

struct Event {
  const char* name;
  const char* cat;
  std::int64_t t0_ns;
  std::int64_t t1_ns;
};

struct ThreadBuffer {
  int tid = 0;
  std::string lane;
  std::vector<Event> events;
};

/// All lanes ever created. Buffers are shared_ptr so a lane outlives its
/// thread (the exporter reads after threads exit; MiniMPI spawns fresh
/// threads per run).
struct TraceState {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  int next_tid = 1;
};

TraceState& state() {
  static TraceState* s = new TraceState();  // leaked: outlives atexit writer
  return *s;
}

std::shared_ptr<ThreadBuffer> register_buffer(const std::string& lane) {
  auto b = std::make_shared<ThreadBuffer>();
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  b->tid = s.next_tid++;
  b->lane = lane.empty() ? "thread " + std::to_string(b->tid) : lane;
  s.buffers.push_back(b);
  return b;
}

/// Detached-lane binding installed by set_current_lane (fiber scheduler);
/// empty for ordinary threads, which record into their own default lane.
thread_local std::shared_ptr<ThreadBuffer> tls_bound_lane;

ThreadBuffer& this_thread_buffer() {
  if (tls_bound_lane) return *tls_bound_lane;
  thread_local std::shared_ptr<ThreadBuffer> buf = register_buffer("");
  return *buf;
}

std::atomic<bool> g_trace_enabled{false};

void write_trace_at_exit() {
  const char* env = std::getenv("RCS_TRACE");
  if (env == nullptr || env[0] == '\0') return;
  if (!write_chrome_trace_file(env)) {
    std::fprintf(stderr, "[rcs obs] cannot write RCS_TRACE file %s\n", env);
  }
}

bool init_from_env() {
  state();  // construct (leaked) storage before registering the atexit hook
  const char* env = std::getenv("RCS_TRACE");
  const bool on = env != nullptr && env[0] != '\0';
  if (on) std::atexit(write_trace_at_exit);
  g_trace_enabled.store(on, std::memory_order_relaxed);
  return on;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t epoch_ns() {
  static const std::int64_t epoch = steady_ns();
  return epoch;
}

/// The counter "<category>.wall.<name>_ns", resolved through the registry
/// (global mutex, string build, map lookup) once per thread and (category,
/// name) pointer pair, then served from a per-thread cache. Names must
/// outlive the process (PhaseSpan's contract), so the pointers are stable
/// keys, and registry counters are never destroyed. Two literals with equal
/// text at different addresses just take two cache slots for one counter.
Counter& phase_wall_counter(const char* category, const char* name) {
  struct Slot {
    const char* category;
    const char* name;
    Counter* counter;
  };
  thread_local std::vector<Slot> cache;
  for (const Slot& s : cache) {
    if (s.category == category && s.name == name) return *s.counter;
  }
  Counter& c = Registry::global().counter(std::string(category) + ".wall." +
                                          name + "_ns");
  cache.push_back(Slot{category, name, &c});
  return c;
}

}  // namespace

bool trace_enabled() {
  static const bool init = init_from_env();
  (void)init;
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void set_trace_enabled(bool enabled) {
  (void)trace_enabled();  // force env init so the flag is not overwritten
  g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

std::int64_t trace_now_ns() { return steady_ns() - epoch_ns(); }

void set_thread_lane(const std::string& name) {
  this_thread_buffer().lane = name;
}

Lane make_lane(const std::string& name) { return register_buffer(name); }

Lane current_lane() { return tls_bound_lane; }

void set_current_lane(const Lane& lane) {
  tls_bound_lane = std::static_pointer_cast<ThreadBuffer>(lane);
}

void record_span(const char* name, const char* category, std::int64_t t0_ns,
                 std::int64_t t1_ns) {
  if (!trace_enabled()) return;
  this_thread_buffer().events.push_back(Event{name, category, t0_ns, t1_ns});
}

PhaseSpan::PhaseSpan(const char* category, const char* name)
    : name_(name), cat_(category) {
  trace_ = trace_enabled();
  if (metrics_enabled()) {
    wall_ns_ = &phase_wall_counter(category, name);
  }
  if (trace_ || wall_ns_ != nullptr) t0_ = trace_now_ns();
}

PhaseSpan::~PhaseSpan() {
  if (!trace_ && wall_ns_ == nullptr) return;
  const std::int64_t t1 = trace_now_ns();
  if (trace_) record_span(name_, cat_, t0_, t1);
  if (wall_ns_ != nullptr && t1 > t0_) {
    wall_ns_->add(static_cast<std::uint64_t>(t1 - t0_));
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_chrome_trace(std::ostream& os) {
  TraceState& s = state();
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    buffers = s.buffers;
  }
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",\n";
    first = false;
  };
  // Strings are streamed (never through a fixed buffer — a long lane or
  // span name must not truncate mid-escape into invalid JSON); only the
  // numeric fields go through snprintf.
  char num[64];
  for (const auto& b : buffers) {
    sep();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << b->tid << ", \"args\": {\"name\": \"" << json_escape(b->lane)
       << "\"}}";
  }
  for (const auto& b : buffers) {
    for (const Event& e : b->events) {
      sep();
      std::snprintf(num, sizeof(num), "%.3f",
                    static_cast<double>(e.t0_ns) / 1e3);
      os << "{\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
         << json_escape(e.cat) << "\", \"ph\": \"X\", \"ts\": " << num;
      std::snprintf(num, sizeof(num), "%.3f",
                    static_cast<double>(e.t1_ns - e.t0_ns) / 1e3);
      os << ", \"dur\": " << num << ", \"pid\": 1, \"tid\": " << b->tid
         << '}';
    }
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return true;
}

void clear_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto& b : s.buffers) b->events.clear();
}

std::size_t trace_event_count() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t n = 0;
  for (const auto& b : s.buffers) n += b->events.size();
  return n;
}

}  // namespace rcs::obs
