#pragma once
// MiniMPI — an MPI-style message-passing runtime over std::thread.
//
// The paper's nodes communicate with MPI over the XD1 RapidArray fabric; no
// MPI implementation is available here, so MiniMPI provides the subset the
// hybrid designs need (point-to-point send/recv with tags, broadcast,
// barrier) with real data movement between per-rank mailboxes.
//
// Virtual time: every rank owns a clock in simulated seconds. Following the
// paper's model (§4.3: "the computations on the processors cannot overlap
// with the network communications"), a send charges the full serialization
// time `latency + bytes/B_n` to the *sender's* clock (the CPU drives MPI),
// and a receive advances the receiver's clock to at least the message's
// arrival time. Broadcast is root-serialized, matching the paper's
// "transfers ... to all the other nodes".
//
// Determinism: receives always name their source and tag, clocks depend only
// on message payload sizes and compute charges — never on wall-clock time —
// so repeated runs give identical simulated timings and data.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fiber.hpp"
#include "obs/metrics.hpp"
#include "sim/faults.hpp"
#include "sim/trace.hpp"

// Extended collectives and DMA-style transfers live alongside the basic
// MPI-flavoured operations; see the class comments below.

namespace rcs::net {

using sim::SimTime;

/// Cost parameters of the interconnect between any two nodes.
struct NetworkParams {
  double bytes_per_s = 2e9;  // B_n: XD1 provides 2 GB/s links per node
  double latency_s = 0.0;    // per-message latency (the paper neglects it)

  /// Serialization time for one message of `bytes`.
  SimTime transfer_time(std::uint64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bytes_per_s;
  }
};

/// Per-rank simulated clock. All compute and communication charges flow
/// through here so the run produces a deterministic simulated schedule.
class VirtualClock {
 public:
  SimTime now() const { return now_; }

  /// Advance by a non-negative duration.
  void advance(SimTime dt) {
    RCS_CHECK_MSG(dt >= 0.0, "clock cannot move backwards by " << dt);
    now_ += dt;
  }

  /// Move forward to `t` if `t` is later; never moves backwards.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  SimTime now_ = 0.0;
};

/// One sent message as seen by the timing layer — recorded when message
/// logging is enabled, consumed by net::analyze_contention.
struct MessageEvent {
  int src = -1;
  int dst = -1;
  std::uint64_t bytes = 0;
  SimTime depart = 0.0;   // when the transfer started
  SimTime arrival = 0.0;  // when the payload became available
};

/// Count `bytes` memcpy'd into or out of a message payload under the
/// `net.bytes_copied` counter (no-op when RCS_METRICS is off). Packs,
/// Payload::copy_of and owning decodes report here, so the copy volume of a
/// run is a repeatable count next to `net.bytes_sent`.
void note_bytes_copied(std::uint64_t bytes);

/// Immutable, reference-counted message bytes. The sender fills the buffer
/// exactly once (Payload::build or copy_of); after that nobody can write
/// it, so one Payload can be sent to any number of ranks and read in place
/// by every receiver. Copying a Payload shares the buffer (a refcount
/// bump); the buffer is freed when the last holder — a mailbox, a Message,
/// a Request or a MatrixMsg — drops it. The buffer is aligned for doubles.
class Payload {
 public:
  Payload() = default;

  /// Allocate `bytes` bytes without zero-filling them, let `fill(std::byte*)`
  /// write every one of them, then freeze the buffer.
  template <typename Fill>
  static Payload build(std::size_t bytes, Fill&& fill) {
    Payload p;
    if (bytes == 0) return p;
    auto words = std::make_shared_for_overwrite<double[]>(
        (bytes + sizeof(double) - 1) / sizeof(double));
    std::byte* out = reinterpret_cast<std::byte*>(words.get());
    fill(out);
    p.buf_ = std::shared_ptr<const std::byte[]>(std::move(words), out);
    p.size_ = bytes;
    return p;
  }

  /// A payload holding a copy of `bytes` bytes at `data`.
  static Payload copy_of(const void* data, std::size_t bytes);

  const std::byte* data() const { return buf_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// The shared buffer itself (null when empty) — lets callers observe its
  /// lifetime, e.g. through a weak_ptr.
  const std::shared_ptr<const std::byte[]>& buffer() const { return buf_; }

 private:
  std::shared_ptr<const std::byte[]> buf_;
  std::size_t size_ = 0;
};

/// A received message: payload plus provenance and simulated arrival time.
/// Copying a Message shares its payload.
struct Message {
  int src = -1;
  int tag = -1;
  SimTime depart = 0.0;           // simulated time the transfer started
  SimTime arrival = 0.0;          // simulated time the payload is available
  Payload payload;

  /// Copy the payload out as a vector of doubles.
  std::vector<double> as_doubles() const {
    RCS_CHECK_MSG(payload.size() % sizeof(double) == 0,
                  "payload is not a whole number of doubles");
    std::vector<double> out(payload.size() / sizeof(double));
    if (!out.empty()) std::memcpy(out.data(), payload.data(), payload.size());
    note_bytes_copied(payload.size());
    return out;
  }

  /// Copy the payload out as a single trivially-copyable value.
  template <typename T>
  T as() const {
    static_assert(std::is_trivially_copyable_v<T>);
    RCS_CHECK_MSG(payload.size() == sizeof(T), "payload size mismatch");
    T v;
    std::memcpy(&v, payload.data(), sizeof(T));
    note_bytes_copied(sizeof(T));
    return v;
  }
};

class World;
class Comm;

/// Thrown out of blocked mailbox waits when another rank's main function
/// failed: the World poisons every mailbox so no rank hangs forever waiting
/// for a message its dead peer will never send. World::run swallows these
/// secondary errors and rethrows the original rank exception.
struct WorldAborted : Error {
  explicit WorldAborted(const std::string& what) : Error(what) {}
};

/// Thrown when a rank fail-stops under an injected FaultPlan crash, and out
/// of receives/waits on a peer that has already failed. Distinct from
/// WorldAborted: a RankFailed world keeps running — survivors observe the
/// failure per-operation and may catch it to degrade gracefully, whereas
/// WorldAborted means the whole run is unwinding after an unexpected error.
struct RankFailed : Error {
  RankFailed(int failed_rank, const std::string& what)
      : Error(what), rank(failed_rank) {}
  int rank;  // the rank that fail-stopped (may be the thrower or a peer)
};

/// Comm/transfer overlap accounting for one phase label: how much of the
/// simulated transfer time of received messages was hidden behind the
/// receiver's own compute (clock already past the wire interval when the
/// wait resolved) versus visible as a stall.
struct OverlapStats {
  SimTime hidden_s = 0.0;   // transfer seconds overlapped with compute
  SimTime visible_s = 0.0;  // transfer seconds the receiver stalled on
  SimTime total_s = 0.0;    // total wire seconds of received messages

  /// Fraction of transfer time hidden behind compute (0 when no transfers).
  double efficiency() const { return total_s > 0.0 ? hidden_s / total_s : 0.0; }

  OverlapStats& operator+=(const OverlapStats& o) {
    hidden_s += o.hidden_s;
    visible_s += o.visible_s;
    total_s += o.total_s;
    return *this;
  }
};

/// Handle to a posted nonblocking receive (Comm::irecv). Move-only; exactly
/// one wait() consumes the message. test() peeks the mailbox without
/// consuming anything and without touching the simulated clock, so it is
/// safe for opportunistic progress — but its answer depends on real thread
/// interleaving, so charging different *clock* costs on its outcome would
/// break simulated-time determinism (wait() never does).
class Request {
 public:
  Request() = default;
  Request(Request&& o) noexcept { *this = std::move(o); }
  Request& operator=(Request&& o) noexcept {
    comm_ = o.comm_;
    src_ = o.src_;
    tag_ = o.tag_;
    phase_ = o.phase_;
    done_ = o.done_;
    msg_ = std::move(o.msg_);
    o.comm_ = nullptr;
    o.done_ = false;
    return *this;
  }
  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  /// True while a wait() is still owed (completed requests stay valid: their
  /// wait() re-returns the cached message).
  bool valid() const { return comm_ != nullptr; }

  /// Non-blocking: has the matching message already been delivered (i.e.
  /// would wait() return without blocking the thread)? Returns true after a
  /// completed wait(), false on an empty or moved-from request.
  bool test() const;

  /// Block (wall clock) until the message is available, advance the rank's
  /// simulated clock to at least its arrival, and return it. Idempotent:
  /// waiting again returns the same message (sharing its payload, so the
  /// same data() pointer) with no further clock effect. Throws Error on an
  /// empty/moved-from request, WorldAborted if a peer rank failed
  /// unexpectedly, RankFailed if the source fail-stopped under a FaultPlan
  /// before sending.
  Message wait();

  /// wait() with a simulated-time budget measured from the call: if the
  /// message's arrival lands past `clock.now() + timeout_s` (or the source
  /// fail-stopped), sets *timed_out, advances the clock only to the
  /// deadline, and returns the late message (src = -1 if the peer died
  /// without sending). Deterministic: the verdict depends on simulated
  /// arrival times only, never on wall-clock scheduling.
  Message wait_deadline(SimTime timeout_s, bool* timed_out);

 private:
  friend class Comm;
  Request(Comm* comm, int src, int tag, const char* phase)
      : comm_(comm), src_(src), tag_(tag), phase_(phase) {}

  Comm* comm_ = nullptr;
  int src_ = -1;
  int tag_ = -1;
  const char* phase_ = nullptr;
  bool done_ = false;  // wait() completed; msg_ caches the result
  Message msg_;
};

/// A rank's handle to the world: MPI-flavoured operations plus the rank's
/// virtual clock. One Comm per rank, used only from that rank's thread.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Point-to-point send of an immutable payload. Charges
  /// `transfer_time(payload.size())` to this rank's clock; the message
  /// arrives at the charged completion time. The receiver gets the same
  /// buffer — no bytes are copied — so one payload can be sent to many
  /// ranks while every destination is still charged on the wire.
  /// All point-to-point operations validate their arguments: the peer rank
  /// must be in [0, size) and distinct from this rank, and user tags must be
  /// non-negative (negative tags are reserved for internal collectives) —
  /// violations throw a descriptive Error instead of indexing mailboxes out
  /// of bounds.
  void send_payload(int dst, int tag, Payload payload);

  /// DMA-style non-blocking send: the transfer occupies this rank's NIC
  /// timeline instead of the CPU (the RapidArray engines on XD1 can move
  /// data without the processor). The CPU pays only the per-message setup
  /// latency; the message arrives when the NIC finishes. Ordering with
  /// other isends from this rank is preserved (one NIC, serialized).
  void isend_payload(int dst, int tag, Payload payload);

  /// send_payload / isend_payload of a copy of `bytes` bytes at `data`.
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes) {
    send_payload(dst, tag, Payload::copy_of(data, bytes));
  }
  void isend_bytes(int dst, int tag, const void* data, std::size_t bytes) {
    isend_payload(dst, tag, Payload::copy_of(data, bytes));
  }

  /// Simulated time this rank's NIC becomes idle.
  SimTime nic_free_at() const { return nic_busy_until_; }

  /// Blocking receive from a specific source and tag. The clock advances to
  /// at least the message's simulated arrival. When `overlap_phase` is
  /// given, the message's wire time is attributed to that phase's
  /// OverlapStats (hidden vs visible relative to this clock). Throws
  /// RankFailed when `src` fail-stopped before sending the message.
  Message recv(int src, int tag, const char* overlap_phase = nullptr);

  /// recv() with a simulated-time budget: if the message's arrival lands
  /// past `clock.now() + timeout_s` (or the source fail-stopped), sets
  /// *timed_out, advances the clock only to the deadline, and returns the
  /// late message (src = -1 when the peer died without sending) so the
  /// caller can degrade gracefully instead of stalling on a straggler.
  Message recv_deadline(int src, int tag, SimTime timeout_s, bool* timed_out,
                        const char* overlap_phase = nullptr);

  /// recv_deadline with bounded retry/backoff: the deadline is extended
  /// `max_retries` times, each extension `backoff` times longer than the
  /// last. Sets *gave_up when the message misses every extended deadline;
  /// the clock then stops at the last deadline. Deterministic for the same
  /// reason recv_deadline is: only simulated arrival times are compared.
  Message recv_retry(int src, int tag, SimTime timeout_s, int max_retries,
                     double backoff, bool* gave_up,
                     const char* overlap_phase = nullptr);

  /// Post a nonblocking receive: returns immediately (no clock charge); the
  /// returned Request's wait() completes the receive. Lookahead pipelines
  /// post the next iteration's receives before computing on the current
  /// one, so the transfer streams in behind the compute.
  Request irecv(int src, int tag, const char* overlap_phase = nullptr);

  /// Per-phase transfer-overlap accounting of every labelled receive so far.
  const std::map<std::string, OverlapStats>& overlap_stats() const {
    return overlap_;
  }

  /// Convenience wrappers.
  void send_doubles(int dst, int tag, const double* data, std::size_t count) {
    send_bytes(dst, tag, data, count * sizeof(double));
  }
  template <typename T>
  void send_value(int dst, int tag, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, &v, sizeof(T));
  }

  /// Root-serialized broadcast: root sends to every other rank in turn
  /// (P_t' "transfers ... to all the other nodes"); non-roots receive.
  /// Every rank returns the root's one buffer (the root's own payload comes
  /// back unchanged).
  Payload bcast(int root, int tag, Payload payload);

  /// Binomial-tree broadcast: ceil(log2 p) rounds, each relay forwarding to
  /// its subtree, so the last arrival is ~log2(p) transfer times instead of
  /// the root-serialized (p-1). Every rank must call it; relays forward
  /// the buffer they received, so all ranks share the root's one buffer.
  Payload bcast_tree(int root, int tag, Payload payload);

  /// Barrier (gather-to-0 then release). Synchronizes simulated clocks to
  /// the latest participant (plus the tiny control-message costs).
  void barrier();

  /// This rank's virtual clock (compute charges are applied by the node
  /// model, which shares this clock).
  VirtualClock& clock() { return clock_; }
  const VirtualClock& clock() const { return clock_; }

  /// Attach a per-rank trace recorder: every send/isend/receive is recorded
  /// as a sim::CommEvent (clock interval + wire interval + phase label) for
  /// critical-path analysis. The recorder must outlive the run and must be
  /// private to this rank (recorders are not thread-safe); pass nullptr to
  /// detach (e.g. before an untimed gather). Cleared by each new run().
  void set_trace(sim::TraceRecorder* trace) { trace_ = trace; }

  /// Total bytes this rank has sent (for reports).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

  /// Injection accounting for this rank under the World's FaultPlan (link
  /// degradation seconds, self-crash). Zeroed when no plan is installed.
  const sim::FaultStats& fault_stats() const { return fault_stats_; }

 private:
  friend class World;
  friend class Request;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  void log_message(int dst, std::uint64_t bytes, SimTime depart,
                   SimTime arrival);

  /// Take the message, advance the clock, and attribute its wire time to
  /// `overlap_phase` (shared by recv and Request::wait).
  Message complete_recv(int src, int tag, const char* overlap_phase);

  /// Accept a taken message: attribute its wire time to `overlap_phase` and
  /// advance the clock to its arrival.
  void finish_recv(const Message& msg, const char* overlap_phase);

  /// Deadline variant shared by recv_deadline, recv_retry and
  /// Request::wait_deadline.
  Message complete_recv_deadline(int src, int tag, SimTime deadline,
                                 bool* timed_out, const char* overlap_phase);

  /// Internal send/recv that accept reserved (negative) tags — the public
  /// operations validate user tags and then route through these.
  void send_any_tag(int dst, int tag, Payload payload);
  Message recv_any_tag(int src, int tag, const char* overlap_phase);

  /// Fail-stop checkpoint: when the installed FaultPlan crashes this rank
  /// at t <= now, mark the rank failed, wake every blocked peer, and throw
  /// RankFailed. Called on entry to every communication operation — crashes
  /// manifest at the first message the dead rank would have touched.
  void check_crash();

  /// Per-message wire parameters: the network's nominal latency/bandwidth,
  /// degraded and jittered by the FaultPlan when one is installed (also
  /// advances the deterministic per-rank message sequence counter).
  sim::LinkCost wire_cost(int dst, std::uint64_t bytes);

  /// Restore construction-time state so a World can be run() again.
  void reset_for_run();

  /// Scoped collective-context label: internal sends/receives issued while
  /// a scope is live are attributed to the collective ("barrier", "bcast",
  /// ...) instead of the generic "send"/"recv".
  class CollScope {
   public:
    CollScope(Comm& c, const char* label) : c_(c), prev_(c.coll_label_) {
      c_.coll_label_ = label;
    }
    ~CollScope() { c_.coll_label_ = prev_; }
    CollScope(const CollScope&) = delete;
    CollScope& operator=(const CollScope&) = delete;

   private:
    Comm& c_;
    const char* prev_;
  };

  /// Trace hooks (no-ops when no recorder is attached).
  void note_send_trace(sim::CommEvent::Kind kind, int dst, SimTime t0,
                       SimTime depart, SimTime arrival, std::uint64_t bytes);
  void note_recv_trace(const Message& msg, SimTime before,
                       const char* overlap_phase);

  /// Telemetry: bump the global + per-rank message/byte counters (no-op
  /// when RCS_METRICS is off). Handles resolve lazily, once per Comm.
  void note_send_metrics(std::uint64_t bytes);

  World* world_;
  int rank_;
  VirtualClock clock_;
  SimTime nic_busy_until_ = 0.0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t msg_seq_ = 0;  // per-rank send ordinal (fault jitter key)
  sim::FaultStats fault_stats_;
  obs::Counter* metric_msgs_ = nullptr;   // "net.rank<r>.msgs_sent"
  obs::Counter* metric_bytes_ = nullptr;  // "net.rank<r>.bytes_sent"
  std::vector<MessageEvent> sent_log_;  // only filled when logging enabled
  std::map<std::string, OverlapStats> overlap_;  // labelled receives only
  sim::TraceRecorder* trace_ = nullptr;   // per-rank comm-event sink
  const char* coll_label_ = nullptr;      // active collective context
};

/// The set of ranks plus their mailboxes. Construct with the node count and
/// network parameters, then `run` a per-rank main function.
class World {
 public:
  World(int size, NetworkParams net);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return size_; }
  const NetworkParams& network() const { return net_; }

  /// Run every rank's rank_main to completion and return. By default ranks
  /// execute as cooperative fibers multiplexed over the pool's threads; the
  /// explicit kThreadPerRank mode (set_max_workers) gives each rank an OS
  /// thread instead. The semantics are identical either way — simulated
  /// clocks, FIFO per-(src,tag) delivery, poison/RankFailed propagation,
  /// and FaultPlan replay do not depend on the mode (receives name their
  /// source and tag, and per-pair order is fixed by the sender's program
  /// order, so no scheduler interleaving is observable). Rethrows the first
  /// rank exception after joining; when one rank fails, every mailbox is
  /// poisoned so peers blocked in recv/wait/
  /// barrier wake with WorldAborted instead of hanging (those secondary
  /// aborts are swallowed — the original exception is what propagates).
  /// The Comms (and their clocks / byte counters) remain inspectable
  /// afterwards. Calling run() again first resets all per-run state
  /// (clocks, NIC timelines, byte counters, send logs, undelivered
  /// messages), so a World is reusable and each run starts from t = 0.
  void run(const std::function<void(Comm&)>& rank_main);

  /// Rank r's Comm — valid between construction and destruction; read its
  /// clock after run() to get per-node finish times.
  Comm& comm(int rank);

  /// Latest simulated clock across ranks (the run's makespan) — call after
  /// run().
  SimTime makespan() const;

  /// Record every message sent during run() (off by default). Call before
  /// run(); retrieve with message_log() afterwards.
  void set_message_logging(bool enabled) { log_messages_ = enabled; }
  bool message_logging() const { return log_messages_; }

  /// All messages sent during the run, in departure order.
  std::vector<MessageEvent> message_log() const;

  /// Install a fault plan for subsequent run()s (nullptr = fault-free; the
  /// plan must outlive the runs). With a plan, sends see degraded/jittered
  /// links, ranks fail-stop at their crash times, and receives from failed
  /// peers throw RankFailed.
  void set_fault_plan(const sim::FaultPlan* plan) { fault_plan_ = plan; }
  const sim::FaultPlan* fault_plan() const { return fault_plan_; }

  /// Ranks that fail-stopped during the last run(), ascending.
  std::vector<int> failed_ranks() const;

  /// Explicit thread-per-rank execution (see set_max_workers): one OS
  /// thread per rank, blocking on condition variables, beside the pool's
  /// threads. Never chosen by default. It exists so that the scheduler
  /// cross-check tests can run MiniMPI under real preemptive threads, where
  /// the thread sanitizer sees every rank on its own thread.
  static constexpr int kThreadPerRank = -1;

  /// Rank scheduling for run():
  ///   0 (default)      — auto: the fiber scheduler with min(pool threads,
  ///                      size()) worker loops, at every world size. The
  ///                      loops are hosted on the global ThreadPool's
  ///                      threads, so the process runs no more OS threads
  ///                      than the pool has, and a loop with no ready rank
  ///                      runs chunks of the other ranks' parallel_for
  ///                      jobs. The RCS_MAX_WORKERS environment variable
  ///                      (same encoding as this knob) overrides auto.
  ///   w > 0            — the fiber scheduler with at most w worker loops
  ///                      (effective concurrency is additionally capped by
  ///                      the pool's thread count).
  ///   kThreadPerRank   — one OS thread per rank (see above).
  /// Outputs, simulated clocks and traces are identical in every mode.
  void set_max_workers(int max_workers);
  int max_workers() const { return max_workers_; }

  /// Per-fiber stack size for fiber-mode runs; 0 = default (the
  /// RCS_FIBER_STACK_KB environment variable, or 256 KiB — 1 MiB under
  /// sanitizers). Rank mains that put large matrices on the stack need more;
  /// the guard page below each stack turns overflow into a fault.
  void set_fiber_stack_bytes(std::size_t bytes) { fiber_stack_bytes_ = bytes; }

 private:
  friend class Comm;
  friend class Request;

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Message> queue;
    bool poisoned = false;  // a peer rank failed; waits must not block
    /// Rank fibers parked in take() on this box. A waiter registers here
    /// under `mu` before parking; wakers splice the list under `mu` and
    /// wake each fiber exactly once (the fiber analogue of cv.notify_all).
    std::vector<common::Fiber*> fiber_waiters;
  };

  void deliver(int dst, Message msg);
  Message take(int dst, int src, int tag);
  bool poll(int dst, int src, int tag);

  /// Wake every blocked take() with WorldAborted (called on first rank
  /// failure so the surviving ranks cannot deadlock on a dead peer).
  void poison_mailboxes();

  /// Mark `rank` fail-stopped and wake every blocked take() so waits on the
  /// dead rank turn into RankFailed instead of hanging (other traffic keeps
  /// flowing — unlike poison_mailboxes, the world stays alive).
  void mark_failed(int rank);
  bool is_failed(int rank) const {
    return failed_[static_cast<std::size_t>(rank)].load(
        std::memory_order_acquire);
  }

  /// Wake everyone blocked in take() on `box`: notify the cv (thread-mode
  /// waiters) and wake every spliced fiber waiter. `spliced` must have been
  /// swapped out of box.fiber_waiters under box.mu by the caller.
  static void wake_box_waiters(Mailbox& box,
                               std::vector<common::Fiber*>& spliced);

  /// The scheduling mode for this run: kThreadPerRank, or a positive fiber
  /// worker count (resolves the auto mode and RCS_MAX_WORKERS).
  int resolve_workers() const;

  int size_;
  NetworkParams net_;
  int max_workers_ = 0;                 // see set_max_workers
  std::size_t fiber_stack_bytes_ = 0;   // see set_fiber_stack_bytes
  bool log_messages_ = false;
  bool ran_ = false;  // a run() completed; the next run() resets state
  const sim::FaultPlan* fault_plan_ = nullptr;
  std::unique_ptr<std::atomic<bool>[]> failed_;  // fail-stopped ranks
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Comm>> comms_;
};

}  // namespace rcs::net
