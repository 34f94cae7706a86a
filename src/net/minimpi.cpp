#include "net/minimpi.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace rcs::net {

namespace {

/// World-level telemetry: totals over all ranks plus per-collective counts.
struct NetMetrics {
  obs::Counter& msgs;
  obs::Counter& bytes;
  obs::Counter& copied;
  obs::Counter& bcasts;
  obs::Counter& barriers;

  static NetMetrics& get() {
    auto& reg = obs::Registry::global();
    static NetMetrics m{reg.counter("net.msgs_sent"),
                        reg.counter("net.bytes_sent"),
                        reg.counter("net.bytes_copied"),
                        reg.counter("net.collectives.bcast"),
                        reg.counter("net.collectives.barrier")};
    return m;
  }
};

}  // namespace

void note_bytes_copied(std::uint64_t bytes) {
  if (obs::metrics_enabled()) NetMetrics::get().copied.add(bytes);
}

Payload Payload::copy_of(const void* data, std::size_t bytes) {
  note_bytes_copied(bytes);
  return build(bytes, [&](std::byte* out) { std::memcpy(out, data, bytes); });
}

int Comm::size() const { return world_->size(); }

void Comm::note_send_metrics(std::uint64_t bytes) {
  if (!obs::metrics_enabled()) return;
  if (metric_msgs_ == nullptr) {
    auto& reg = obs::Registry::global();
    const std::string prefix = "net.rank" + std::to_string(rank_);
    metric_msgs_ = &reg.counter(prefix + ".msgs_sent");
    metric_bytes_ = &reg.counter(prefix + ".bytes_sent");
  }
  metric_msgs_->add(1);
  metric_bytes_->add(bytes);
  NetMetrics& nm = NetMetrics::get();
  nm.msgs.add(1);
  nm.bytes.add(bytes);
}

void Comm::log_message(int dst, std::uint64_t bytes, SimTime depart,
                       SimTime arrival) {
  if (!world_->message_logging()) return;
  sent_log_.push_back(MessageEvent{rank_, dst, bytes, depart, arrival});
}

void Comm::note_send_trace(sim::CommEvent::Kind kind, int dst, SimTime t0,
                           SimTime depart, SimTime arrival,
                           std::uint64_t bytes) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  sim::CommEvent ev;
  ev.kind = kind;
  ev.rank = rank_;
  ev.peer = dst;
  ev.t0 = t0;
  ev.t1 = clock_.now();
  ev.depart = depart;
  ev.arrival = arrival;
  ev.bytes = bytes;
  ev.phase = coll_label_ != nullptr
                 ? coll_label_
                 : (kind == sim::CommEvent::Kind::NicSend ? "isend" : "send");
  trace_->add_comm(std::move(ev));
}

void Comm::note_recv_trace(const Message& msg, SimTime before,
                           const char* overlap_phase) {
  if (trace_ == nullptr || !trace_->enabled()) return;
  sim::CommEvent ev;
  ev.kind = sim::CommEvent::Kind::Recv;
  ev.rank = rank_;
  ev.peer = msg.src;
  ev.t0 = before;
  ev.t1 = clock_.now();
  // A peer that died without sending leaves no wire interval: pin it to the
  // wait's end so the analyzer sees a zero-length (fully visible) transfer.
  ev.depart = msg.src >= 0 ? msg.depart : ev.t1;
  ev.arrival = msg.src >= 0 ? msg.arrival : ev.t1;
  ev.bytes = msg.payload.size();
  ev.phase = overlap_phase != nullptr
                 ? overlap_phase
                 : (coll_label_ != nullptr ? coll_label_ : "recv");
  trace_->add_comm(std::move(ev));
}

void Comm::check_crash() {
  const sim::FaultPlan* plan = world_->fault_plan_;
  if (plan == nullptr) return;
  const SimTime at = plan->crash_time(rank_);
  if (clock_.now() < at) return;
  if (!world_->is_failed(rank_)) {
    fault_stats_.crashes += 1;
    sim::note_crash_injected();
    world_->mark_failed(rank_);
  }
  throw RankFailed(rank_, "rank " + std::to_string(rank_) +
                              " fail-stopped at simulated t=" +
                              std::to_string(at) + "s (FaultPlan crash)");
}

sim::LinkCost Comm::wire_cost(int dst, std::uint64_t bytes) {
  sim::LinkCost base;
  base.latency_s = world_->network().latency_s;
  base.bytes_per_s = world_->network().bytes_per_s;
  const sim::FaultPlan* plan = world_->fault_plan_;
  if (plan == nullptr) return base;
  const sim::LinkCost cost =
      plan->link_cost(rank_, dst, clock_.now(), base, msg_seq_++);
  const double b = static_cast<double>(bytes);
  const SimTime added = (cost.latency_s + b / cost.bytes_per_s) -
                        (base.latency_s + b / base.bytes_per_s);
  if (added > 0.0) {
    fault_stats_.link_hits += 1;
    fault_stats_.link_added_s += added;
  }
  return cost;
}

void Comm::send_payload(int dst, int tag, Payload payload) {
  RCS_CHECK_MSG(dst >= 0 && dst < world_->size(), "send to bad rank " << dst);
  RCS_CHECK_MSG(dst != rank_, "send to self (rank " << rank_ << ")");
  RCS_CHECK_MSG(tag >= 0,
                "send with reserved tag " << tag << " (user tags must be >= 0)");
  send_any_tag(dst, tag, std::move(payload));
}

void Comm::send_any_tag(int dst, int tag, Payload payload) {
  check_crash();
  obs::ScopedTimer span("send", "net");
  const std::uint64_t bytes = payload.size();
  note_send_metrics(bytes);
  // §4.3: the processor drives MPI, so the CPU is busy for the whole
  // serialization; arrival coincides with send completion.
  const sim::LinkCost cost = wire_cost(dst, bytes);
  const SimTime depart = clock_.now();
  clock_.advance(cost.latency_s + static_cast<double>(bytes) / cost.bytes_per_s);
  bytes_sent_ += bytes;
  log_message(dst, bytes, depart, clock_.now());
  note_send_trace(sim::CommEvent::Kind::Send, dst, depart, depart,
                  clock_.now(), bytes);

  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.depart = depart;
  msg.arrival = clock_.now();
  msg.payload = std::move(payload);
  world_->deliver(dst, std::move(msg));
}

void Comm::isend_payload(int dst, int tag, Payload payload) {
  RCS_CHECK_MSG(dst >= 0 && dst < world_->size(), "isend to bad rank " << dst);
  RCS_CHECK_MSG(dst != rank_, "isend to self (rank " << rank_ << ")");
  RCS_CHECK_MSG(
      tag >= 0, "isend with reserved tag " << tag << " (user tags must be >= 0)");
  check_crash();
  obs::ScopedTimer span("isend", "net");
  const std::uint64_t bytes = payload.size();
  note_send_metrics(bytes);
  // CPU pays only the DMA setup; the NIC serializes the transfer.
  const sim::LinkCost cost = wire_cost(dst, bytes);
  const SimTime setup_t0 = clock_.now();
  clock_.advance(cost.latency_s);
  const SimTime start = std::max(clock_.now(), nic_busy_until_);
  nic_busy_until_ = start + static_cast<double>(bytes) / cost.bytes_per_s;
  bytes_sent_ += bytes;
  log_message(dst, bytes, start, nic_busy_until_);
  note_send_trace(sim::CommEvent::Kind::NicSend, dst, setup_t0, start,
                  nic_busy_until_, bytes);

  Message msg;
  msg.src = rank_;
  msg.tag = tag;
  msg.depart = start;
  msg.arrival = nic_busy_until_;
  msg.payload = std::move(payload);
  world_->deliver(dst, std::move(msg));
}

Payload Comm::bcast_tree(int root, int tag, Payload payload) {
  const int p = size();
  RCS_CHECK_MSG(root >= 0 && root < p, "bcast_tree bad root " << root);
  if (obs::metrics_enabled() && rank_ == root) NetMetrics::get().bcasts.add(1);
  if (p == 1) return payload;
  CollScope coll(*this, "bcast");
  // Classic binomial tree on virtual ranks (root = virtual 0): a rank's
  // parent clears its lowest set bit; it forwards to vrank + s for every
  // power of two s below that bit, largest first, so the last arrival is
  // ceil(log2 p) transfer times after the root starts.
  const int vrank = (rank_ - root + p) % p;
  int rounds = 0;
  while ((1 << rounds) < p) ++rounds;
  const int low = vrank == 0 ? (1 << rounds) : (vrank & -vrank);
  if (vrank != 0) {
    const int parent = (vrank - low + root) % p;
    payload = recv(parent, tag).payload;
  }
  for (int s = low >> 1; s >= 1; s >>= 1) {
    if (vrank + s < p) {
      const int child = (vrank + s + root) % p;
      send_payload(child, tag, payload);
    }
  }
  return payload;
}

void Comm::finish_recv(const Message& msg, const char* overlap_phase) {
  const SimTime before = clock_.now();
  if (overlap_phase != nullptr) {
    // Wire-time attribution: of the message's [depart, arrival] interval,
    // the part already behind this rank's clock was hidden behind its own
    // compute; the rest is a visible stall the lookahead failed to cover.
    const SimTime total = std::max(0.0, msg.arrival - msg.depart);
    const SimTime visible =
        std::min(total, std::max(0.0, msg.arrival - clock_.now()));
    OverlapStats& st = overlap_[overlap_phase];
    st.total_s += total;
    st.visible_s += visible;
    st.hidden_s += total - visible;
  }
  clock_.advance_to(msg.arrival);
  note_recv_trace(msg, before, overlap_phase);
}

Message Comm::complete_recv(int src, int tag, const char* overlap_phase) {
  Message msg = world_->take(rank_, src, tag);
  finish_recv(msg, overlap_phase);
  return msg;
}

Message Comm::complete_recv_deadline(int src, int tag, SimTime deadline,
                                     bool* timed_out,
                                     const char* overlap_phase) {
  if (timed_out != nullptr) *timed_out = false;
  const SimTime wait_t0 = clock_.now();
  Message msg;
  try {
    msg = world_->take(rank_, src, tag);
  } catch (const RankFailed&) {
    // The peer fail-stopped without sending: give up at the deadline.
    if (timed_out != nullptr) *timed_out = true;
    fault_stats_.straggler_timeouts += 1;
    sim::note_straggler_timeout();
    clock_.advance_to(deadline);
    Message dead;  // src = -1: note_recv_trace pins the empty wire interval
    note_recv_trace(dead, wait_t0, overlap_phase);
    return Message{};
  }
  if (msg.arrival > deadline) {
    // Late: the message is drained (it exists; the payload may serve
    // diagnostics) but the clock stops at the deadline, so the caller can
    // recompute the straggler's work without inheriting its delay. The
    // verdict compares simulated times only — wall-clock scheduling cannot
    // change it.
    if (timed_out != nullptr) *timed_out = true;
    fault_stats_.straggler_timeouts += 1;
    sim::note_straggler_timeout();
    clock_.advance_to(deadline);
    // Deadline-bound wait: t1 = deadline != arrival, so the analyzer treats
    // it as a local stall instead of jumping over the (late) wire.
    note_recv_trace(msg, wait_t0, overlap_phase);
    return msg;
  }
  finish_recv(msg, overlap_phase);
  return msg;
}

Message Comm::recv(int src, int tag, const char* overlap_phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(), "recv from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "recv from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(
      tag >= 0, "recv with reserved tag " << tag << " (user tags must be >= 0)");
  return recv_any_tag(src, tag, overlap_phase);
}

Message Comm::recv_any_tag(int src, int tag, const char* overlap_phase) {
  check_crash();
  // The span covers the blocking mailbox wait — idle time shows up in the
  // trace as long "recv" slices on the waiting rank's lane.
  obs::ScopedTimer span("recv", "net");
  return complete_recv(src, tag, overlap_phase);
}

Message Comm::recv_deadline(int src, int tag, SimTime timeout_s,
                            bool* timed_out, const char* overlap_phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(),
                "recv_deadline from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "recv_deadline from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(tag >= 0, "recv_deadline with reserved tag " << tag);
  RCS_CHECK_MSG(timeout_s > 0.0, "recv_deadline timeout must be positive");
  check_crash();
  obs::ScopedTimer span("recv", "net");
  return complete_recv_deadline(src, tag, clock_.now() + timeout_s, timed_out,
                                overlap_phase);
}

Message Comm::recv_retry(int src, int tag, SimTime timeout_s, int max_retries,
                         double backoff, bool* gave_up,
                         const char* overlap_phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(),
                "recv_retry from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "recv_retry from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(tag >= 0, "recv_retry with reserved tag " << tag);
  RCS_CHECK_MSG(timeout_s > 0.0, "recv_retry timeout must be positive");
  RCS_CHECK_MSG(max_retries >= 0 && backoff >= 1.0,
                "recv_retry needs max_retries >= 0 and backoff >= 1");
  check_crash();
  obs::ScopedTimer span("recv", "net");
  // Each retry extends the deadline by `backoff` times the previous grant.
  // Deadlines only grow, so the arrival fits some extension exactly when it
  // fits the last one: resolve against the full budget, and a give-up
  // leaves the clock at the last deadline.
  SimTime deadline = clock_.now() + timeout_s;
  SimTime grant = timeout_s;
  for (int retry = 0; retry < max_retries; ++retry) {
    grant *= backoff;
    deadline += grant;
  }
  return complete_recv_deadline(src, tag, deadline, gave_up, overlap_phase);
}

Request Comm::irecv(int src, int tag, const char* overlap_phase) {
  RCS_CHECK_MSG(src >= 0 && src < world_->size(),
                "irecv from bad rank " << src);
  RCS_CHECK_MSG(src != rank_, "irecv from self (rank " << rank_ << ")");
  RCS_CHECK_MSG(
      tag >= 0, "irecv with reserved tag " << tag << " (user tags must be >= 0)");
  check_crash();
  // Posting is free on the simulated clock: the NIC/mailbox accepts the
  // message whenever it arrives; only wait() synchronizes the timeline.
  return Request(this, src, tag, overlap_phase);
}

bool Request::test() const {
  if (comm_ == nullptr) return false;  // empty or moved-from: nothing pending
  if (done_) return true;              // completed: wait() returns immediately
  return comm_->world_->poll(comm_->rank_, src_, tag_);
}

Message Request::wait() {
  RCS_CHECK_MSG(comm_ != nullptr, "wait() on an empty or moved-from Request");
  if (done_) return msg_;  // idempotent: re-returns the cached message
  obs::ScopedTimer span("wait", "net");
  comm_->check_crash();
  msg_ = comm_->complete_recv(src_, tag_, phase_);
  done_ = true;
  return msg_;
}

Message Request::wait_deadline(SimTime timeout_s, bool* timed_out) {
  RCS_CHECK_MSG(comm_ != nullptr,
                "wait_deadline() on an empty or moved-from Request");
  RCS_CHECK_MSG(timeout_s > 0.0, "wait_deadline timeout must be positive");
  if (timed_out != nullptr) *timed_out = false;
  if (done_) return msg_;
  obs::ScopedTimer span("wait", "net");
  comm_->check_crash();
  msg_ = comm_->complete_recv_deadline(
      src_, tag_, comm_->clock().now() + timeout_s, timed_out, phase_);
  done_ = true;
  return msg_;
}

void Comm::reset_for_run() {
  clock_ = VirtualClock();
  nic_busy_until_ = 0.0;
  bytes_sent_ = 0;
  msg_seq_ = 0;
  fault_stats_ = sim::FaultStats();
  sent_log_.clear();
  overlap_.clear();
  trace_ = nullptr;
  coll_label_ = nullptr;
}

Payload Comm::bcast(int root, int tag, Payload payload) {
  const int p = size();
  RCS_CHECK_MSG(root >= 0 && root < p, "bcast bad root " << root);
  if (obs::metrics_enabled() && rank_ == root) NetMetrics::get().bcasts.add(1);
  CollScope coll(*this, "bcast");
  if (rank_ == root) {
    for (int r = 0; r < p; ++r) {
      if (r == root) continue;
      send_payload(r, tag, payload);
    }
    return payload;
  }
  return recv(root, tag).payload;
}

void Comm::barrier() {
  // Gather-to-0, then root releases everyone. Tags in a reserved range.
  constexpr int kGatherTag = -1001;
  constexpr int kReleaseTag = -1002;
  const int p = size();
  if (p == 1) return;
  if (obs::metrics_enabled() && rank_ == 0) NetMetrics::get().barriers.add(1);
  obs::ScopedTimer span("barrier", "net");
  CollScope coll(*this, "barrier");
  const std::byte token{0};
  if (rank_ == 0) {
    SimTime latest = clock_.now();
    for (int r = 1; r < p; ++r) {
      Message m = recv_any_tag(r, kGatherTag, nullptr);
      latest = std::max(latest, m.arrival);
    }
    clock_.advance_to(latest);
    const Payload release = Payload::copy_of(&token, 1);
    for (int r = 1; r < p; ++r) send_any_tag(r, kReleaseTag, release);
  } else {
    send_any_tag(0, kGatherTag, Payload::copy_of(&token, 1));
    (void)recv_any_tag(0, kReleaseTag, nullptr);
  }
}

World::World(int size, NetworkParams net) : size_(size), net_(net) {
  RCS_CHECK_MSG(size >= 1, "world size must be at least 1, got " << size);
  failed_ = std::make_unique<std::atomic<bool>[]>(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    failed_[static_cast<std::size_t>(r)].store(false,
                                               std::memory_order_relaxed);
  }
  mailboxes_.reserve(static_cast<std::size_t>(size));
  comms_.reserve(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    comms_.push_back(std::unique_ptr<Comm>(new Comm(this, r)));
  }
}

World::~World() = default;

Comm& World::comm(int rank) {
  RCS_CHECK_MSG(rank >= 0 && rank < size_, "bad rank " << rank);
  return *comms_[static_cast<std::size_t>(rank)];
}

SimTime World::makespan() const {
  SimTime t = 0.0;
  for (const auto& c : comms_) t = std::max(t, c->clock().now());
  return t;
}

std::vector<MessageEvent> World::message_log() const {
  std::vector<MessageEvent> all;
  for (const auto& c : comms_) {
    all.insert(all.end(), c->sent_log_.begin(), c->sent_log_.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const MessageEvent& a, const MessageEvent& b) {
                     return a.depart < b.depart;
                   });
  return all;
}

void World::wake_box_waiters(Mailbox& box,
                             std::vector<common::Fiber*>& spliced) {
  box.cv.notify_all();
  for (common::Fiber* f : spliced) f->wake();
  spliced.clear();
}

void World::deliver(int dst, Message msg) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::vector<common::Fiber*> waiters;
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queue.push_back(std::move(msg));
    waiters.swap(box.fiber_waiters);
  }
  wake_box_waiters(box, waiters);
}

Message World::take(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  for (;;) {
    auto it = std::find_if(box.queue.begin(), box.queue.end(),
                           [&](const Message& m) {
                             return m.src == src && m.tag == tag;
                           });
    if (it != box.queue.end()) {
      Message msg = std::move(*it);
      box.queue.erase(it);
      return msg;
    }
    // Checked only after the queue search: a message that was delivered
    // before the failure is still consumable; only a wait that would block
    // forever on a dead peer aborts.
    if (box.poisoned) {
      throw WorldAborted("rank " + std::to_string(dst) +
                         " aborted: a peer rank failed while this rank was "
                         "waiting for src=" +
                         std::to_string(src) + " tag=" + std::to_string(tag));
    }
    // A fail-stopped source will never send: surface RankFailed instead of
    // blocking forever. Also after the queue search — pre-crash messages
    // stay consumable, and the crash time is simulated, so which messages
    // precede it is deterministic.
    if (is_failed(src)) {
      throw RankFailed(src, "rank " + std::to_string(dst) +
                                " waiting for src=" + std::to_string(src) +
                                " tag=" + std::to_string(tag) +
                                ", but that rank fail-stopped");
    }
    // Block until a waker (deliver / poison_mailboxes / mark_failed) fires,
    // then re-run the predicate checks above. A rank fiber parks on its own
    // stack — freeing the worker thread to run another rank — while an
    // ordinary rank thread waits on the condition variable; the waiter-list
    // registration below plays the role cv.wait's internal queue plays for
    // threads, and both paths wake through wake_box_waiters.
    if (common::Fiber* self = common::Fiber::current()) {
      box.fiber_waiters.push_back(self);
      common::Fiber::park(lock);
    } else {
      box.cv.wait(lock);
    }
  }
}

bool World::poll(int dst, int src, int tag) {
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dst)];
  std::lock_guard<std::mutex> lock(box.mu);
  if (box.poisoned) return true;  // wait() would throw, not block
  if (std::any_of(box.queue.begin(), box.queue.end(), [&](const Message& m) {
        return m.src == src && m.tag == tag;
      })) {
    return true;
  }
  return is_failed(src);  // wait() would throw RankFailed, not block
}

void World::poison_mailboxes() {
  std::vector<common::Fiber*> waiters;
  for (auto& box : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(box->mu);
      box->poisoned = true;
      waiters.swap(box->fiber_waiters);
    }
    wake_box_waiters(*box, waiters);
  }
}

void World::mark_failed(int rank) {
  // Wakeup-protocol note (the missed-wakeup audit of the `failed_` flag):
  // the release store below happens outside every box mutex, yet no blocked
  // take() can miss it. A waiter's last is_failed check before blocking runs
  // with box.mu held, and it keeps holding box.mu until cv.wait (or
  // Fiber::park) atomically releases the mutex as it blocks — so for each
  // waiter there are only two interleavings:
  //
  //  1. The waiter's lock of box.mu succeeds only after this thread's
  //     lock/unlock below released it. Then store(failed_) sequenced-before
  //     unlock(box.mu) happens-before the waiter's lock — the re-check (or
  //     the pre-wait check) observes the flag and throws.
  //  2. The waiter already held box.mu when this thread arrived at the
  //     lock below. Then the waiter reaches cv.wait/park — which releases
  //     the mutex and is, by then, registered for wakeup — before this
  //     thread can acquire it, so the notify/wake below cannot fire in the
  //     check-to-block window. The woken waiter re-checks under the mutex
  //     and interleaving 1 applies.
  //
  // The lock_guard is intentionally empty for the cv side (the fence
  // through the mutex is all it provides); it additionally splices the
  // fiber-waiter list, which must be consumed under the mutex so each
  // parked fiber earns exactly one wake.
  // Regression: MiniMpiFaults.CrashDuringBlockedRecvStress.
  failed_[static_cast<std::size_t>(rank)].store(true,
                                                std::memory_order_release);
  std::vector<common::Fiber*> waiters;
  for (auto& box : mailboxes_) {
    {
      std::lock_guard<std::mutex> lock(box->mu);
      waiters.swap(box->fiber_waiters);
    }
    wake_box_waiters(*box, waiters);
  }
}

std::vector<int> World::failed_ranks() const {
  std::vector<int> out;
  for (int r = 0; r < size_; ++r) {
    if (is_failed(r)) out.push_back(r);
  }
  return out;
}

void World::set_max_workers(int max_workers) {
  RCS_CHECK_MSG(max_workers >= kThreadPerRank,
                "max_workers must be kThreadPerRank (-1), 0 (auto) or > 0, "
                "got " << max_workers);
  max_workers_ = max_workers;
}

int World::resolve_workers() const {
  int mw = max_workers_;
  if (mw == 0) {
    if (const char* env = std::getenv("RCS_MAX_WORKERS")) {
      const int v = std::atoi(env);
      if (v >= 1 || v == kThreadPerRank) mw = v;
    }
  }
  if (mw == kThreadPerRank) return kThreadPerRank;
  // Auto: one worker loop per pool thread, so the ranks and the kernels'
  // parallel_for chunks share the pool's threads and no more.
  if (mw == 0) mw = common::ThreadPool::global().threads();
  return std::min(mw, size_);
}

void World::run(const std::function<void(Comm&)>& rank_main) {
  if (ran_) {
    // A World is reusable: wipe every per-run artifact (stale clocks, NIC
    // horizons, byte counters, send logs, undelivered messages, poison
    // flags) so the second run is indistinguishable from a fresh World.
    for (auto& box : mailboxes_) {
      std::lock_guard<std::mutex> lock(box->mu);
      box->queue.clear();
      box->poisoned = false;
      box->fiber_waiters.clear();
    }
    for (int r = 0; r < size_; ++r) {
      failed_[static_cast<std::size_t>(r)].store(false,
                                                 std::memory_order_relaxed);
    }
    for (auto& c : comms_) c->reset_for_run();
  }
  ran_ = true;

  std::mutex err_mu;
  std::exception_ptr first_error;
  bool first_is_abort = false;  // held error is a secondary WorldAborted

  // The per-rank body, identical under both schedulers: run the rank's main
  // and classify whatever escapes it. All simulated state lives in the
  // rank's Comm, so the body is agnostic to what carries it (OS thread or
  // fiber).
  auto rank_body = [this, &rank_main, &err_mu, &first_error,
                    &first_is_abort](int r) {
    try {
      rank_main(*comms_[static_cast<std::size_t>(r)]);
    } catch (const WorldAborted&) {
      // Secondary failure induced by the poison below: keep it only
      // until the original exception shows up.
      std::lock_guard<std::mutex> lock(err_mu);
      if (!first_error) {
        first_error = std::current_exception();
        first_is_abort = true;
      }
    } catch (const RankFailed& rf) {
      if (rf.rank == r) {
        // Injected fail-stop of this rank: expected under a FaultPlan.
        // The world keeps running — survivors observe the failure as
        // RankFailed on their own receives and may tolerate it.
      } else {
        // A survivor let a peer's failure escape its main function:
        // the app did not tolerate the fault, so unwind the world
        // like any other error.
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error || first_is_abort) {
            first_error = std::current_exception();
            first_is_abort = false;
          }
        }
        poison_mailboxes();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(err_mu);
        if (!first_error || first_is_abort) {
          first_error = std::current_exception();
          first_is_abort = false;
        }
      }
      // Wake every rank blocked on this (now dead) one so the whole
      // run unwinds instead of hanging.
      poison_mailboxes();
    }
  };

  const int workers = resolve_workers();
  if (workers == kThreadPerRank) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(size_));
    for (int r = 0; r < size_; ++r) {
      threads.emplace_back([r, &rank_body] {
        // Each rank gets its own trace lane, so Perfetto shows per-rank
        // timelines alongside the pool workers'.
        if (obs::trace_enabled()) {
          obs::set_thread_lane("rank " + std::to_string(r));
        }
        rank_body(r);
      });
    }
    for (auto& t : threads) t.join();
  } else {
    // Fiber mode: every rank is a resumable context; take() parks it and
    // the scheduler resumes another runnable rank on the same worker. The
    // lane_name hook keeps per-rank Chrome-trace lanes intact even when
    // many ranks share one OS thread.
    common::FiberScheduler::Options opt;
    opt.workers = workers;
    opt.stack_bytes = fiber_stack_bytes_;
    opt.lane_name = [](int r) { return "rank " + std::to_string(r); };
    common::FiberScheduler::run(size_, opt, rank_body);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rcs::net
