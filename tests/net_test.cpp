// Tests for MiniMPI: point-to-point messaging, collectives, virtual-time
// semantics (§4.3 accounting), determinism, and the matrix channel.

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "net/matrix_channel.hpp"
#include "net/minimpi.hpp"
#include "sim/faults.hpp"

namespace net = rcs::net;
namespace sim = rcs::sim;
using rcs::linalg::Matrix;

namespace {

net::NetworkParams fast_net() {
  net::NetworkParams np;
  np.bytes_per_s = 1e9;
  np.latency_s = 0.0;
  return np;
}

/// A zero-filled payload of `n` bytes.
net::Payload zero_payload(std::size_t n) {
  const std::vector<std::byte> bytes(n);
  return net::Payload::copy_of(bytes.data(), n);
}

TEST(MiniMpi, SendRecvMovesBytes) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const double payload[3] = {1.0, 2.0, 3.0};
      comm.send_doubles(1, 7, payload, 3);
    } else {
      net::Message m = comm.recv(0, 7);
      auto vals = m.as_doubles();
      ASSERT_EQ(vals.size(), 3u);
      EXPECT_EQ(vals[1], 2.0);
      EXPECT_EQ(m.src, 0);
      EXPECT_EQ(m.tag, 7);
    }
  });
}

TEST(MiniMpi, TagMatchingIsSelective) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 111);
      comm.send_value(1, 2, 222);
    } else {
      // Receive out of send order: tag matching must pick the right one.
      EXPECT_EQ(comm.recv(0, 2).as<int>(), 222);
      EXPECT_EQ(comm.recv(0, 1).as<int>(), 111);
    }
  });
}

TEST(MiniMpi, SendChargesSenderClock) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000'000 / 8, 1.0);  // 125 MB -> 0.125 s
      comm.send_doubles(1, 3, big.data(), big.size());
      EXPECT_NEAR(comm.clock().now(), 0.125, 1e-9);
    } else {
      net::Message m = comm.recv(0, 3);
      EXPECT_NEAR(m.arrival, 0.125, 1e-9);
      EXPECT_NEAR(comm.clock().now(), 0.125, 1e-9);
    }
  });
}

TEST(MiniMpi, RecvNeverMovesClockBackwards) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 1);  // tiny: arrives almost immediately
    } else {
      comm.clock().advance(10.0);  // receiver was busy computing
      comm.recv(0, 1);
      EXPECT_GE(comm.clock().now(), 10.0);
    }
  });
}

TEST(MiniMpi, BcastDeliversToAll) {
  net::World world(4, fast_net());
  std::atomic<int> sum{0};
  world.run([&](net::Comm& comm) {
    const double sent[2] = {5.0, 6.0};
    net::Payload payload;
    if (comm.rank() == 2) payload = net::Payload::copy_of(sent, sizeof(sent));
    payload = comm.bcast(2, 9, std::move(payload));
    ASSERT_EQ(payload.size(), sizeof(sent));
    double v[2];
    std::memcpy(v, payload.data(), sizeof(v));
    sum += static_cast<int>(v[0] + v[1]);
  });
  EXPECT_EQ(sum.load(), 4 * 11);
}

TEST(MiniMpi, BcastIsRootSerialized) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s so costs are visible
  net::World world(3, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      // 1 MB -> 1 s per destination.
      comm.bcast(0, 1, zero_payload(1'000'000));
      EXPECT_NEAR(comm.clock().now(), 2.0, 1e-9);  // two serialized sends
    } else {
      comm.bcast(0, 1, net::Payload());
      // rank 1 gets it after 1 s, rank 2 after 2 s.
      EXPECT_NEAR(comm.clock().now(), comm.rank() == 1 ? 1.0 : 2.0, 1e-9);
    }
  });
}

TEST(MiniMpi, BarrierSynchronizesClocks) {
  net::World world(3, fast_net());
  world.run([](net::Comm& comm) {
    comm.clock().advance(comm.rank() * 2.0);  // 0, 2, 4 seconds
    comm.barrier();
    EXPECT_GE(comm.clock().now(), 4.0);
    EXPECT_LT(comm.clock().now(), 4.1);  // only tiny control traffic on top
  });
}

TEST(MiniMpi, MakespanReflectsLatestClock) {
  net::World world(3, fast_net());
  world.run([](net::Comm& comm) {
    comm.clock().advance(comm.rank() == 1 ? 7.0 : 1.0);
  });
  EXPECT_DOUBLE_EQ(world.makespan(), 7.0);
}

TEST(MiniMpi, RankExceptionPropagates) {
  net::World world(2, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 1) throw rcs::Error("boom");
  }),
               rcs::Error);
}

TEST(MiniMpi, SelfSendRejected) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      EXPECT_THROW(comm.send_value(0, 1, 1), rcs::Error);
    }
  });
}

TEST(MiniMpi, DeterministicTimingAcrossRuns) {
  auto run_once = [] {
    net::World world(4, fast_net());
    world.run([](net::Comm& comm) {
      // Ring exchange with growing payloads.
      std::vector<double> v(1000 * (comm.rank() + 1), 1.0);
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + 3) % comm.size();
      comm.send_doubles(next, 1, v.data(), v.size());
      comm.recv(prev, 1);
      comm.barrier();
    });
    return world.makespan();
  };
  const double t1 = run_once();
  const double t2 = run_once();
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(MiniMpi, BytesSentAccounted) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      const double v = 1.0;
      comm.send_doubles(1, 1, &v, 1);
      EXPECT_EQ(comm.bytes_sent(), 8u);
    } else {
      comm.recv(0, 1);
      EXPECT_EQ(comm.bytes_sent(), 0u);
    }
  });
}

TEST(MiniMpi, IsendOverlapsCpu) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s: transfers are slow and visible
  np.latency_s = 1e-6;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);  // 1 MB -> 1 s on the wire
      comm.isend_bytes(1, 3, big.data(), big.size() * 8);
      // The CPU paid only the setup latency.
      EXPECT_NEAR(comm.clock().now(), 1e-6, 1e-9);
      EXPECT_NEAR(comm.nic_free_at(), 1.0 + 1e-6, 1e-6);
    } else {
      net::Message m = comm.recv(0, 3);
      EXPECT_NEAR(m.arrival, 1.0, 1e-3);  // arrival gated on the NIC
      EXPECT_EQ(m.payload.size(), 1'000'000u);
    }
  });
}

TEST(MiniMpi, IsendsSerializeOnTheNic) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  net::World world(3, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> buf(500'000);  // 0.5 s each
      comm.isend_bytes(1, 1, buf.data(), buf.size());
      comm.isend_bytes(2, 1, buf.data(), buf.size());
      EXPECT_NEAR(comm.nic_free_at(), 1.0, 1e-6);
    } else if (comm.rank() == 1) {
      EXPECT_NEAR(comm.recv(0, 1).arrival, 0.5, 1e-3);
    } else {
      EXPECT_NEAR(comm.recv(0, 1).arrival, 1.0, 1e-3);
    }
  });
}

TEST(MiniMpi, TreeBcastDeliversToAll) {
  for (int p : {2, 3, 4, 5, 7, 8}) {
    net::World world(p, fast_net());
    world.run([](net::Comm& comm) {
      std::vector<std::byte> bytes;
      const int root = 1 % comm.size();
      if (comm.rank() == root) bytes.resize(64, std::byte{42});
      const net::Payload payload = comm.bcast_tree(
          root, 9, net::Payload::copy_of(bytes.data(), bytes.size()));
      ASSERT_EQ(payload.size(), 64u);
      EXPECT_EQ(payload.data()[10], std::byte{42});
    });
  }
}

TEST(MiniMpi, TreeBcastBeatsSerialBcastInSimTime) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s
  const std::size_t bytes = 1'000'000;
  auto last_arrival = [&](bool tree) {
    net::World world(8, np);
    world.run([&](net::Comm& comm) {
      net::Payload payload;
      if (comm.rank() == 0) payload = zero_payload(bytes);
      if (tree) {
        comm.bcast_tree(0, 1, std::move(payload));
      } else {
        comm.bcast(0, 1, std::move(payload));
      }
    });
    return world.makespan();
  };
  const double serial = last_arrival(false);
  const double tree = last_arrival(true);
  EXPECT_NEAR(serial, 7.0, 0.01);  // root sends 7 copies back to back
  EXPECT_NEAR(tree, 3.0, 0.01);    // log2(8) rounds
}

TEST(MatrixChannel, RoundTripsStridedViews) {
  net::World world(2, fast_net());
  Matrix src = rcs::linalg::random_matrix(8, 8, 5);
  world.run([&](net::Comm& comm) {
    if (comm.rank() == 0) {
      net::send_matrix(comm, 1, 4, src.block(2, 3, 4, 5));
    } else {
      Matrix got = net::recv_matrix(comm, 0, 4);
      ASSERT_EQ(got.rows(), 4u);
      ASSERT_EQ(got.cols(), 5u);
      EXPECT_TRUE(rcs::linalg::bit_equal(got.view(), src.block(2, 3, 4, 5)));
    }
  });
}

TEST(MatrixChannel, WireBytesFormula) {
  EXPECT_EQ(net::matrix_wire_bytes(3, 4), 16u + 96u);
}

TEST(NetworkParams, TransferTime) {
  net::NetworkParams np;
  np.bytes_per_s = 2e9;
  np.latency_s = 1e-6;
  EXPECT_DOUBLE_EQ(np.transfer_time(2'000'000'000ull), 1.0 + 1e-6);
}

// --- Nonblocking receives -------------------------------------------------

TEST(MiniMpiIrecv, DeliversAndAdvancesClock) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB/s
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);  // 1 MB -> 1 s on the wire
      comm.send_doubles(1, 3, big.data(), big.size());
    } else {
      net::Request req = comm.irecv(0, 3);
      ASSERT_TRUE(req.valid());
      net::Message m = req.wait();
      EXPECT_EQ(m.payload.size(), 1'000'000u);
      EXPECT_NEAR(m.arrival, 1.0, 1e-9);
      // The wait advanced the receiver to the arrival, like a blocking recv.
      EXPECT_NEAR(comm.clock().now(), 1.0, 1e-9);
      // The completed request stays valid: wait() is idempotent.
      EXPECT_TRUE(req.valid());
    }
  });
}

TEST(MiniMpiIrecv, OverlapAccountingHidesTransferBehindCompute) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);  // depart 0.0, arrival 1.0
      comm.send_doubles(1, 3, big.data(), big.size());
    } else {
      net::Request req = comm.irecv(0, 3, "phaseA");
      comm.clock().advance(2.0);  // compute past the transfer's arrival
      req.wait();
      EXPECT_NEAR(comm.clock().now(), 2.0, 1e-9);  // nothing left to wait on
      const auto& st = comm.overlap_stats().at("phaseA");
      EXPECT_NEAR(st.total_s, 1.0, 1e-9);
      EXPECT_NEAR(st.hidden_s, 1.0, 1e-9);
      EXPECT_NEAR(st.visible_s, 0.0, 1e-9);
      EXPECT_NEAR(st.efficiency(), 1.0, 1e-9);
    }
  });
}

TEST(MiniMpiIrecv, OverlapAccountingChargesEagerWaitAsVisible) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> big(125'000, 1.0);
      comm.send_doubles(1, 3, big.data(), big.size());
    } else {
      // Waiting immediately exposes the whole transfer.
      comm.recv(0, 3, "phaseB");
      const auto& st = comm.overlap_stats().at("phaseB");
      EXPECT_NEAR(st.total_s, 1.0, 1e-9);
      EXPECT_NEAR(st.visible_s, 1.0, 1e-9);
      EXPECT_NEAR(st.efficiency(), 0.0, 1e-9);
    }
  });
}

TEST(MiniMpiIrecv, TestDoesNotConsumeMessage) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42);
      comm.send_value(1, 8, 1);  // "go": guarantees tag 7 is delivered first
    } else {
      net::Request req = comm.irecv(0, 7);
      comm.recv(0, 8);  // blocks until "go"; tag-7 message arrived before it
      EXPECT_TRUE(req.test());
      EXPECT_TRUE(req.test());  // polling is repeatable, nothing consumed
      EXPECT_EQ(req.wait().as<int>(), 42);
    }
  });
}

// The lookahead schedules mix isend (NIC timeline) and send (CPU timeline)
// toward the same destination. Matching is FIFO by delivery order, so an
// isend posted first is received first even if a later CPU send's payload
// "arrives" earlier on its own timeline — and the receiver's clock never
// moves backwards across the two waits.
TEST(MiniMpi, MixedIsendSendSameTagKeepsDeliveryOrder) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;
  np.latency_s = 0.0;
  net::World world(2, np);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> big(1'000'000);   // NIC: depart 0, arrival 1.0
      std::vector<std::byte> small(1'000);     // CPU: depart 0, arrival 1e-3
      comm.isend_bytes(1, 5, big.data(), big.size());
      comm.send_bytes(1, 5, small.data(), small.size());
      EXPECT_NEAR(comm.clock().now(), 1e-3, 1e-9);  // CPU paid only the send
      EXPECT_NEAR(comm.nic_free_at(), 1.0, 1e-9);
    } else {
      net::Message first = comm.recv(0, 5);
      net::Message second = comm.recv(0, 5);
      EXPECT_EQ(first.payload.size(), 1'000'000u);
      EXPECT_NEAR(first.arrival, 1.0, 1e-9);
      EXPECT_EQ(second.payload.size(), 1'000u);
      EXPECT_NEAR(second.arrival, 1e-3, 1e-9);
      // Clock gated on the slow NIC transfer, then held (never backwards).
      EXPECT_NEAR(comm.clock().now(), 1.0, 1e-9);
    }
  });
}

TEST(MiniMpi, TreeBcastStaggersArrivalsNonPowerOfTwo) {
  net::NetworkParams np;
  np.bytes_per_s = 1e6;  // 1 MB payload -> 1 s per hop
  np.latency_s = 0.0;
  const std::size_t bytes = 1'000'000;
  // Binomial tree, root 0, p = 6: rank 4 hears at 1.0 and relays to 5
  // (arrival 2.0); rank 2 hears at 2.0 and relays to 3 (3.0); rank 1 hears
  // last at 3.0. Final clocks include each rank's own forwarding sends.
  std::vector<double> finish(6, -1.0);
  net::World world(6, np);
  world.run([&](net::Comm& comm) {
    net::Payload payload;
    if (comm.rank() == 0) payload = zero_payload(bytes);
    payload = comm.bcast_tree(0, 1, std::move(payload));
    EXPECT_EQ(payload.size(), bytes);
    finish[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  const double expected[6] = {3.0, 3.0, 3.0, 3.0, 2.0, 2.0};
  for (int r = 0; r < 6; ++r) {
    EXPECT_NEAR(finish[static_cast<std::size_t>(r)], expected[r], 1e-9)
        << "rank " << r;
  }
  EXPECT_NEAR(world.makespan(), 3.0, 1e-9);  // ceil(log2 6) rounds

  // p = 3: root serializes children 2 then 1; rank 2 has no one to relay to.
  std::vector<double> finish3(3, -1.0);
  net::World world3(3, np);
  world3.run([&](net::Comm& comm) {
    net::Payload payload;
    if (comm.rank() == 0) payload = zero_payload(bytes);
    payload = comm.bcast_tree(0, 1, std::move(payload));
    finish3[static_cast<std::size_t>(comm.rank())] = comm.clock().now();
  });
  EXPECT_NEAR(finish3[0], 2.0, 1e-9);
  EXPECT_NEAR(finish3[1], 2.0, 1e-9);
  EXPECT_NEAR(finish3[2], 1.0, 1e-9);
}

// --- Failure propagation and world reuse ----------------------------------

// Regression: a throwing rank used to leave peers blocked in take() forever
// (World::run joined all threads before rethrowing). The failure must poison
// every mailbox so blocked receives abort and the original error surfaces.
TEST(MiniMpi, ThrowingRankDoesNotHangBlockedPeers) {
  net::World world(3, fast_net());
  try {
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) throw rcs::Error("boom");
      comm.recv(0, 1);  // never satisfied: only the poison can wake this
    });
    FAIL() << "expected World::run to throw";
  } catch (const rcs::Error& e) {
    // The original failure wins over the induced WorldAborted ones.
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(MiniMpi, ThrowingRankWakesBarrier) {
  net::World world(4, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 2) throw rcs::Error("rank 2 died");
    comm.barrier();
  }),
               rcs::Error);
}

TEST(MiniMpi, RunTwiceStartsFromCleanState) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 111);
      comm.send_value(1, 5, 333);  // left undelivered in rank 1's mailbox
      comm.clock().advance(10.0);
    } else {
      EXPECT_EQ(comm.recv(0, 5).as<int>(), 111);
    }
  });
  EXPECT_GE(world.makespan(), 10.0);

  // Second run: clocks, byte counters, and mailboxes must start fresh — the
  // stale 333 from run one must not satisfy run two's receive.
  world.run([](net::Comm& comm) {
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.0);
    EXPECT_EQ(comm.bytes_sent(), 0u);
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 222);
    } else {
      EXPECT_EQ(comm.recv(0, 5).as<int>(), 222);
    }
    comm.clock().advance(1.0);
  });
  EXPECT_NEAR(world.makespan(), 1.0, 1e-6);
}

TEST(MiniMpi, RunAfterFailureRecovers) {
  net::World world(2, fast_net());
  EXPECT_THROW(world.run([](net::Comm& comm) {
    if (comm.rank() == 0) throw rcs::Error("first run dies");
    comm.recv(0, 1);
  }),
               rcs::Error);
  // The poison from the failed run must not leak into the next one.
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 7);
    } else {
      EXPECT_EQ(comm.recv(0, 1).as<int>(), 7);
    }
  });
}

// --- Argument validation ---------------------------------------------------

// Point-to-point operations must reject out-of-range ranks, self-messaging,
// and reserved (negative) user tags with a descriptive Error instead of
// indexing mailboxes out of bounds.
TEST(MiniMpi, ValidatesRanksAndTags) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() != 0) return;
    const double v = 1.0;
    EXPECT_THROW(comm.send_doubles(2, 1, &v, 1), rcs::Error);   // dst too big
    EXPECT_THROW(comm.send_doubles(-1, 1, &v, 1), rcs::Error);  // dst negative
    EXPECT_THROW(comm.send_doubles(0, 1, &v, 1), rcs::Error);   // self-send
    EXPECT_THROW(comm.send_doubles(1, -5, &v, 1), rcs::Error);  // reserved tag
    EXPECT_THROW(comm.isend_bytes(1, -1, &v, 8), rcs::Error);
    EXPECT_THROW(comm.recv(7, 1), rcs::Error);
    EXPECT_THROW(comm.recv(0, 1), rcs::Error);  // self-receive
    EXPECT_THROW(comm.recv(1, -2), rcs::Error);
    EXPECT_THROW(comm.irecv(1, -2), rcs::Error);
    bool timed_out = false;
    EXPECT_THROW(comm.recv_deadline(3, 1, 1.0, &timed_out), rcs::Error);
    // None of the rejected calls may have charged the clock or sent bytes.
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.0);
    EXPECT_EQ(comm.bytes_sent(), 0u);
  });
}

// --- Request lifecycle -----------------------------------------------------

TEST(MiniMpiIrecv, WaitIsIdempotent) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 4, 99);
      return;
    }
    net::Request req = comm.irecv(0, 4);
    const net::Message first = req.wait();
    EXPECT_EQ(first.as<int>(), 99);
    EXPECT_TRUE(req.valid());  // completed requests stay valid
    EXPECT_TRUE(req.test());   // test after completion reports true
    const double t_after = comm.clock().now();
    const net::Message again = req.wait();  // second wait: cached copy
    EXPECT_EQ(again.as<int>(), 99);
    EXPECT_EQ(again.src, first.src);
    EXPECT_DOUBLE_EQ(comm.clock().now(), t_after);  // no further clock effect
  });
}

TEST(MiniMpiIrecv, MovedFromRequestIsInert) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 4, 42);
      return;
    }
    net::Request req = comm.irecv(0, 4);
    net::Request moved = std::move(req);
    EXPECT_FALSE(req.valid());  // NOLINT(bugprone-use-after-move): the point
    EXPECT_FALSE(req.test());
    EXPECT_THROW(req.wait(), rcs::Error);
    EXPECT_EQ(moved.wait().as<int>(), 42);
    // Moving a completed request carries the cached message along.
    net::Request adopted = std::move(moved);
    EXPECT_TRUE(adopted.test());
    EXPECT_EQ(adopted.wait().as<int>(), 42);
  });
  // An empty (default-constructed) request behaves like a moved-from one.
  net::Request empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_FALSE(empty.test());
  EXPECT_THROW(empty.wait(), rcs::Error);
}

// --- Deadline receives -----------------------------------------------------

TEST(MiniMpiDeadline, InTimeMessageBehavesLikeRecv) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 3, 5);
      return;
    }
    bool timed_out = true;
    const net::Message m = comm.recv_deadline(0, 3, 2.0, &timed_out);
    EXPECT_FALSE(timed_out);
    EXPECT_EQ(m.as<int>(), 5);
    EXPECT_EQ(comm.fault_stats().straggler_timeouts, 0u);
  });
}

// A late arrival: the receiver's clock stops exactly at the deadline (not at
// the straggler's arrival) and the drained late payload is still returned so
// the caller can use it for diagnostics.
TEST(MiniMpiDeadline, TimeoutStopsClockAtDeadline) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(5.0);  // busy: the send departs late
      comm.send_value(1, 3, 77);
      return;
    }
    bool timed_out = false;
    const net::Message m = comm.recv_deadline(0, 3, 1.0, &timed_out);
    EXPECT_TRUE(timed_out);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 1.0);
    EXPECT_EQ(m.as<int>(), 77);  // late message is drained, not re-queued
    EXPECT_EQ(comm.fault_stats().straggler_timeouts, 1u);
  });
}

// Retry/backoff deadline math: timeout 1.0 with backoff 2.0 grants deadlines
// 1.0, then 3.0, then 7.0. An arrival at 2.5 is caught by the first retry.
TEST(MiniMpiDeadline, RetryExtensionCatchesLateMessage) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(2.5);
      comm.send_value(1, 3, 9);
      return;
    }
    bool gave_up = true;
    const net::Message m = comm.recv_retry(0, 3, 1.0, 2, 2.0, &gave_up);
    EXPECT_FALSE(gave_up);
    EXPECT_EQ(m.as<int>(), 9);
    // Clock at the arrival: depart 2.5 plus the 4-byte wire time.
    EXPECT_DOUBLE_EQ(comm.clock().now(), 2.5 + 4.0 / 1e9);
  });
}

// An arrival at 5.0 misses the first extension (3.0) and lands within the
// second (7.0): the receive completes at the arrival, not at a deadline.
TEST(MiniMpiDeadline, RetrySecondExtensionCatchesLateMessage) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(5.0);
      comm.send_value(1, 3, 9);
      return;
    }
    bool gave_up = true;
    const net::Message m = comm.recv_retry(0, 3, 1.0, 2, 2.0, &gave_up);
    EXPECT_FALSE(gave_up);
    EXPECT_EQ(m.as<int>(), 9);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 5.0 + 4.0 / 1e9);
    EXPECT_EQ(comm.fault_stats().straggler_timeouts, 0u);
  });
}

// An arrival past every extension: the receiver exhausts the whole budget
// and its clock lands on the final extended deadline (7.0).
TEST(MiniMpiDeadline, RetryGivesUpAfterFullBudget) {
  net::World world(2, fast_net());
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(20.0);
      comm.send_value(1, 3, 9);
      return;
    }
    bool gave_up = false;
    const net::Message m = comm.recv_retry(0, 3, 1.0, 2, 2.0, &gave_up);
    EXPECT_TRUE(gave_up);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 7.0);  // 1.0 + 2.0 + 4.0
    EXPECT_EQ(m.as<int>(), 9);  // drained late payload still returned
    EXPECT_GE(comm.fault_stats().straggler_timeouts, 1u);
  });
}

// --- Fault plans: crashes and link degradation -----------------------------

// A crashed rank's RankFailed propagates out of World::run when no one
// handles it, and the failure is distinct from WorldAborted.
TEST(MiniMpiFaults, UncaughtCrashPropagatesRankFailed) {
  sim::FaultPlan plan(1);
  plan.add_crash({0, 1.0});
  net::World world(2, fast_net());
  world.set_fault_plan(&plan);
  try {
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) {
        comm.clock().advance(2.0);     // sail past the crash time...
        comm.send_value(1, 1, 7);      // ...and die at the first comm op
        ADD_FAILURE() << "rank 0 should have fail-stopped";
      } else {
        comm.recv(0, 1);  // peer died: RankFailed escapes unhandled
      }
    });
    FAIL() << "expected RankFailed to propagate";
  } catch (const net::RankFailed& rf) {
    EXPECT_EQ(rf.rank, 0);
  }
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{0});
}

// Survivors that catch RankFailed (or use deadline receives) let the run
// complete normally — graceful degradation instead of a world abort.
TEST(MiniMpiFaults, CaughtCrashLetsSurvivorsFinish) {
  sim::FaultPlan plan(1);
  plan.add_crash({0, 1.0});
  net::World world(2, fast_net());
  world.set_fault_plan(&plan);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.clock().advance(2.0);
      EXPECT_THROW(comm.send_value(1, 1, 7), net::RankFailed);
      EXPECT_EQ(comm.fault_stats().crashes, 1u);
      return;  // the dead rank stops participating
    }
    bool timed_out = false;
    const net::Message m = comm.recv_deadline(0, 1, 0.5, &timed_out);
    EXPECT_TRUE(timed_out);
    EXPECT_TRUE(m.payload.empty());  // peer died without sending
    EXPECT_EQ(m.src, -1);
    EXPECT_DOUBLE_EQ(comm.clock().now(), 0.5);
  });
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{0});
  // Clearing the plan restores a fault-free, reusable world.
  world.set_fault_plan(nullptr);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 8);
    } else {
      EXPECT_EQ(comm.recv(0, 1).as<int>(), 8);
    }
  });
  EXPECT_TRUE(world.failed_ranks().empty());
}

// Link degradation is deterministic and exactly reflects the plan: halving
// the bandwidth doubles the (latency-free) transfer time, and replaying the
// same plan reproduces the same makespan bit-for-bit.
TEST(MiniMpiFaults, LinkFaultDegradesDeterministically) {
  sim::LinkFault lf;
  lf.src = 0;
  lf.dst = 1;
  lf.begin = 0.0;
  lf.end = 100.0;
  lf.bw_factor = 0.5;
  sim::FaultPlan plan(7);
  plan.add_link_fault(lf);

  const auto makespan = [](const sim::FaultPlan* p) {
    net::World world(2, fast_net());
    world.set_fault_plan(p);
    std::uint64_t link_hits = 0;
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> big(1'000'000 / 8, 1.0);  // 1 MB -> 1 ms nominal
        comm.send_doubles(1, 2, big.data(), big.size());
        link_hits = comm.fault_stats().link_hits;
      } else {
        comm.recv(0, 2);
      }
    });
    EXPECT_EQ(link_hits, p != nullptr ? 1u : 0u);
    return world.makespan();
  };

  const double clean = makespan(nullptr);
  const double faulty = makespan(&plan);
  EXPECT_DOUBLE_EQ(faulty, makespan(&plan));  // byte-identical replay
  EXPECT_DOUBLE_EQ(faulty, 2.0 * clean);      // bw_factor 0.5, no jitter
}

// Zero-cost default: an installed-but-empty plan (and no plan at all) leave
// the timing of a run bit-identical.
TEST(MiniMpiFaults, EmptyPlanIsZeroCost) {
  const auto makespan = [](const sim::FaultPlan* p) {
    net::World world(2, fast_net());
    world.set_fault_plan(p);
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) {
        std::vector<double> big(1'000'000 / 8, 1.0);
        comm.send_doubles(1, 2, big.data(), big.size());
      } else {
        comm.recv(0, 2);
        comm.clock().advance(0.25);
      }
    });
    return world.makespan();
  };
  sim::FaultPlan empty(3);
  EXPECT_DOUBLE_EQ(makespan(nullptr), makespan(&empty));
}

// Regression for the mark_failed wakeup protocol (see the proof comment in
// minimpi.cpp): rank 1 is already blocked in recv when rank 0 fail-stops,
// so every iteration exercises the check-to-block window where a missed
// wakeup would hang the receiver until the suite TIMEOUT. Hammered in both
// scheduling modes — cv.wait waiters (thread-per-rank) and parked fibers.
TEST(MiniMpiFaults, CrashDuringBlockedRecvStress) {
  for (const int mode : {net::World::kThreadPerRank, 2}) {
    for (int iter = 0; iter < 120; ++iter) {
      sim::FaultPlan plan(static_cast<unsigned>(iter + 1));
      plan.add_crash({0, 0.0});
      net::World world(2, fast_net());
      world.set_fault_plan(&plan);
      world.set_max_workers(mode);
      try {
        world.run([](net::Comm& comm) {
          if (comm.rank() == 0) {
            comm.clock().advance(1.0);  // crash due at the next comm op
            comm.send_value(1, 1, 7);   // fail-stop fires here
            ADD_FAILURE() << "rank 0 should have fail-stopped";
          } else {
            comm.recv(0, 1);  // blocked when rank 0 dies: must wake + throw
          }
        });
        FAIL() << "expected RankFailed (mode " << mode << ", iter " << iter
               << ")";
      } catch (const net::RankFailed& rf) {
        EXPECT_EQ(rf.rank, 0);
      }
      EXPECT_EQ(world.failed_ranks(), std::vector<int>{0});
    }
  }
}

// p=256 smoke for the fiber rank scheduler (the auto mode at every world
// size): ring send/recv, barrier, and bcast_tree all complete in one
// process, then a second run on the same world injects one fail-stop and
// every survivor observes it. The suite TIMEOUT is the hang guard.
TEST(MiniMpiScale, P256RingBarrierBcastTreeWithFailStop) {
  constexpr int kP = 256;
  net::World world(kP, fast_net());

  world.run([](net::Comm& comm) {
    const int p = comm.size();
    const int r = comm.rank();
    // Ring: pass each rank's id one hop clockwise (send is non-blocking).
    comm.send_value((r + 1) % p, 1, r);
    EXPECT_EQ(comm.recv((r + p - 1) % p, 1).as<int>(), (r + p - 1) % p);
    comm.barrier();
    // Binomial-tree broadcast from a non-zero root.
    net::Payload payload;
    if (r == 3) {
      const std::byte bytes[2] = {std::byte{0xAB}, std::byte{0xCD}};
      payload = net::Payload::copy_of(bytes, 2);
    }
    const net::Payload got = comm.bcast_tree(3, 2, std::move(payload));
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got.data()[0], std::byte{0xAB});
    EXPECT_EQ(got.data()[1], std::byte{0xCD});
  });
  EXPECT_TRUE(world.failed_ranks().empty());

  // Same world, one injected fail-stop: rank 17 dies at its first comm op,
  // all 255 blocked survivors must wake with RankFailed (not hang).
  sim::FaultPlan plan(99);
  plan.add_crash({17, 0.0});
  world.set_fault_plan(&plan);
  world.run([](net::Comm& comm) {
    if (comm.rank() == 17) {
      comm.clock().advance(1.0);
      EXPECT_THROW(comm.send_value(0, 3, 1), net::RankFailed);
      return;  // the dead rank stops participating
    }
    EXPECT_THROW(comm.recv(17, 3), net::RankFailed);
  });
  EXPECT_EQ(world.failed_ranks(), std::vector<int>{17});
}

// --- Matrix framing --------------------------------------------------------

/// A matrix message whose header claims rows x cols, followed by
/// `body_bytes` bytes.
net::Message framed(std::uint64_t rows, std::uint64_t cols,
                    std::size_t body_bytes) {
  std::vector<std::byte> buf(2 * sizeof(std::uint64_t) + body_bytes);
  std::memcpy(buf.data(), &rows, sizeof(rows));
  std::memcpy(buf.data() + sizeof(rows), &cols, sizeof(cols));
  net::Message m;
  m.payload = net::Payload::copy_of(buf.data(), buf.size());
  return m;
}

// A forged header whose byte count wraps: 2^61 * 8 doubles is 2^67 bytes,
// which is 0 mod 2^64, so a naive size check accepts it for a 16-byte
// message and hands out a 2^61-row matrix without storage.
TEST(MatrixChannel, FramingRejectsOverflowingHeader) {
  const net::Message m = framed(std::uint64_t{1} << 61, 8, 0);
  EXPECT_THROW(net::decode_matrix(m), rcs::Error);
  EXPECT_THROW(net::MatrixMsg{m.payload}, rcs::Error);
  const net::Message swapped = framed(8, std::uint64_t{1} << 61, 0);
  EXPECT_THROW(net::MatrixMsg{swapped.payload}, rcs::Error);
}

TEST(MatrixChannel, FramingRejectsTruncatedHeader) {
  const std::byte bytes[15] = {};
  net::Message m;
  m.payload = net::Payload::copy_of(bytes, sizeof bytes);
  EXPECT_THROW(net::decode_matrix(m), rcs::Error);
  EXPECT_THROW(net::MatrixMsg{m.payload}, rcs::Error);
  EXPECT_THROW(net::MatrixMsg{net::Payload()}, rcs::Error);
}

TEST(MatrixChannel, FramingRejectsSizeOffByOne) {
  EXPECT_THROW(net::decode_matrix(framed(3, 4, 96 + 1)), rcs::Error);
  EXPECT_THROW(net::decode_matrix(framed(3, 4, 96 - 1)), rcs::Error);
  const Matrix ok = net::decode_matrix(framed(3, 4, 96));
  EXPECT_EQ(ok.rows(), 3u);
  EXPECT_EQ(ok.cols(), 4u);
  // Empty shapes stay legal: LU workers send b x 0 shares when they
  // outnumber the block's columns.
  const net::MatrixMsg empty{framed(5, 0, 0).payload};
  EXPECT_EQ(empty.rows(), 5u);
  EXPECT_EQ(empty.cols(), 0u);
}

// --- Shared immutable payloads ---------------------------------------------
// Each test runs under both schedulers — one OS thread per rank, and rank
// fibers multiplexed over two workers — so payload refcounts are released
// across threads and fibers alike (the sanitizer CI jobs run this file).

constexpr int kSchedModes[] = {net::World::kThreadPerRank, 2};

net::Payload pattern_payload(std::size_t n) {
  std::vector<std::byte> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(i * 7 + 1);
  }
  return net::Payload::copy_of(bytes.data(), n);
}

TEST(SharedPayload, OnePayloadFansOutIdenticalBytes) {
  constexpr int kP = 5;
  constexpr std::size_t kBytes = 1000;
  for (const int mode : kSchedModes) {
    net::World world(kP, fast_net());
    world.set_max_workers(mode);
    const net::Payload sent = pattern_payload(kBytes);
    const std::vector<std::byte> expect(sent.data(), sent.data() + kBytes);
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        for (int r = 1; r < kP; ++r) comm.send_payload(r, 1, sent);
        for (int r = 1; r < kP; ++r) comm.isend_payload(r, 2, sent);
        return;
      }
      for (const int tag : {1, 2}) {
        const net::Message m = comm.recv(0, tag);
        ASSERT_EQ(m.payload.size(), kBytes);
        EXPECT_EQ(std::memcmp(m.payload.data(), expect.data(), kBytes), 0);
        // Zero-copy: every receiver reads the sender's one buffer.
        EXPECT_EQ(m.payload.data(), sent.data());
      }
    });
    // The wire is still charged once per destination.
    EXPECT_EQ(world.comm(0).bytes_sent(), 2u * (kP - 1) * kBytes);
  }
}

TEST(SharedPayload, PackIsASnapshot) {
  for (const int mode : kSchedModes) {
    net::World world(3, fast_net());
    world.set_max_workers(mode);
    Matrix src = rcs::linalg::random_matrix(4, 6, 21);
    const Matrix original = src;
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        net::isend_matrix(comm, 1, 3, src.view());
        net::isend_matrix(comm, 2, 3, src.block(1, 2, 2, 3));
        // Overwrite the source after the sends: receivers must not see it.
        for (std::size_t i = 0; i < src.rows(); ++i) {
          for (std::size_t j = 0; j < src.cols(); ++j) src(i, j) = -1.0;
        }
        return;
      }
      const net::MatrixMsg m = net::recv_matrix_view(comm, 0, 3);
      const auto want = comm.rank() == 1 ? original.view()
                                         : original.block(1, 2, 2, 3);
      EXPECT_TRUE(rcs::linalg::bit_equal(m.view(), want));
    });
  }
}

TEST(SharedPayload, RepeatedWaitReturnsTheSameBuffer) {
  for (const int mode : kSchedModes) {
    net::World world(2, fast_net());
    world.set_max_workers(mode);
    world.run([](net::Comm& comm) {
      if (comm.rank() == 0) {
        comm.send_payload(1, 4, pattern_payload(256));
        return;
      }
      net::Request req = comm.irecv(0, 4);
      const net::Message first = req.wait();
      const net::Message again = req.wait();
      ASSERT_NE(first.payload.data(), nullptr);
      EXPECT_EQ(again.payload.data(), first.payload.data());
      EXPECT_EQ(again.payload.size(), 256u);
    });
  }
}

// The sender packs once and drops its handle; three receivers hold views
// and drop them on their own threads/fibers. After the barrier, every
// holder is gone and the buffer must be freed.
TEST(SharedPayload, BufferFreedWhenLastMatrixMsgDrops) {
  for (const int mode : kSchedModes) {
    net::World world(4, fast_net());
    world.set_max_workers(mode);
    const Matrix src = rcs::linalg::random_matrix(5, 5, 23);
    std::weak_ptr<const std::byte[]> watch;
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        {
          const net::Payload packed = net::pack_matrix(src.view());
          watch = packed.buffer();
          for (int r = 1; r < 4; ++r) comm.send_payload(r, 6, packed);
        }
        comm.barrier();
        EXPECT_TRUE(watch.expired());
        return;
      }
      {
        net::MatrixMsg m = net::recv_matrix_view(comm, 0, 6);
        const net::MatrixMsg copy = m;
        m = net::MatrixMsg();
        EXPECT_TRUE(rcs::linalg::bit_equal(copy.view(), src.view()));
      }
      comm.barrier();
    });
    EXPECT_TRUE(watch.expired());
  }
}

// A message nobody receives stays queued (and alive) after run(); the next
// run() on the same World clears the mailboxes and frees it.
TEST(SharedPayload, UndeliveredPayloadReleasedByRerun) {
  for (const int mode : kSchedModes) {
    net::World world(2, fast_net());
    world.set_max_workers(mode);
    std::weak_ptr<const std::byte[]> watch;
    world.run([&](net::Comm& comm) {
      if (comm.rank() == 0) {
        net::Payload p = pattern_payload(64);
        watch = p.buffer();
        comm.isend_payload(1, 9, std::move(p));
      }
    });
    EXPECT_FALSE(watch.expired());
    world.run([](net::Comm&) {});
    EXPECT_TRUE(watch.expired());
  }
}

}  // namespace
