// Multi-circuit blocking receive (receive_any / select).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/core/ports.hpp"
#include "mpf/shm/region.hpp"
#include "mpf/sim/sim_platform.hpp"

namespace {

using namespace mpf;

struct ReceiveAnyTest : ::testing::Test {
  Config config = [] {
    Config c;
    c.max_lnvcs = 8;
    c.max_processes = 8;
    return c;
  }();
  shm::HeapRegion region{config.derived_arena_bytes()};
  Facility f{Facility::create(config, region)};
};

TEST_F(ReceiveAnyTest, PicksWhicheverCircuitHasData) {
  LnvcId a_tx, b_tx, a_rx, b_rx;
  ASSERT_EQ(f.open_send(0, "a", &a_tx), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &b_tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);

  int v = 7;
  ASSERT_EQ(f.send(0, b_tx, &v, sizeof(v)), Status::ok);
  const LnvcId ids[] = {a_rx, b_rx};
  int got = 0;
  std::size_t len = 0, index = 99;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 7);
  v = 8;
  ASSERT_EQ(f.send(0, a_tx, &v, sizeof(v)), Status::ok);
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(got, 8);
}

TEST_F(ReceiveAnyTest, BlocksUntilAnyCircuitDelivers) {
  LnvcId a_rx, b_rx;
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);
  std::thread sender([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    LnvcId tx;
    ASSERT_EQ(f.open_send(0, "b", &tx), Status::ok);
    int v = 42;
    ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
    ASSERT_EQ(f.close_send(0, tx), Status::ok);
  });
  const LnvcId ids[] = {a_rx, b_rx};
  int got = 0;
  std::size_t len = 0, index = 0;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 1u);
  EXPECT_EQ(got, 42);
  sender.join();
}

TEST_F(ReceiveAnyTest, SingleIdDegeneratesToPlainReceive) {
  LnvcId tx, rx;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx), Status::ok);
  int v = 5;
  ASSERT_EQ(f.send(0, tx, &v, sizeof(v)), Status::ok);
  const LnvcId ids[] = {rx};
  int got = 0;
  std::size_t len = 0, index = 9;
  ASSERT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::ok);
  EXPECT_EQ(index, 0u);
}

TEST_F(ReceiveAnyTest, ErrorsPropagate) {
  int got = 0;
  std::size_t len = 0, index = 0;
  EXPECT_EQ(f.receive_any(1, {}, &got, sizeof(got), &len, &index),
            Status::invalid_argument);
  LnvcId tx;
  ASSERT_EQ(f.open_send(0, "a", &tx), Status::ok);
  const LnvcId ids[] = {tx};  // pid 1 holds no receive connection
  EXPECT_EQ(f.receive_any(1, ids, &got, sizeof(got), &len, &index),
            Status::not_connected);
}

TEST_F(ReceiveAnyTest, PortsWrapperWorks) {
  Participant consumer(f, 1);
  ReceivePort a = consumer.open_receive("a", Protocol::fcfs);
  ReceivePort b = consumer.open_receive("b", Protocol::broadcast);
  Participant producer(f, 0);
  SendPort tx = producer.open_send("b");
  tx.send("payload");
  ReceivePort* ports[] = {&a, &b};
  std::vector<std::byte> buf(32);
  const ReceivedAny r = receive_any(f, 1, ports, buf);
  EXPECT_EQ(r.index, 1u);
  EXPECT_EQ(r.length, 7u);
  EXPECT_FALSE(r.truncated);
}

TEST_F(ReceiveAnyTest, FanInFromManyProducers) {
  // One consumer multiplexing 4 producer circuits; every message arrives.
  constexpr int kProducers = 4;
  constexpr int kEach = 25;
  std::vector<LnvcId> rx(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    ASSERT_EQ(f.open_receive(7, "src" + std::to_string(p), Protocol::fcfs,
                             &rx[p]),
              Status::ok);
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      LnvcId tx;
      ASSERT_EQ(f.open_send(p, "src" + std::to_string(p), &tx), Status::ok);
      for (int i = 0; i < kEach; ++i) {
        const int v = p * 1000 + i;
        ASSERT_EQ(f.send(p, tx, &v, sizeof(v)), Status::ok);
      }
      ASSERT_EQ(f.close_send(p, tx), Status::ok);
    });
  }
  std::vector<int> per_source_next(kProducers, 0);
  for (int n = 0; n < kProducers * kEach; ++n) {
    int got = 0;
    std::size_t len = 0, index = 0;
    ASSERT_EQ(f.receive_any(7, rx, &got, sizeof(got), &len, &index),
              Status::ok);
    const int src = got / 1000;
    EXPECT_EQ(static_cast<int>(index), src);
    EXPECT_EQ(got % 1000, per_source_next[src]) << "FIFO per source";
    ++per_source_next[src];
  }
  for (auto& t : producers) t.join();
}

TEST(ReceiveAnySim, WorksUnderTheSimulator) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  sim::Simulator simulator;
  sim::SimPlatform platform(simulator);
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region, platform);
  std::vector<int> got;
  simulator.spawn([&] {
    LnvcId rx_a, rx_b;
    ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &rx_a), Status::ok);
    ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &rx_b), Status::ok);
    const LnvcId ids[] = {rx_a, rx_b};
    for (int i = 0; i < 6; ++i) {
      int v = 0;
      std::size_t len = 0, index = 0;
      ASSERT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index),
                Status::ok);
      got.push_back(v);
    }
  });
  simulator.spawn([&] {
    LnvcId tx_a, tx_b;
    ASSERT_EQ(f.open_send(0, "a", &tx_a), Status::ok);
    ASSERT_EQ(f.open_send(0, "b", &tx_b), Status::ok);
    for (int i = 0; i < 3; ++i) {
      simulator.advance(5e6);
      int v = i;
      ASSERT_EQ(f.send(0, tx_a, &v, sizeof(v)), Status::ok);
      v = 100 + i;
      ASSERT_EQ(f.send(0, tx_b, &v, sizeof(v)), Status::ok);
    }
  });
  simulator.run();
  ASSERT_EQ(got.size(), 6u);
  std::multiset<int> all(got.begin(), got.end());
  for (const int v : {0, 1, 2, 100, 101, 102}) EXPECT_EQ(all.count(v), 1u);
}

TEST_F(ReceiveAnyTest, RotationCursorPersistsAcrossCallsForFairness) {
  // Two equally busy circuits: the scan cursor is kept per process across
  // receive_any calls, so deliveries must alternate instead of re-biasing
  // toward the first listed LNVC on every call.
  LnvcId a_tx, b_tx, a_rx, b_rx;
  ASSERT_EQ(f.open_send(0, "a", &a_tx), Status::ok);
  ASSERT_EQ(f.open_send(0, "b", &b_tx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "a", Protocol::fcfs, &a_rx), Status::ok);
  ASSERT_EQ(f.open_receive(1, "b", Protocol::fcfs, &b_rx), Status::ok);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_EQ(f.send(0, a_tx, &v, sizeof(v)), Status::ok);
    v = 100 + i;
    ASSERT_EQ(f.send(0, b_tx, &v, sizeof(v)), Status::ok);
  }
  const LnvcId ids[] = {a_rx, b_rx};
  std::vector<std::size_t> order;
  for (int i = 0; i < 6; ++i) {
    int v = 0;
    std::size_t len = 0, index = 99;
    ASSERT_EQ(f.receive_any(1, ids, &v, sizeof(v), &len, &index), Status::ok);
    order.push_back(index);
  }
  const std::vector<std::size_t> want = {0, 1, 0, 1, 0, 1};
  EXPECT_EQ(order, want);
  // Each circuit's own FIFO order was preserved while alternating.
}

/// Virtual-time sleep inside a simulated worker: a timed receive on a
/// private circuit nobody sends to expires after exactly `ns`.
void sim_sleep(Facility& f, ProcessId pid, LnvcId delay, std::uint64_t ns) {
  char b[8];
  std::size_t got = 0;
  (void)f.receive_for(pid, delay, b, sizeof(b), &got, ns);
}

TEST(ReceiveAnySim, SnapshotHoistStopsRescanning) {
  // 1000 circuits, one blocked receive_any: the first sweep builds the
  // hoisted connection snapshot (one find_conn walk per circuit), and every
  // later sweep of the same call — each spurious activity wakeup re-probes
  // all 1000 — must re-walk zero connection lists.  Unrelated traffic on
  // another circuit supplies the wakeups; message flow never bumps a
  // circuit's structural epoch, only opens/closes/quota changes do.
  constexpr std::size_t kCircuits = 1000;
  constexpr int kNoise = 12;
  Config c;
  c.max_lnvcs = 1100;
  c.max_processes = 4;
  c.block_payload = 10;
  c.message_blocks = 4096;
  benchlib::run_sim(c, 2, [&](Facility f, int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    if (rank == 0) {
      std::vector<LnvcId> rx(kCircuits), tx(kCircuits);
      for (std::size_t i = 0; i < kCircuits; ++i) {
        const std::string name = "any." + std::to_string(i);
        ASSERT_EQ(f.open_receive(pid, name, Protocol::fcfs, &rx[i]),
                  Status::ok);
        ASSERT_EQ(f.open_send(pid, name, &tx[i]), Status::ok);
      }
      apps::startup_barrier(f, pid, 2, "any.join");
      const std::uint64_t before = f.stats().any_rescans;
      char buf[64];
      std::size_t len = 0, which = 0;
      // One blocking call.  Each 1000-probe sweep costs ~3 virtual seconds,
      // so the noise sends (spaced 1.5 s over ~18 s) land while this call
      // is asleep on the activity cond and force genuine re-sweeps.
      ASSERT_EQ(f.receive_any(pid, rx, buf, sizeof(buf), &len, &which),
                Status::ok);
      EXPECT_EQ(which, 123u);
      ASSERT_EQ(len, 1u);
      EXPECT_EQ(buf[0], 'R');
      // The load-bearing assertion: exactly one rescan per circuit — the
      // snapshot walk — no matter how many times noise re-swept the probes.
      EXPECT_EQ(f.stats().any_rescans - before, kCircuits);
    } else {
      LnvcId noise_tx = kInvalidLnvc, noise_rx = kInvalidLnvc;
      LnvcId real_tx = kInvalidLnvc, delay = kInvalidLnvc;
      ASSERT_EQ(f.open_receive(pid, "noise", Protocol::fcfs, &noise_rx),
                Status::ok);
      ASSERT_EQ(f.open_send(pid, "noise", &noise_tx), Status::ok);
      ASSERT_EQ(f.open_send(pid, "any.123", &real_tx), Status::ok);
      ASSERT_EQ(f.open_receive(pid, "any.delay", Protocol::fcfs, &delay),
                Status::ok);
      apps::startup_barrier(f, pid, 2, "any.join");
      char msg = 'n';
      for (int i = 0; i < kNoise; ++i) {
        sim_sleep(f, pid, delay, 1'500'000'000);
        ASSERT_EQ(f.send(pid, noise_tx, &msg, 1), Status::ok);
      }
      sim_sleep(f, pid, delay, 2'000'000'000);
      msg = 'R';
      ASSERT_EQ(f.send(pid, real_tx, &msg, 1), Status::ok);
    }
  });
}

}  // namespace
