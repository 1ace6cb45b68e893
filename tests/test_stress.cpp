// Churn and soak: concurrent open/close/send/receive storms over a small
// set of names, verifying the facility survives arbitrary interleavings
// with nothing leaked, duplicated, or corrupted.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "mpf/core/facility.hpp"
#include "mpf/runtime/group.hpp"
#include "mpf/runtime/rng.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf;

TEST(Stress, OpenCloseChurnAcrossThreads) {
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 16;
  c.message_blocks = 4096;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<int> table_full_count{0};
  rt::run_group(rt::Backend::thread, kThreads, [&](int rank) {
    rt::SplitMix64 rng(rank * 31 + 7);
    for (int i = 0; i < kRounds; ++i) {
      const std::string name = "churn" + std::to_string(rng.below(5));
      const auto pid = static_cast<ProcessId>(rank);
      LnvcId id = kInvalidLnvc;
      const bool as_sender = rng.below(2) == 0;
      Status s;
      if (as_sender) {
        s = f.open_send(pid, name, &id);
      } else {
        s = f.open_receive(
            pid, name,
            rng.below(2) == 0 ? Protocol::fcfs : Protocol::broadcast, &id);
      }
      if (s == Status::table_full) {
        table_full_count.fetch_add(1);
        continue;
      }
      if (s == Status::protocol_conflict || s == Status::already_connected) {
        continue;  // legitimate race outcomes
      }
      ASSERT_EQ(s, Status::ok) << to_string(s);
      if (as_sender) {
        char payload[24];
        for (int k = 0; k < 3; ++k) {
          const Status send_status =
              f.send(pid, id, payload, sizeof(payload));
          ASSERT_TRUE(send_status == Status::ok ||
                      send_status == Status::closed)
              << to_string(send_status);
        }
        ASSERT_EQ(f.close_send(pid, id), Status::ok);
      } else {
        char buf[32];
        std::size_t len = 0;
        bool ready = false;
        for (int k = 0; k < 3; ++k) {
          const Status r =
              f.try_receive(pid, id, buf, sizeof(buf), &len, &ready);
          ASSERT_TRUE(r == Status::ok || r == Status::truncated)
              << to_string(r);
        }
        ASSERT_EQ(f.close_receive(pid, id), Status::ok);
      }
    }
  });
  // Quiescent: every conversation ended, every block home again.
  EXPECT_EQ(f.lnvc_count(), 0u);
  EXPECT_EQ(f.stats().blocks_free, c.resolved().message_blocks);
}

TEST(Stress, SustainedPipelineSoak) {
  // A long-running pipeline: producer -> 2 relays -> consumer, tens of
  // thousands of messages through a deliberately small block pool so
  // recycling and the wait policy are exercised constantly.
  //
  // The per-circuit quota is the pipeline's flow control (DESIGN.md §11).
  // Without it, stage1 + stage2 can hold all 32 messages the pool fits:
  // producer and relays then wait on exhaustion while the consumer waits
  // on an empty stage3, and nothing can ever free a block.  With Q blocks
  // per circuit each holds at most floor(Q/4) four-block messages; Q = 60
  // keeps two circuits' backlog at 120 <= 124 blocks (128 minus one
  // message) and 30 <= 31 headers, so the last relay can always send,
  // while 3Q = 180 > 128 still lets the pool run dry and exercises
  // BlockPolicy::wait.
  Config c;
  c.max_lnvcs = 8;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 128;
  c.message_headers = 32;
  c.lnvc_quota_blocks = 60;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  constexpr int kMsgs = 20'000;

  rt::run_group(rt::Backend::thread, 4, [&](int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    char buf[64];
    std::size_t len = 0;
    switch (rank) {
      case 0: {  // producer
        LnvcId tx;
        ASSERT_EQ(f.open_send(pid, "stage1", &tx), Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          std::memcpy(buf, &i, sizeof(i));
          ASSERT_EQ(f.send(pid, tx, buf, 40), Status::ok);
        }
        ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        break;
      }
      case 1:
      case 2: {  // relays
        const std::string in = "stage" + std::to_string(rank);
        const std::string out = "stage" + std::to_string(rank + 1);
        LnvcId rx, tx;
        ASSERT_EQ(f.open_receive(pid, in, Protocol::fcfs, &rx), Status::ok);
        ASSERT_EQ(f.open_send(pid, out, &tx), Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          ASSERT_EQ(f.receive(pid, rx, buf, sizeof(buf), &len), Status::ok);
          ASSERT_EQ(f.send(pid, tx, buf, len), Status::ok);
        }
        ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
        ASSERT_EQ(f.close_send(pid, tx), Status::ok);
        break;
      }
      case 3: {  // consumer
        LnvcId rx;
        ASSERT_EQ(f.open_receive(pid, "stage3", Protocol::fcfs, &rx),
                  Status::ok);
        for (int i = 0; i < kMsgs; ++i) {
          ASSERT_EQ(f.receive(pid, rx, buf, sizeof(buf), &len), Status::ok);
          int v = -1;
          std::memcpy(&v, buf, sizeof(v));
          ASSERT_EQ(v, i) << "pipeline reordered or corrupted";
        }
        ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
        break;
      }
    }
  });
  EXPECT_EQ(f.stats().blocks_free, c.message_blocks);
  EXPECT_EQ(f.stats().sends, 3u * kMsgs);
}

TEST(Stress, BroadcastFanOutSoak) {
  // One hot broadcaster, several readers, small pool: eager reclamation
  // under pressure, for a long time.
  Config c;
  c.max_lnvcs = 4;
  c.max_processes = 8;
  c.block_payload = 16;
  c.message_blocks = 256;
  shm::HeapRegion region(c.derived_arena_bytes());
  Facility f = Facility::create(c, region);
  constexpr int kReaders = 4;
  constexpr int kMsgs = 5'000;

  rt::run_group(rt::Backend::thread, kReaders + 1, [&](int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    if (rank == 0) {
      LnvcId tx;
      ASSERT_EQ(f.open_send(pid, "hot", &tx), Status::ok);
      // Wait until all readers are joined (they bump a plain counter via
      // their open; poll the introspection API).
      LnvcInfo info;
      do {
        ASSERT_EQ(f.lnvc_info(tx, &info), Status::ok);
        std::this_thread::yield();
      } while (info.broadcast_receivers < kReaders);
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_EQ(f.send(pid, tx, &i, sizeof(i)), Status::ok);
      }
      ASSERT_EQ(f.close_send(pid, tx), Status::ok);
    } else {
      LnvcId rx;
      ASSERT_EQ(f.open_receive(pid, "hot", Protocol::broadcast, &rx),
                Status::ok);
      std::size_t len = 0;
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        ASSERT_EQ(f.receive(pid, rx, &v, sizeof(v), &len), Status::ok);
        ASSERT_EQ(v, i) << "reader " << rank;
      }
      ASSERT_EQ(f.close_receive(pid, rx), Status::ok);
    }
  });
  EXPECT_EQ(f.stats().blocks_free, c.message_blocks);
  EXPECT_EQ(f.stats().receives, static_cast<std::uint64_t>(kReaders) * kMsgs);
}

}  // namespace
