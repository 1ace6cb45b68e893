// Exhaustion-deadlock detection (DESIGN.md §7): a circular wait that no
// process can leave ends with Status::deadlock in every member, and a
// wedge that a live process outside any MPF wait could still drain is
// left alone.  Simulated, so both cases replay bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/sim/fault.hpp"
#include "mpf/sim/machine.hpp"

namespace {

using namespace mpf;

// 40-byte messages over 10-byte blocks: four blocks each, so the 64-block
// pool holds 16 of them.
constexpr std::size_t kMsg = 40;
constexpr int kFlood = 20;  // 80 blocks: more than the whole pool
constexpr std::uint32_t kQuota = 8;  // two messages on circuit "q"

enum Rank : int { kA = 0, kB, kC, kD, kDrainer, kRanks };

Config wedge_config() {
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = 8;
  c.block_payload = 10;
  c.message_blocks = 64;
  return c;
}

struct WedgeRun {
  benchlib::ChaosMetrics metrics;
  std::array<Status, kRanks> status{};
  std::array<std::uint64_t, kRanks> blocked_at{};  ///< last blocking call
  std::array<std::uint64_t, kRanks> ended_at{};
};

/// The wedge, by construction rather than by schedule:
///   A and B each send more than the whole pool to the other's circuit
///   before receiving anything, so neither flood can finish — both end
///   in exhaustion waits.  C receive-blocks on "toC", whose only sender
///   is A.  D fills circuit "q" to its quota (C receives there, but only
///   after "toC"), releases A and B, computes for most of a window, then
///   parks on the quota.
/// With `drainer`, a fifth registered process computes for three
/// suspicion windows outside any MPF call, then drains both floods; A
/// then sends on "toC", and C drains "q", so every call completes.
WedgeRun run_wedge(bool drainer) {
  const Config c = wedge_config();
  const std::uint64_t window = c.suspicion_ns;
  WedgeRun run;
  const int nprocs = drainer ? kRanks : kDrainer;
  run.metrics = benchlib::run_chaos(
      c, nprocs, sim::FaultPlan{}, [&](Facility f, int rank) {
        const auto pid = static_cast<ProcessId>(rank);
        const auto me = static_cast<std::size_t>(rank);
        char b[kMsg] = {};
        std::size_t got = 0;
        Status s = Status::ok;
        const auto mark = [&] { run.blocked_at[me] = f.platform().now_ns(); };
        // Record the outcome of the last blocking call, before closing.
        const auto finish = [&] {
          run.status[me] = s;
          run.ended_at[me] = f.platform().now_ns();
        };
        switch (rank) {
          case kA:
          case kB: {
            const bool a = rank == kA;
            LnvcId go, own, out, to_c = kInvalidLnvc;
            ASSERT_EQ(f.open_receive(pid, a ? "goA" : "goB", Protocol::fcfs,
                                     &go),
                      Status::ok);
            ASSERT_EQ(f.open_receive(pid, a ? "toA" : "toB", Protocol::fcfs,
                                     &own),
                      Status::ok);
            ASSERT_EQ(f.open_send(pid, a ? "toB" : "toA", &out), Status::ok);
            if (a) {
              ASSERT_EQ(f.open_send(pid, "toC", &to_c), Status::ok);
            }
            ASSERT_EQ(f.receive(pid, go, b, sizeof(b), &got), Status::ok);
            for (int i = 0; i < kFlood && s == Status::ok; ++i) {
              mark();
              s = f.send(pid, out, b, kMsg);
            }
            if (a && s == Status::ok) s = f.send(pid, to_c, b, kMsg);
            finish();
            (void)f.close_receive(pid, go);
            (void)f.close_receive(pid, own);
            (void)f.close_send(pid, out);
            if (a) (void)f.close_send(pid, to_c);
            break;
          }
          case kC: {
            LnvcId to_c, q;
            ASSERT_EQ(f.open_receive(pid, "toC", Protocol::fcfs, &to_c),
                      Status::ok);
            ASSERT_EQ(f.open_receive(pid, "q", Protocol::fcfs, &q),
                      Status::ok);
            mark();
            s = f.receive(pid, to_c, b, sizeof(b), &got);
            for (int i = 0; i < 3 && s == Status::ok; ++i) {
              s = f.receive(pid, q, b, sizeof(b), &got);
            }
            finish();
            (void)f.close_receive(pid, to_c);
            (void)f.close_receive(pid, q);
            break;
          }
          case kD: {
            LnvcId q, go_a, go_b;
            ASSERT_EQ(f.open_send(pid, "q", &q), Status::ok);
            ASSERT_EQ(f.set_admission(pid, q, kQuota, 0,
                                      AdmissionPolicy::block),
                      Status::ok);
            ASSERT_EQ(f.open_send(pid, "goA", &go_a), Status::ok);
            ASSERT_EQ(f.open_send(pid, "goB", &go_b), Status::ok);
            ASSERT_EQ(f.send(pid, q, b, kMsg), Status::ok);
            ASSERT_EQ(f.send(pid, q, b, kMsg), Status::ok);  // quota full
            ASSERT_EQ(f.send(pid, go_a, b, 1), Status::ok);
            ASSERT_EQ(f.send(pid, go_b, b, 1), Status::ok);
            // Join the wedge last, part-way into the exhaustion waiters'
            // first suspicion window, so a verdict that skipped the
            // confirming second scan would land within one window.
            f.platform().charge_ops(0.9 * static_cast<double>(window) /
                                    sim::MachineModel::balance21000().op_ns);
            mark();
            s = f.send(pid, q, b, kMsg);  // parks on the full quota
            finish();
            (void)f.close_send(pid, q);
            (void)f.close_send(pid, go_a);
            (void)f.close_send(pid, go_b);
            break;
          }
          case kDrainer: {
            LnvcId to_a, to_b;
            ASSERT_EQ(f.open_receive(pid, "toA", Protocol::fcfs, &to_a),
                      Status::ok);
            ASSERT_EQ(f.open_receive(pid, "toB", Protocol::fcfs, &to_b),
                      Status::ok);
            // Computing, not waiting on MPF: the detector must not fire.
            f.platform().charge_ops(3.0 * static_cast<double>(window) /
                                    sim::MachineModel::balance21000().op_ns);
            const std::array<LnvcId, 2> ids{to_a, to_b};
            std::size_t which = 0;
            for (int i = 0; i < 2 * kFlood && s == Status::ok; ++i) {
              s = f.receive_any(pid, ids, b, sizeof(b), &got, &which);
            }
            finish();
            (void)f.close_receive(pid, to_a);
            (void)f.close_receive(pid, to_b);
            break;
          }
          default:
            break;
        }
      });
  return run;
}

TEST(SimDeadlock, CircularExhaustionFailsEveryMemberWithDeadlock) {
  const WedgeRun run = run_wedge(/*drainer=*/false);
  const std::uint64_t window = wedge_config().suspicion_ns;
  // The wedge is complete once the last member has made its blocking call.
  // Detection takes more than one and at most two windows from there (the
  // first expiry after the wedge scans, the next one confirms); on top of
  // that the simulated Balance charges the probe's lock traffic and a
  // 1.5 ms context switch per woken member, covered by a 5% allowance.
  const std::uint64_t wedged = *std::max_element(
      run.blocked_at.begin(), run.blocked_at.begin() + kDrainer);
  const std::uint64_t allowance = window / 20;
  for (int r = kA; r < kDrainer; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(run.status[i], Status::deadlock)
        << "rank " << r << ": " << to_string(run.status[i]);
    EXPECT_GT(run.ended_at[i], wedged + window) << "rank " << r;
    EXPECT_LE(run.ended_at[i], wedged + 2 * window + allowance)
        << "rank " << r;
  }
  // Every member closed after its verdict: every block is home again.
  EXPECT_TRUE(run.metrics.blocks_conserved)
      << "free=" << run.metrics.audit.blocks_free
      << " cached=" << run.metrics.audit.blocks_cached
      << " queued=" << run.metrics.audit.blocks_queued
      << " journaled=" << run.metrics.audit.blocks_journaled
      << " total=" << run.metrics.audit.blocks_total;
  EXPECT_EQ(run.metrics.audit.blocks_free + run.metrics.audit.blocks_cached,
            run.metrics.audit.blocks_total);
  EXPECT_EQ(run.metrics.peer_failures, 0u);

  // Deterministic: the same wedge replays to the same event trace.
  const WedgeRun again = run_wedge(/*drainer=*/false);
  EXPECT_EQ(again.metrics.trace_hash, run.metrics.trace_hash);
  EXPECT_EQ(again.ended_at, run.ended_at);
}

TEST(SimDeadlock, ComputingProcessKeepsDetectorSilent) {
  const WedgeRun run = run_wedge(/*drainer=*/true);
  const std::uint64_t window = wedge_config().suspicion_ns;
  for (int r = kA; r < kRanks; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(run.status[i], Status::ok)
        << "rank " << r << ": " << to_string(run.status[i]);
  }
  // The wedge really stood for more than two windows before the drainer
  // finished computing.
  EXPECT_GT(run.ended_at[kA], run.blocked_at[kD] + 2 * window);
  EXPECT_EQ(run.metrics.base.sends, 2u * kFlood + 1 + 3 + 2);
  EXPECT_TRUE(run.metrics.blocks_conserved);
  EXPECT_EQ(run.metrics.audit.blocks_free + run.metrics.audit.blocks_cached,
            run.metrics.audit.blocks_total);
}

}  // namespace
