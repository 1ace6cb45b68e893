// Funnel under the descriptor lock (what remains of ablation A8).
//
// S senders fan into one FCFS circuit drained by a handful of receivers;
// every sender serialises on the LNVC descriptor lock.  The figure sweeps
// the number of simulated processes and plots delivered throughput — the
// only gated DES funnel at 64-1024 processes.  The lock-free tier this
// bench once compared against was removed (DESIGN.md §12): its simulated
// 2.0-2.4x gain never reproduced on real cores.
#include <cstddef>
#include <iostream>
#include <vector>

#include "mpf/apps/coordination.hpp"
#include "mpf/benchlib/figure.hpp"
#include "mpf/benchlib/simrun.hpp"
#include "mpf/core/ports.hpp"

namespace {

using namespace mpf;
using namespace mpf::benchlib;

constexpr int kReceivers = 4;
constexpr int kTotalMsgs = 4096;  ///< across all senders (per-sender share)
constexpr std::size_t kLen = 64;

double funnel_throughput(int nprocs) {
  Config c;
  c.max_lnvcs = 16;
  c.max_processes = static_cast<std::uint32_t>(nprocs);
  c.block_payload = 10;
  c.message_blocks = 65536;
  // A Balance with enough core to hold the whole backlog: the funnel keeps
  // thousands of messages in flight, and under the paper's 32 KB resident
  // budget the funnel thrashes the pager at 15 ms a fault — paging noise two
  // orders of magnitude above the lock costs this ablation isolates.  The
  // figure benches keep the paper's memory; this one buys 1988's upgrade.
  sim::MachineModel model = sim::MachineModel::balance21000();
  model.resident_bytes = 4 * 1024 * 1024;
  const int senders = nprocs - kReceivers;
  const int msgs = kTotalMsgs / senders;
  const SimMetrics m = run_sim(c, nprocs, [&](Facility f, int rank) {
    const auto pid = static_cast<ProcessId>(rank);
    Participant self(f, pid);
    if (rank < kReceivers) {
      ReceivePort rx = self.open_receive("funnel", Protocol::fcfs);
      apps::startup_barrier(f, pid, nprocs, "funnel.join");
      std::vector<std::byte> in(1 << 12);
      for (;;) {
        const Received r = rx.receive(in);
        if (r.length == 0) break;  // poison
      }
    } else {
      SendPort tx = self.open_send("funnel");
      apps::startup_barrier(f, pid, nprocs, "funnel.join");
      std::vector<std::byte> out(kLen, std::byte{0x5a});
      for (int i = 0; i < msgs; ++i) tx.send(out);
      // Senders-only completion barrier, then the lowest-ranked sender
      // poisons the circuit — one zero-length message per receiver, all
      // after every real message (FCFS keeps them last).
      apps::startup_barrier(f, pid, senders, "funnel.done",
                            /*base_pid=*/kReceivers);
      if (rank == kReceivers) {
        for (int r = 0; r < kReceivers; ++r) {
          tx.send(std::span<const std::byte>{});
        }
      }
    }
  }, model);
  return static_cast<double>(kLen) * msgs * senders / m.seconds;
}

}  // namespace

int main(int argc, char** argv) {
  Figure fig;
  fig.id = "Ablation A8";
  fig.title = "FCFS funnel under the descriptor lock";
  fig.subtitle = "Funnel throughput vs simulated processes, 4 receivers";
  fig.xlabel = "processes";
  fig.ylabel = "throughput_bytes_per_sec";
  for (const int nprocs : {64, 128, 256, 512, 1024}) {
    const auto x = static_cast<double>(nprocs);
    fig.add("baseline", x, funnel_throughput(nprocs));
  }
  return emit_figure(argc, argv, std::cout, fig);
}
