// gauss_jordan: the paper's application.  Three ranks make repeated
// apps::gj::worker solves of one random system; each elimination step
// broadcasts a pivot row as a block chain.  One operation is one solve,
// timed from the barrier that starts it to the barrier that ends it.
//
// The solve's own sends happen inside the library, so the traced window
// adds a probe after each solve: rank 0 broadcasts kProbeRows pivot-row
// sized messages on a BROADCAST circuit and every rank receives them, with
// each call timed.  The probe lies outside the solve's timed interval.
#include <barrier>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "mpf/apps/gauss_jordan.hpp"

namespace perfbench {
namespace {

constexpr int kRanks = kThreads;
constexpr int kProbeRows = 4;

struct Shared {
  explicit Shared(std::uint64_t seed)
      : problem(mpf::apps::gj::random_problem(kGjN, seed)),
        // A pivot-row message: the step index, then the augmented row.
        row_bytes(sizeof(double) * static_cast<std::size_t>(kGjN + 2)) {}
  const mpf::apps::gj::Problem problem;
  const std::size_t row_bytes;
  std::barrier<> sync{kRanks};
  // Written by rank 0 before the start barrier, so all ranks agree on them.
  Phase phase = Phase::warmup;
  std::uint64_t solve = 0;
};

void rank_body(Session& s, int rank, Shared& sh) {
  Worker& w = s.worker(rank);
  mpf::Facility& f = s.facility();
  const auto pid = static_cast<mpf::ProcessId>(rank);
  const mpf::LnvcId probe_tx = rank == 0 ? s.open_send(rank, "gj.probe")
                                         : mpf::kInvalidLnvc;
  const mpf::LnvcId probe_rx =
      s.open_receive(rank, "gj.probe", mpf::Protocol::broadcast);
  s.arrive();
  std::vector<std::byte> row(sh.row_bytes, std::byte{0x5a});
  std::vector<std::byte> in(sh.row_bytes);
  for (;;) {
    if (rank == 0) {
      sh.phase = s.phase();
      ++sh.solve;
    }
    sh.sync.arrive_and_wait();
    const Phase phase = sh.phase;
    if (phase == Phase::stop) break;
    const std::uint64_t solve = sh.solve;
    const bool traced = phase == Phase::traced;
    const std::string tag = "gj." + std::to_string(solve);
    const std::uint64_t t0 = now_ns();
    std::vector<double> x =
        mpf::apps::gj::worker(f, rank, kRanks, sh.problem, tag.c_str());
    const std::uint64_t t1 = now_ns();
    sh.sync.arrive_and_wait();
    const std::uint64_t t2 = now_ns();
    if (traced) w.tracer.record(SpanName::gj_worker, t0, t1, solve);
    if (rank == 0) {
      if (traced) w.tracer.record(SpanName::op, t0, t2, solve);
      const double residual = mpf::apps::gj::max_residual(sh.problem, x);
      if (w.check(x.size() == static_cast<std::size_t>(kGjN) &&
                  residual <= kGjTolerance)) {
        w.complete_op();
        if (phase == Phase::measure) w.latency.add(t2 - t0);
      }
    }
    if (!traced) continue;
    for (int i = 0; i < kProbeRows; ++i) {
      if (rank == 0) {
        const std::uint64_t p0 = now_ns();
        const mpf::Status st = f.send(pid, probe_tx, row.data(), row.size());
        w.tracer.record(SpanName::lnvc_send, p0, now_ns(), solve);
        w.check(st == mpf::Status::ok);
      }
      std::size_t len = 0;
      const std::uint64_t p0 = now_ns();
      const mpf::Status st = f.receive(pid, probe_rx, in.data(), in.size(), &len);
      w.tracer.record(SpanName::lnvc_receive, p0, now_ns(), solve);
      w.check(st == mpf::Status::ok && len == row.size() && in == row);
    }
    if (w.tracer.full()) s.trace_full();
  }
  if (rank == 0 && f.close_send(pid, probe_tx) != mpf::Status::ok) {
    w.check(false);
  }
  if (f.close_receive(pid, probe_rx) != mpf::Status::ok) w.check(false);
}

}  // namespace

Workload make_gauss_jordan(std::uint64_t seed) {
  Workload w;
  w.name = "gauss_jordan";
  w.config.max_lnvcs = 16;
  w.config.max_processes = 4;
  w.config.message_blocks = 8192;
  auto shared = std::make_shared<Shared>(seed);
  w.body = [shared](Session& s, int rank) { rank_body(s, rank, *shared); };
  return w;
}

}  // namespace perfbench
