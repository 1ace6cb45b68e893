// rpc: two clients each make 64-byte request->reply calls over their own
// circuit pair, one call outstanding per client.  One server multiplexes
// the request circuits with a poll set and drains each ready circuit with
// try_receive.  The loop is closed: a client sends its next request only
// after the reply to the previous one.
#include <array>
#include <cstring>
#include <string>

#include "harness.hpp"
#include "mpf/runtime/rng.hpp"

namespace perfbench {
namespace {

constexpr int kClients = kThreads - 1;
constexpr std::size_t kLen = 64;
constexpr std::uint64_t kByeCall = ~std::uint64_t{0};
constexpr std::uint64_t kWaitNs = 100'000'000;  // server re-checks the phase

/// Request bytes: the call id, then filler derived from the seed and id.
/// The reply must echo all of them.
void fill_request(std::uint64_t seed, std::uint64_t call,
                  std::array<std::byte, kLen>& buf) {
  std::memcpy(buf.data(), &call, sizeof call);
  mpf::rt::SplitMix64 mix(seed ^ call);
  for (std::size_t i = sizeof call; i < kLen; i += 8) {
    const std::uint64_t v = mix.next();
    std::memcpy(buf.data() + i, &v, 8);
  }
}

std::string req_name(int client) { return "rpc.req." + std::to_string(client); }
std::string rep_name(int client) { return "rpc.rep." + std::to_string(client); }

void client(Session& s, int rank, std::uint64_t seed) {
  Worker& w = s.worker(rank);
  mpf::Facility& f = s.facility();
  const auto pid = static_cast<mpf::ProcessId>(rank);
  const mpf::LnvcId req = s.open_send(rank, req_name(rank));
  const mpf::LnvcId rep =
      s.open_receive(rank, rep_name(rank), mpf::Protocol::fcfs);
  s.arrive();
  std::array<std::byte, kLen> out{};
  std::array<std::byte, kLen> in{};
  for (std::uint64_t k = 0;; ++k) {
    const Phase phase = s.phase();
    if (phase == Phase::stop) break;
    const std::uint64_t call = (std::uint64_t{static_cast<unsigned>(rank)} << 48) | k;
    fill_request(seed, call, out);
    const bool traced = phase == Phase::traced;
    const std::uint64_t t0 = now_ns();
    const std::uint32_t root =
        traced ? w.tracer.open(SpanName::op, t0, call) : kNoParent;
    const mpf::Status sst = f.send(pid, req, out.data(), kLen);
    const std::uint64_t t1 = now_ns();
    std::size_t len = 0;
    const mpf::Status rst =
        sst == mpf::Status::ok ? f.receive(pid, rep, in.data(), kLen, &len)
                               : sst;
    const std::uint64_t t2 = now_ns();
    if (traced) {
      w.tracer.record(SpanName::lnvc_send, t0, t1, call, root);
      w.tracer.record(SpanName::lnvc_receive, t1, t2, call, root);
      w.tracer.close(root, t2, call);
      if (w.tracer.full()) s.trace_full();
    }
    // The reply echoes the request's call id and payload.
    if (!w.check(rst == mpf::Status::ok && len == kLen && in == out)) continue;
    w.complete_op();
    if (phase == Phase::measure) w.latency.add(t2 - t0);
  }
  // Tell the server this client is done; it counts byes to exit.
  fill_request(seed, kByeCall, out);
  w.check(f.send(pid, req, out.data(), kLen) == mpf::Status::ok);
  if (f.close_send(pid, req) != mpf::Status::ok) w.check(false);
  if (f.close_receive(pid, rep) != mpf::Status::ok) w.check(false);
}

void server(Session& s, int rank) {
  Worker& w = s.worker(rank);
  mpf::Facility& f = s.facility();
  const auto pid = static_cast<mpf::ProcessId>(rank);
  mpf::PollSetId ps = mpf::kInvalidPollSet;
  if (f.pollset_create(pid, &ps) != mpf::Status::ok) fatal("pollset_create");
  std::array<mpf::LnvcId, kClients + 1> reqs{};
  std::array<mpf::LnvcId, kClients + 1> reps{};
  for (int c = 1; c <= kClients; ++c) {
    reqs[c] = s.open_receive(rank, req_name(c), mpf::Protocol::fcfs);
    reps[c] = s.open_send(rank, rep_name(c));
    if (f.pollset_add(pid, ps, reqs[c]) != mpf::Status::ok) {
      fatal("pollset_add");
    }
  }
  s.arrive();
  std::array<std::byte, kLen> buf{};
  int byes = 0;
  while (byes < kClients) {
    const bool traced = s.phase() == Phase::traced;
    mpf::LnvcId ready = mpf::kInvalidLnvc;
    const std::uint64_t t0 = now_ns();
    const mpf::Status wst = f.pollset_wait(pid, ps, &ready, kWaitNs);
    const std::uint32_t wait_span =
        traced ? w.tracer.record(SpanName::pollset_wait, t0, now_ns(), kNoOp)
               : kNoParent;
    if (wst == mpf::Status::timed_out) continue;
    int c = 1;
    while (c <= kClients && reqs[c] != ready) ++c;
    if (!w.check(wst == mpf::Status::ok && c <= kClients)) continue;
    // Level-triggered: drain the circuit until try_receive finds it empty.
    for (bool first = true;; first = false) {
      std::size_t len = 0;
      bool got = false;
      const std::uint64_t r0 = now_ns();
      const mpf::Status rst =
          f.try_receive(pid, ready, buf.data(), kLen, &len, &got);
      const std::uint64_t r1 = now_ns();
      std::uint64_t call = kNoOp;
      if (got) std::memcpy(&call, buf.data(), sizeof call);
      if (traced) {
        w.tracer.record(SpanName::lnvc_try_receive, r0, r1, call);
        if (first) w.tracer.set_op(wait_span, call);
      }
      if (!w.check(rst == mpf::Status::ok)) break;
      if (!got) break;
      if (call == kByeCall) {
        ++byes;
        continue;
      }
      const std::uint64_t s0 = now_ns();
      const mpf::Status sst = f.send(pid, reps[c], buf.data(), len);
      if (traced) w.tracer.record(SpanName::lnvc_send, s0, now_ns(), call);
      w.check(sst == mpf::Status::ok);
    }
    if (traced && w.tracer.full()) s.trace_full();
  }
  for (int c = 1; c <= kClients; ++c) {
    if (f.close_receive(pid, reqs[c]) != mpf::Status::ok) w.check(false);
    if (f.close_send(pid, reps[c]) != mpf::Status::ok) w.check(false);
  }
  if (f.pollset_destroy(pid, ps) != mpf::Status::ok) w.check(false);
}

}  // namespace

Workload make_rpc(std::uint64_t seed) {
  Workload w;
  w.name = "rpc";
  w.config.max_lnvcs = 8;
  w.config.max_processes = 4;
  w.config.message_blocks = 4096;
  w.body = [seed](Session& s, int rank) {
    if (rank == 0) {
      server(s, rank);
    } else {
      client(s, rank, seed);
    }
  };
  return w;
}

}  // namespace perfbench
