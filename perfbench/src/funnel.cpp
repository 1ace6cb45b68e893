// funnel: the paper's many-to-one FCFS case.  Two senders send 16-byte
// messages back to back into one FCFS circuit and one receiver drains it.
// The loop is closed by the block pool: once the backlog fills the pool,
// senders wait for the receiver to free blocks.
#include <array>
#include <cstring>

#include "harness.hpp"
#include "mpf/runtime/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSenders = kThreads - 1;
constexpr std::uint64_t kStopSeq = ~std::uint64_t{0};

/// The 16-byte message: who sent it, its per-sender sequence number and a
/// check word derived from both and the seed.
struct Message {
  std::uint32_t sender;
  std::uint32_t check;
  std::uint64_t seq;
};
static_assert(sizeof(Message) == 16);

std::uint32_t check_word(std::uint64_t seed, std::uint32_t sender,
                         std::uint64_t seq) {
  mpf::rt::SplitMix64 mix(seed ^ (std::uint64_t{sender} << 56) ^ seq);
  return static_cast<std::uint32_t>(mix.next());
}

std::uint64_t op_id(std::uint32_t sender, std::uint64_t seq) {
  return (std::uint64_t{sender} << 48) | (seq & ((std::uint64_t{1} << 48) - 1));
}

void sender(Session& s, int rank, std::uint64_t seed) {
  Worker& w = s.worker(rank);
  mpf::Facility& f = s.facility();
  const auto pid = static_cast<mpf::ProcessId>(rank);
  const mpf::LnvcId id = s.open_send(rank, "funnel");
  s.arrive();
  Message m{static_cast<std::uint32_t>(rank), 0, 0};
  for (std::uint64_t seq = 0;; ++seq) {
    const Phase phase = s.phase();
    if (phase == Phase::stop) {
      m.seq = kStopSeq;
      m.check = check_word(seed, m.sender, kStopSeq);
      w.check(f.send(pid, id, &m, sizeof m) == mpf::Status::ok);
      break;
    }
    m.seq = seq;
    m.check = check_word(seed, m.sender, seq);
    const std::uint64_t t0 = now_ns();
    const mpf::Status st = f.send(pid, id, &m, sizeof m);
    if (phase == Phase::traced) {
      w.tracer.record(SpanName::lnvc_send, t0, now_ns(), op_id(m.sender, seq));
      if (w.tracer.full()) s.trace_full();
    }
    w.check(st == mpf::Status::ok);
  }
  if (f.close_send(pid, id) != mpf::Status::ok) w.check(false);
}

void receiver(Session& s, int rank, std::uint64_t seed) {
  Worker& w = s.worker(rank);
  mpf::Facility& f = s.facility();
  const auto pid = static_cast<mpf::ProcessId>(rank);
  const mpf::LnvcId id = s.open_receive(rank, "funnel", mpf::Protocol::fcfs);
  s.arrive();
  std::array<std::uint64_t, kSenders + 1> expect{};
  int stopped = 0;
  std::array<std::byte, 64> buf{};
  while (stopped < kSenders) {
    const Phase phase = s.phase();
    std::size_t len = 0;
    const std::uint64_t t0 = now_ns();
    const mpf::Status st = f.receive(pid, id, buf.data(), buf.size(), &len);
    const std::uint64_t t1 = now_ns();
    Message m{};
    std::memcpy(&m, buf.data(), sizeof m);
    const bool framed = st == mpf::Status::ok && len == sizeof m &&
                        m.sender >= 1 && m.sender <= kSenders;
    if (framed && m.seq == kStopSeq) {
      w.check(m.check == check_word(seed, m.sender, kStopSeq));
      ++stopped;
      continue;
    }
    // Per-sender FIFO: each sender's sequence numbers arrive in order,
    // without gaps, with intact payload bytes.
    const bool ok = w.check(framed && m.seq == expect[m.sender] &&
                            m.check == check_word(seed, m.sender, m.seq));
    if (framed) expect[m.sender] = m.seq + 1;
    if (!ok) continue;
    w.complete_op();
    if (phase == Phase::measure) w.latency.add(t1 - t0);
    if (phase == Phase::traced) {
      w.tracer.record(SpanName::lnvc_receive, t0, t1, op_id(m.sender, m.seq));
      if (w.tracer.full()) s.trace_full();
    }
  }
  if (f.close_receive(pid, id) != mpf::Status::ok) w.check(false);
}

}  // namespace

Workload make_funnel(std::uint64_t seed) {
  Workload w;
  w.name = "funnel";
  w.config.max_lnvcs = 8;
  w.config.max_processes = 4;
  w.config.message_blocks = 8192;
  w.body = [seed](Session& s, int rank) {
    if (rank == 0) {
      receiver(s, rank, seed);
    } else {
      sender(s, rank, seed);
    }
  };
  return w;
}

}  // namespace perfbench
