// Spans recorded around the benchmark's calls into the library's public
// functions.  Each worker thread owns one Tracer; spans stay in memory and
// are written out once, after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace perfbench {

/// Layer-qualified names of the timed calls.
enum class SpanName : std::uint8_t {
  facility_create,   // core.facility: Facility::create
  facility_open,     // core.facility: open_send / open_receive
  runtime_spawn,     // runtime: worker thread start
  lnvc_send,         // core.lnvc: send
  lnvc_receive,      // core.lnvc: blocking receive
  lnvc_try_receive,  // core.lnvc: try_receive
  pollset_wait,      // core.pollset: pollset_wait
  gj_worker,         // apps.gj: worker (one rank of one solve)
  op,                // the benchmark's own operation (call, solve)
};
inline constexpr const char* kSpanNames[] = {
    "core.facility.create", "core.facility.open", "runtime.spawn",
    "core.lnvc.send",       "core.lnvc.receive",  "core.lnvc.try_receive",
    "core.pollset.wait",    "apps.gj.worker",     "op",
};
inline constexpr std::uint64_t kNoOp = ~std::uint64_t{0};
inline constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t op;        ///< operation id shared by the spans of one op
  std::uint32_t parent;    ///< index in the same thread's buffer
  SpanName name;
};

/// One thread's span buffer.  Recording stops when it is full; the owner
/// checks full() to end the traced window.
class Tracer {
 public:
  explicit Tracer(std::size_t cap = std::size_t{1} << 18) : cap_(cap) {}

  void enable() {
    on_ = true;
    spans_.reserve(cap_);
  }
  [[nodiscard]] bool on() const { return on_ && spans_.size() < cap_; }
  [[nodiscard]] bool full() const { return on_ && spans_.size() >= cap_; }

  /// Records a finished span; returns its index (kNoParent when off).
  std::uint32_t record(SpanName name, std::uint64_t start, std::uint64_t end,
                       std::uint64_t op, std::uint32_t parent = kNoParent) {
    if (!on()) return kNoParent;
    spans_.push_back(Span{start, end, op, parent, name});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is filled in later by close().
  std::uint32_t open(SpanName name, std::uint64_t start, std::uint64_t op) {
    return record(name, start, start, op);
  }
  void close(std::uint32_t idx, std::uint64_t end, std::uint64_t op) {
    if (idx == kNoParent) return;
    spans_[idx].end_ns = end;
    spans_[idx].op = op;
  }
  void set_op(std::uint32_t idx, std::uint64_t op) {
    if (idx != kNoParent) spans_[idx].op = op;
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::size_t cap_;
  bool on_ = false;
  std::vector<Span> spans_;
};

/// Durations in ns of every span called `name` across `tracers`.
[[nodiscard]] inline std::vector<std::uint64_t> durations(
    const std::vector<const Tracer*>& tracers, SpanName name) {
  std::vector<std::uint64_t> out;
  for (const Tracer* t : tracers) {
    for (const Span& s : t->spans()) {
      if (s.name == name) out.push_back(s.end_ns - s.start_ns);
    }
  }
  return out;
}

/// Writes every span as one tab-separated line; returns false on I/O error.
[[nodiscard]] inline bool write_spans(
    const char* path, const std::vector<const Tracer*>& tracers) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread\tspan\tparent\top\tname\tstart_ns\tend_ns\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const auto& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu\t%zu\t%ld\t%lld\t%s\t%llu\t%llu\n", t, i,
                   s.parent == kNoParent ? -1L : static_cast<long>(s.parent),
                   s.op == kNoOp ? -1LL : static_cast<long long>(s.op),
                   kSpanNames[static_cast<int>(s.name)],
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
