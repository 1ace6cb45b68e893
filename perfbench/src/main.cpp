// Native end-to-end benchmark of MPF on real threads.
//
//   mpf_perfbench --workload funnel|rpc|gauss_jordan --seed N --seconds S
//                 --trace 0|1 [--spans FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced window of S/2 seconds each and prints the per-layer metrics.
// The last stdout line is the JSON result; the exit status is non-zero
// when any output was wrong.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "mpf/apps/gauss_jordan.hpp"
#include "mpf/runtime/group.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

constexpr int kSetups = 21;        // set-ups per run; the last one is measured
constexpr double kSliceS = 1.0;    // throughput is the median over slices
constexpr double kWarmupS = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "mpf_perfbench: %s\nusage: mpf_perfbench --workload "
               "funnel|rpc|gauss_jordan --seed N --seconds S --trace 0|1 "
               "[--spans FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (!(o.seconds > 0 && o.seconds <= 600)) usage("bad --seconds");
    } else if (key == "--trace") {
      o.trace = std::strcmp(val, "1") == 0;
      if (!o.trace && std::strcmp(val, "0") != 0) usage("bad --trace");
    } else if (key == "--spans") {
      o.spans = val;
    } else {
      usage("unknown option");
    }
    if (end != nullptr && *end != '\0') usage("bad number");
  }
  if (o.workload.empty()) usage("missing --workload");
  return o;
}

/// Numbers from a build that checks or instruments itself are not numbers
/// users get, so such builds refuse to report.
void refuse_unfit_build() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  fatal("refusing to report from a Debug or sanitizer build");
#endif
  if (std::strlen(PERFBENCH_SANITIZE) != 0) {
    fatal("refusing to report: library built with MPF_SANITIZE");
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One phase of the run, cut into slices for throughput and CPU per op.
struct Window {
  double seconds = 0;
  std::uint64_t ops = 0;
  std::vector<double> slice_ops_per_s;
  std::vector<double> slice_cpu_per_op;
  mpf::FacilityStats before, after;

  [[nodiscard]] double ops_per_s() const { return median(slice_ops_per_s); }
  [[nodiscard]] double cpu_us_per_op() const {
    return 1e6 * median(slice_cpu_per_op);
  }
};

Window run_window(Session& s, Phase phase, double seconds) {
  Window w;
  s.set_phase(phase);
  w.before = s.facility().stats();
  const std::uint64_t start = now_ns();
  const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t t = start;
  std::uint64_t ops = s.total_ops();
  const std::uint64_t ops0 = ops;
  double cpu = cpu_seconds();
  while (t < end && !(phase == Phase::traced && s.is_trace_full())) {
    const std::uint64_t slice_end =
        std::min(end, t + static_cast<std::uint64_t>(kSliceS * 1e9));
    while (now_ns() < slice_end &&
           !(phase == Phase::traced && s.is_trace_full())) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const std::uint64_t t1 = now_ns();
    const std::uint64_t ops1 = s.total_ops();
    const double cpu1 = cpu_seconds();
    // A short tail slice (cut by a full span buffer) still counts when it
    // holds work; an idle one would only add noise.
    if (ops1 > ops) {
      w.slice_ops_per_s.push_back(static_cast<double>(ops1 - ops) * 1e9 /
                                  static_cast<double>(t1 - t));
      w.slice_cpu_per_op.push_back((cpu1 - cpu) /
                                   static_cast<double>(ops1 - ops));
    }
    t = t1;
    ops = ops1;
    cpu = cpu1;
  }
  w.after = s.facility().stats();
  w.seconds = static_cast<double>(t - start) * 1e-9;
  w.ops = ops - ops0;
  return w;
}

struct Report {
  std::vector<Metric> metrics;
  void add(const char* name, double value, const char* unit,
           const std::string& note = "") {
    metrics.push_back(Metric{name, value, unit});
    std::printf("# %-38s %14.6g %-6s %s\n", name, value, unit, note.c_str());
  }
  /// Adds percentile `p` of `ns` (scaled by `scale`); when the ten-beyond
  /// rule rejects it, the value is 0 and the note says so.
  bool add_pct(const char* name, const std::vector<std::uint64_t>& ns,
               double p, double scale, const char* unit) {
    const std::optional<double> v = percentile(ns, p);
    add(name, v ? *v * scale : 0.0, unit,
        "n=" + std::to_string(ns.size()) + (v ? "" : " (too few samples)"));
    return v.has_value();
  }
};

std::string config_json(const mpf::Config& c) {
  char buf[2048];
  std::snprintf(
      buf, sizeof buf,
      "{\"max_lnvcs\": %u, \"max_processes\": %u, \"block_payload\": %u, "
      "\"message_blocks\": %zu, \"message_headers\": %zu, \"connections\": "
      "%zu, \"arena_bytes\": %zu, \"pool_shards\": %u, "
      "\"per_process_cache\": %d, \"cache_blocks\": %zu, \"block_policy\": "
      "%u, \"slab_threshold\": %zu, \"slab_bytes\": %zu, \"slab_count\": %zu, "
      "\"numa_nodes\": %u, \"numa_prefer_receiver\": %d, "
      "\"lnvc_quota_blocks\": %u, \"lnvc_quota_slabs\": %u, "
      "\"admission_policy\": %u, \"dir_buckets\": %u, \"max_pollsets\": "
      "%u, \"pollset_capacity\": %u, \"suspicion_ns\": %llu, "
      "\"reclaim_broadcast_only\": %d, \"lockfree_fcfs\": %d, "
      "\"park_spin_ns\": %llu}",
      c.max_lnvcs, c.max_processes, c.block_payload, c.message_blocks,
      c.message_headers, c.connections, c.arena_bytes, c.pool_shards,
      c.per_process_cache ? 1 : 0, c.cache_blocks,
      static_cast<unsigned>(c.block_policy), c.slab_threshold, c.slab_bytes,
      c.slab_count, c.numa_nodes, c.numa_prefer_receiver ? 1 : 0,
      c.lnvc_quota_blocks, c.lnvc_quota_slabs,
      static_cast<unsigned>(c.admission_policy),
      c.dir_buckets, c.max_pollsets, c.pollset_capacity,
      static_cast<unsigned long long>(c.suspicion_ns),
      c.reclaim_broadcast_only ? 1 : 0, c.lockfree_fcfs ? 1 : 0,
      static_cast<unsigned long long>(c.park_spin_ns));
  return buf;
}

void print_provenance(const Options& o, const Workload& w,
                      const std::vector<int>& cpus) {
  std::string pinned = "[";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    pinned += (i > 0 ? ", " : "") + std::to_string(cpus[i]);
  }
  pinned += "]";
  std::printf(
      "{\"provenance\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %d, \"threads\": %d, \"worker_cpus\": %s, "
      "\"build_type\": %s, "
      "\"sanitizer\": %s, \"compiler\": %s, \"config\": %s}}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(o.seed),
      json_number(o.seconds).c_str(), o.trace ? 1 : 0,
      mpf::rt::online_cpus(), kThreads, pinned.c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_SANITIZE).c_str(), json_string(__VERSION__).c_str(),
      config_json(w.config.resolved()).c_str());
}

/// Conservation and quiescence of the block pool once every worker has
/// closed its connections.
bool audit_ok(Session& s) {
  const mpf::BlockAudit a = s.facility().block_audit();
  const bool ok = a.consistent() && a.blocks_queued == 0 &&
                  a.blocks_journaled == 0 && a.slabs_queued == 0;
  if (!ok) {
    std::printf("# block_audit failed: total=%zu free=%zu cached=%zu "
                "queued=%zu journaled=%zu\n",
                a.blocks_total, a.blocks_free, a.blocks_cached,
                a.blocks_queued, a.blocks_journaled);
  }
  return ok;
}

Workload make_workload(const Options& o) {
  if (o.workload == "funnel") return make_funnel(o.seed);
  if (o.workload == "rpc") return make_rpc(o.seed);
  if (o.workload == "gauss_jordan") return make_gauss_jordan(o.seed);
  usage("unknown workload");
}

double per_op(std::uint64_t count, std::uint64_t ops) {
  return Ratio{static_cast<double>(count), static_cast<double>(ops)}.value();
}

int run(const Options& o) {
  refuse_unfit_build();
  const Workload w = make_workload(o);
  const std::vector<int> cpus = pin_main_thread();
  print_provenance(o, w, cpus);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto tally = [&](Session& s) {
    ++attempted;
    if (!audit_ok(s)) ++failed;
    for (int r = 0; r < s.threads(); ++r) {
      attempted += s.worker(r).attempted;
      failed += s.worker(r).failed;
    }
  };

  // Set up kSetups times; all but the last are torn down at once.
  std::vector<double> setup_s, create_us, spawn_us;
  std::vector<std::uint64_t> open_ns;
  std::unique_ptr<Session> s;
  for (int i = 0; i < kSetups; ++i) {
    if (s) {
      s->stop();
      tally(*s);
    }
    s.reset();
    s = std::make_unique<Session>(w, o.trace, cpus);
    setup_s.push_back(static_cast<double>(s->setup_ns) * 1e-9);
    create_us.push_back(static_cast<double>(s->create_ns) * 1e-3);
    spawn_us.push_back(static_cast<double>(s->spawn_ns) * 1e-3);
    for (int r = 0; r < s->threads(); ++r) {
      const auto& v = s->worker(r).open_ns;
      open_ns.insert(open_ns.end(), v.begin(), v.end());
    }
  }

  const double half = o.trace ? o.seconds / 2 : o.seconds;
  run_window(*s, Phase::warmup, std::min(kWarmupS, o.seconds));
  const Window m = run_window(*s, Phase::measure, half);
  Window t;
  if (o.trace) t = run_window(*s, Phase::traced, half);
  s->stop();
  tally(*s);

  Samples lat;
  for (int r = 0; r < s->threads(); ++r) lat.append(s->worker(r).latency);

  Report rep;
  bool computed = true;
  if (!o.trace) {
    rep.add("ops_per_s", m.ops_per_s(), "1/s",
            "ops=" + std::to_string(m.ops) + " slices=" +
                std::to_string(m.slice_ops_per_s.size()));
    computed &= rep.add_pct("op_p50_us", lat.values(), 0.50, 1e-3, "us");
    computed &= rep.add_pct("op_p99_us", lat.values(), 0.99, 1e-3, "us");
    rep.add("cpu_us_per_op", m.cpu_us_per_op(), "us");
    rep.add("setup_s", median(setup_s), "s",
            "setups=" + std::to_string(setup_s.size()) + " min=" +
                json_number(*std::min_element(setup_s.begin(), setup_s.end())) +
                " max=" +
                json_number(*std::max_element(setup_s.begin(), setup_s.end())));
  } else {
    const auto tr = s->tracers();
    const mpf::FacilityStats& a = t.before;
    const mpf::FacilityStats& b = t.after;
    const std::uint64_t ops = t.ops;
    rep.add("core.facility.create_us", median(create_us), "us");
    rep.add_pct("core.facility.open_us_p50", open_ns, 0.50, 1e-3, "us");
    rep.add("core.dir.lookups",
            static_cast<double>(s->setup_stats.dir_lookups), "count",
            "in one set-up");
    rep.add("core.dir.collisions",
            static_cast<double>(s->setup_stats.dir_collisions), "count",
            "in one set-up");
    rep.add("runtime.spawn_us", median(spawn_us), "us");
    const auto send = durations(tr, SpanName::lnvc_send);
    const auto recv = durations(tr, SpanName::lnvc_receive);
    const auto wait = durations(tr, SpanName::pollset_wait);
    rep.add_pct("core.lnvc.send_ns_p50", send, 0.50, 1, "ns");
    rep.add_pct("core.lnvc.send_ns_p99", send, 0.99, 1, "ns");
    rep.add_pct("core.lnvc.receive_ns_p50", recv, 0.50, 1, "ns");
    rep.add_pct("core.lnvc.receive_ns_p99", recv, 0.99, 1, "ns");
    rep.add_pct("core.lnvc.try_receive_ns_p50",
                durations(tr, SpanName::lnvc_try_receive), 0.50, 1, "ns");
    rep.add_pct("core.pollset.wait_ns_p50", wait, 0.50, 1, "ns");
    rep.add_pct("core.pollset.wait_ns_p99", wait, 0.99, 1, "ns");
    rep.add("core.pollset.wakes_per_op",
            per_op(b.pollset_wakes - a.pollset_wakes, ops), "1/op");
    const std::uint64_t hits = b.cache_hits - a.cache_hits;
    const std::uint64_t misses = b.cache_misses - a.cache_misses;
    rep.add("core.pool.cache_hit_ratio",
            Ratio{static_cast<double>(hits), static_cast<double>(hits + misses)}
                .value(),
            "ratio", "base=" + std::to_string(hits + misses) + " allocations");
    rep.add("core.pool.shard_lock_wait_ns_per_op",
            per_op(b.shard_lock_wait_ns - a.shard_lock_wait_ns, ops), "ns/op");
    rep.add("core.pool.exhaustion_waits",
            per_op(b.exhaustion_waits - a.exhaustion_waits, ops), "1/op");
    rep.add("core.pool.shard_steals",
            per_op(b.shard_steals - a.shard_steals, ops), "1/op");
    const std::uint64_t wakes = b.wakes - a.wakes;
    rep.add("sync.parks", per_op(b.parks - a.parks, ops), "1/op");
    rep.add("sync.wakes", per_op(wakes, ops), "1/op");
    rep.add("sync.useful_wake_ratio",
            Ratio{static_cast<double>(wakes - (b.spurious_wakes -
                                               a.spurious_wakes)),
                  static_cast<double>(wakes)}
                .value(),
            "ratio", "base=" + std::to_string(wakes) + " wakes");
    const mpf::FacilityStats end = s->facility().stats();
    rep.add("core.recovery.suspicions", static_cast<double>(end.suspicions),
            "count", "whole run");
    rep.add("core.recovery.false_suspicions",
            static_cast<double>(end.false_suspicions), "count", "whole run");
    rep.add("core.lnvc.bytes_per_op",
            per_op(b.bytes_sent - a.bytes_sent, ops), "B/op");
    double seq_s = 0;
    double speedup = 0;
    if (w.name == "gauss_jordan") {
      const auto problem = mpf::apps::gj::random_problem(kGjN, o.seed);
      std::vector<double> seq;
      for (int i = 0; i < 5; ++i) {
        const std::uint64_t t0 = now_ns();
        const auto x = mpf::apps::gj::solve_sequential(problem);
        seq.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        ++attempted;
        if (mpf::apps::gj::max_residual(problem, x) > kGjTolerance) ++failed;
      }
      seq_s = median(seq);
      const std::optional<double> p50 = percentile(lat.values(), 0.50);
      if (p50) speedup = Ratio{seq_s, *p50 * 1e-9}.value();
    }
    rep.add("apps.gj.sequential_s", seq_s, "s");
    rep.add("apps.gj.speedup", speedup, "x", "sequential / parallel p50");
    rep.add("trace.overhead_ratio",
            Ratio{t.ops_per_s(), m.ops_per_s()}.value(), "ratio",
            "traced " + std::to_string(t.ops) + " ops in " +
                std::to_string(t.seconds) + " s");
    if (!o.spans.empty() && !write_spans(o.spans.c_str(), tr)) {
      fatal("cannot write spans to " + o.spans);
    }
  }
  if (!computed) fatal("too few samples for an end-to-end percentile");

  const bool correct = failed == 0;
  std::printf("# fail_ratio %.6g (failed=%llu attempted=%llu)\n",
              Ratio{static_cast<double>(failed),
                    static_cast<double>(attempted)}
                  .value(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("%s\n",
              result_json(correct, attempted, failed, rep.metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
