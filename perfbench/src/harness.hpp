// A workload's set-up and worker threads.  One Session is one facility on a
// heap region plus the worker threads driving it; the run controller in
// main.cpp moves it through warm-up, measured and traced phases.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "metrics.hpp"
#include "mpf/core/facility.hpp"
#include "mpf/shm/region.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Phase : int { warmup, measure, traced, stop };

/// State owned by one worker thread.  Only `ops` is read by other threads.
struct Worker {
  std::atomic<std::uint64_t> ops{0};  ///< operations completed, any phase
  Samples latency;                    ///< per-op time, measured phase only
  Tracer tracer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> open_ns;  ///< each timed open during set-up

  void complete_op() {
    ops.store(ops.load(std::memory_order_relaxed) + 1,
              std::memory_order_relaxed);
  }
  /// Counts one checked operation; returns `ok`.
  bool check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
    return ok;
  }
};

class Session;
using Body = std::function<void(Session&, int rank)>;

/// Worker threads per workload: one core of a 4-core host stays free.
inline constexpr int kThreads = 3;

/// What one workload is: its facility capacity and its threads' body.
struct Workload {
  std::string name;
  mpf::Config config;
  Body body;
};

class Session {
 public:
  /// Allocates the region, creates the facility, starts the workers and
  /// returns once every worker has passed the start barrier.
  Session(const Workload& w, bool trace, const std::vector<int>& cpus);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Workers call this after opening their connections.  Waiters yield
  /// instead of sleeping (no wake-up latency in the set-up time) or
  /// spinning (a thread started on a spinning waiter's CPU would starve).
  void arrive();

  [[nodiscard]] Phase phase() const {
    return phase_.load(std::memory_order_relaxed);
  }
  void set_phase(Phase p) { phase_.store(p, std::memory_order_relaxed); }
  /// Ends the run and joins the workers.
  void stop();

  [[nodiscard]] mpf::Facility& facility() { return facility_; }
  [[nodiscard]] Worker& worker(int rank) { return *workers_[rank]; }
  [[nodiscard]] int threads() const { return static_cast<int>(workers_.size()); }
  [[nodiscard]] std::uint64_t total_ops() const;
  [[nodiscard]] std::vector<const Tracer*> tracers() const;

  /// Timed opens used by worker bodies during set-up.
  mpf::LnvcId open_send(int rank, std::string_view name);
  mpf::LnvcId open_receive(int rank, std::string_view name,
                           mpf::Protocol protocol);
  /// Marks the traced window as over (a span buffer filled).
  void trace_full() { trace_full_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool is_trace_full() const {
    return trace_full_.load(std::memory_order_relaxed);
  }

  // Set-up timings, ns.
  std::uint64_t setup_ns = 0;
  std::uint64_t create_ns = 0;
  std::uint64_t spawn_ns = 0;
  mpf::FacilityStats setup_stats;  ///< counters once set-up finished

 private:
  std::unique_ptr<mpf::shm::HeapRegion> region_;
  mpf::Facility facility_;
  std::atomic<Phase> phase_{Phase::warmup};
  std::atomic<bool> trace_full_{false};
  std::atomic<int> arrived_{0};
  Tracer main_tracer_;  ///< create and spawn spans
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// CPUs for pinning: with more than kThreads CPUs allowed, worker r runs on
/// the r-th of the last kThreads allowed CPUs and the main thread on the
/// others, so scheduler migrations and a waiter sharing a worker's CPU do
/// not add run-to-run noise.  Pins the calling (main) thread and returns
/// the worker CPUs; returns an empty list, pinning nothing, on smaller
/// hosts.
std::vector<int> pin_main_thread();

/// Prints `what` to stderr and exits with status 3 without a result line.
[[noreturn]] void fatal(const std::string& what);

// The three workloads.
Workload make_funnel(std::uint64_t seed);
Workload make_rpc(std::uint64_t seed);
Workload make_gauss_jordan(std::uint64_t seed);

/// Gauss–Jordan problem size and residual tolerance (also used by main for
/// the sequential baseline).
inline constexpr int kGjN = 256;
inline constexpr double kGjTolerance = 1e-9;

}  // namespace perfbench
