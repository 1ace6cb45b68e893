#include <sched.h>

#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

namespace perfbench {

void fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stdout);
  std::_Exit(3);
}

std::vector<int> pin_main_thread() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return {};
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (static_cast<int>(cpus.size()) <= kThreads) return {};
  const auto split = cpus.end() - kThreads;
  cpu_set_t rest;
  CPU_ZERO(&rest);
  for (auto it = cpus.begin(); it != split; ++it) CPU_SET(*it, &rest);
  if (sched_setaffinity(0, sizeof rest, &rest) != 0) return {};
  return {split, cpus.end()};
}

Session::Session(const Workload& w, bool trace, const std::vector<int>& cpus) {
  const std::uint64_t t0 = now_ns();
  if (trace) main_tracer_.enable();
  region_ = std::make_unique<mpf::shm::HeapRegion>(
      w.config.derived_arena_bytes());
  const std::uint64_t c0 = now_ns();
  facility_ = mpf::Facility::create(w.config, *region_);
  const std::uint64_t c1 = now_ns();
  create_ns = c1 - c0;
  main_tracer_.record(SpanName::facility_create, c0, c1, kNoOp);

  for (int r = 0; r < kThreads; ++r) {
    workers_.push_back(std::make_unique<Worker>());
    if (trace) workers_.back()->tracer.enable();
  }
  const std::uint64_t s0 = now_ns();
  for (int r = 0; r < kThreads; ++r) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<std::size_t>(r)];
    threads_.emplace_back([this, &w, r, cpu] {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof one, &one);
      }
      try {
        w.body(*this, r);
      } catch (const std::exception& e) {
        fatal(w.name + " worker " + std::to_string(r) + ": " + e.what());
      }
    });
  }
  const std::uint64_t s1 = now_ns();
  spawn_ns = s1 - s0;
  main_tracer_.record(SpanName::runtime_spawn, s0, s1, kNoOp);
  arrive();
  setup_ns = now_ns() - t0;
  setup_stats = facility_.stats();
}

Session::~Session() { stop(); }

void Session::arrive() {
  const int all = static_cast<int>(workers_.size()) + 1;
  arrived_.fetch_add(1, std::memory_order_acq_rel);
  while (arrived_.load(std::memory_order_acquire) < all) {
    std::this_thread::yield();
  }
}

void Session::stop() {
  set_phase(Phase::stop);
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::uint64_t Session::total_ops() const {
  std::uint64_t n = 0;
  for (const auto& w : workers_) n += w->ops.load(std::memory_order_relaxed);
  return n;
}

std::vector<const Tracer*> Session::tracers() const {
  std::vector<const Tracer*> out{&main_tracer_};
  for (const auto& w : workers_) out.push_back(&w->tracer);
  return out;
}

namespace {

mpf::LnvcId timed_open(Session& s, int rank, std::string_view name,
                       const mpf::Protocol* protocol) {
  Worker& w = s.worker(rank);
  const auto pid = static_cast<mpf::ProcessId>(rank);
  mpf::LnvcId id = mpf::kInvalidLnvc;
  const std::uint64_t t0 = now_ns();
  const mpf::Status st =
      protocol == nullptr
          ? s.facility().open_send(pid, name, &id)
          : s.facility().open_receive(pid, name, *protocol, &id);
  const std::uint64_t t1 = now_ns();
  w.open_ns.push_back(t1 - t0);
  w.tracer.record(SpanName::facility_open, t0, t1, kNoOp);
  if (!w.check(st == mpf::Status::ok)) {
    fatal("open " + std::string(name) + ": " + mpf::to_string(st));
  }
  return id;
}

}  // namespace

mpf::LnvcId Session::open_send(int rank, std::string_view name) {
  return timed_open(*this, rank, name, nullptr);
}

mpf::LnvcId Session::open_receive(int rank, std::string_view name,
                                  mpf::Protocol protocol) {
  return timed_open(*this, rank, name, &protocol);
}

}  // namespace perfbench
