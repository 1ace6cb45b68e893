// mpf_fuzz — deterministic schedule fuzzer for the MPF facility
// (DESIGN.md §13).  One seed = one fully reproducible case: a seed-derived
// facility configuration, 4–64 simulated processes each running a random
// op script, randomized deterministic schedules, and FaultPlan kills and
// pauses — with the quiescent invariant oracle asserted at every round
// barrier and an end-to-end payload FIFO/integrity oracle on every
// delivery.
//
//   mpf_fuzz --seed S [--count N] [overrides] [--shrink] [--replay-check]
//
// Campaign mode runs seeds S..S+N-1 and exits non-zero if any fails,
// printing a pinned one-line repro for each failure.  --shrink minimizes
// the first failing case by greedy dimension reduction (procs, rounds,
// ops, kills, pauses, then op categories) and prints the smallest repro
// that still fails.  --replay-check runs each case twice and fails unless
// the schedule trace hashes match bit for bit.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mpf/benchlib/fuzz.hpp"

using mpf::benchlib::FuzzParams;
using mpf::benchlib::FuzzResult;
using mpf::benchlib::fuzz_op_name;
using mpf::benchlib::fuzz_repro_line;
using mpf::benchlib::kFuzzOpCount;
using mpf::benchlib::run_fuzz_case;

namespace {

bool fails(const FuzzParams& p) { return !run_fuzz_case(p).ok; }

/// Greedy shrink: try to reduce one dimension at a time, keeping any
/// candidate that still fails (any failure class — a shrunk case that
/// fails differently is still a smaller repro).  The op-index space is
/// far too large for per-op delta debugging, so the shrinker works on the
/// case shape instead: fewer processes, fewer rounds, shorter scripts, no
/// faults, fewer op categories.
FuzzParams shrink(FuzzParams p, const FuzzResult& first) {
  // Pin every seed-derived knob to its resolved value so each probe
  // changes exactly one dimension.
  if (p.procs <= 0) p.procs = first.procs;
  if (p.rounds <= 0) p.rounds = first.rounds;
  if (p.ops <= 0) p.ops = first.ops;
  if (p.max_kills < 0) p.max_kills = first.max_kills;
  if (p.max_pauses < 0) p.max_pauses = first.max_pauses;

  auto try_set = [&](auto field, auto value) {
    FuzzParams cand = p;
    cand.*field = value;
    if (fails(cand)) {
      p = cand;
      return true;
    }
    return false;
  };

  // Fault dimensions first: a kill-free repro is far easier to read.
  while (p.max_kills > 0 && try_set(&FuzzParams::max_kills, 0)) break;
  while (p.max_pauses > 0 && try_set(&FuzzParams::max_pauses, 0)) break;
  try_set(&FuzzParams::rounds, 1);
  // Processes: try the floor, then halve toward it.
  if (p.procs > 2 && !try_set(&FuzzParams::procs, 2)) {
    while (p.procs > 4 && try_set(&FuzzParams::procs, p.procs / 2)) {
    }
    while (p.procs > 2 && try_set(&FuzzParams::procs, p.procs - 1)) {
    }
  }
  // Script length: binary search the smallest failing op count.
  {
    int lo = 1;
    int hi = p.ops;
    while (lo < hi) {
      const int mid = lo + (hi - lo) / 2;
      FuzzParams cand = p;
      cand.ops = mid;
      if (fails(cand)) {
        hi = mid;
        p = cand;
      } else {
        lo = mid + 1;
      }
    }
  }
  // Op categories: greedily clear each enabled bit.
  for (std::uint32_t op = 0; op < kFuzzOpCount; ++op) {
    const std::uint32_t bit = 1u << op;
    if ((p.opmask & bit) == 0) continue;
    FuzzParams cand = p;
    cand.opmask &= ~bit;
    if (fails(cand)) p = cand;
  }
  return p;
}

void print_failure(const FuzzParams& p, const FuzzResult& r) {
  std::printf("FAIL seed=%" PRIu64 ": %s\n", p.seed, r.failure.c_str());
  std::printf("  repro: %s\n", fuzz_repro_line(p, r).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  FuzzParams base;
  std::uint64_t count = 1;
  bool do_shrink = false;
  bool replay_check = false;
  for (int i = 1; i < argc; ++i) {
    auto arg_u64 = [&](std::uint64_t* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "mpf_fuzz: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      *out = std::strtoull(argv[++i], nullptr, 0);
    };
    auto arg_int = [&](int* out) {
      std::uint64_t v = 0;
      arg_u64(&v);
      *out = static_cast<int>(v);
    };
    if (std::strcmp(argv[i], "--seed") == 0) {
      arg_u64(&base.seed);
    } else if (std::strcmp(argv[i], "--count") == 0) {
      arg_u64(&count);
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      arg_int(&base.procs);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      arg_int(&base.rounds);
    } else if (std::strcmp(argv[i], "--ops") == 0) {
      arg_int(&base.ops);
    } else if (std::strcmp(argv[i], "--kills") == 0) {
      arg_int(&base.max_kills);
    } else if (std::strcmp(argv[i], "--pauses") == 0) {
      arg_int(&base.max_pauses);
    } else if (std::strcmp(argv[i], "--opmask") == 0) {
      std::uint64_t v = 0;
      arg_u64(&v);
      base.opmask = static_cast<std::uint32_t>(v);
    } else if (std::strcmp(argv[i], "--shrink") == 0) {
      do_shrink = true;
    } else if (std::strcmp(argv[i], "--replay-check") == 0) {
      replay_check = true;
    } else if (std::strcmp(argv[i], "--ops-help") == 0) {
      for (std::uint32_t op = 0; op < kFuzzOpCount; ++op) {
        std::printf("bit %2u (0x%04x): %s\n", op, 1u << op,
                    fuzz_op_name(op));
      }
      return 0;
    } else {
      std::fprintf(
          stderr,
          "usage: mpf_fuzz [--seed S] [--count N] [--procs P] [--rounds R] "
          "[--ops K] [--kills M] [--pauses Q] [--opmask HEX] [--shrink] "
          "[--replay-check] [--ops-help]\n");
      return 2;
    }
  }

  std::uint64_t failures = 0;
  std::uint64_t kills = 0;
  std::uint64_t sends = 0;
  std::uint64_t receives = 0;
  std::uint64_t checks = 0;
  for (std::uint64_t s = 0; s < count; ++s) {
    FuzzParams p = base;
    p.seed = base.seed + s;
    const FuzzResult r = run_fuzz_case(p);
    kills += r.kills;
    sends += r.sends;
    receives += r.receives;
    checks += r.oracle_checks;
    if (r.ok && replay_check) {
      const FuzzResult again = run_fuzz_case(p);
      if (!again.ok || again.trace_hash != r.trace_hash) {
        std::printf("FAIL seed=%" PRIu64
                    ": replay diverged (hash %016" PRIx64 " vs %016" PRIx64
                    ")%s%s\n",
                    p.seed, r.trace_hash, again.trace_hash,
                    again.ok ? "" : ": ", again.ok ? "" : again.failure.c_str());
        std::printf("  repro: %s\n", fuzz_repro_line(p, r).c_str());
        ++failures;
        continue;
      }
    }
    if (!r.ok) {
      ++failures;
      print_failure(p, r);
      if (do_shrink) {
        const FuzzParams small = shrink(p, r);
        const FuzzResult sr = run_fuzz_case(small);
        std::printf("  shrunk: %s\n", sr.failure.c_str());
        std::printf("  shrunk repro: %s\n",
                    fuzz_repro_line(small, sr).c_str());
        // A repro is only a repro if it replays bit-identically.
        const FuzzResult sr2 = run_fuzz_case(small);
        if (sr2.trace_hash != sr.trace_hash || sr2.ok != sr.ok) {
          std::printf("  WARNING: shrunk case does not replay!\n");
        }
        do_shrink = false;  // shrink only the first failure of a campaign
      }
    }
  }
  std::printf("%" PRIu64 " seed%s: %" PRIu64 " failure%s, %" PRIu64
              " kills, %" PRIu64 " sends, %" PRIu64 " receives, %" PRIu64
              " oracle checks\n",
              count, count == 1 ? "" : "s", failures,
              failures == 1 ? "" : "s", kills, sends, receives, checks);
  return failures == 0 ? 0 : 1;
}
