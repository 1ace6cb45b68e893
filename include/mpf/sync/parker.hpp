// Futex-class parking seam: WaitNode + Parker.
//
// pollset_wait needs "this one process sleeps until someone hands it a
// baton" — a single-claimant wait, not the multi-waiter broadcast
// EventCount models.  A WaitNode is one 4-byte epoch cell owned by exactly
// one waiter at a time; Parker::park sleeps until the epoch moves past a
// snapshot, Parker::wake bumps the epoch and rouses at most the one
// waiter.  Because wakes target a single node there is no thundering herd:
// a notifier picks its claimant first, then wakes only that node.
//
// Three backends share this contract:
//   * futex(2) on Linux thread/fork platforms — the cell is FUTEX_WAIT-ed
//     directly (no FUTEX_PRIVATE_FLAG, so it works across fork in shared
//     memory) after a caller-tuned spin phase (Config::park_spin_ns);
//   * a portable EventCount-style poll/yield/nap fallback elsewhere;
//   * a virtual wait resource in SimPlatform (see Platform::park), where a
//     parked simulated process consumes zero virtual CPU and a wake
//     transfers the baton deterministically.
//
// Like EventCount, the cell is POD, zero-init ready, and process-shared.
// Spurious wakeups are allowed; callers re-check their predicate.
#pragma once

#include <atomic>
#include <cstdint>

namespace mpf::sync {

/// One-claimant wait cell.  Lives in shared memory inside the waiter's
/// ProcSlot; the epoch is bumped by wakers and compared by the parked
/// owner.  A stale wake (epoch already moved) is absorbed for free.
struct WaitNode {
  std::atomic<std::uint32_t> epoch{0};
};

static_assert(sizeof(WaitNode) == 4, "WaitNode must stay one futex word");

/// No deadline: park until woken (callers normally still bound the park
/// with a suspicion deadline so dead notifiers self-heal).
inline constexpr std::uint64_t kNoParkDeadline = ~std::uint64_t{0};

class Parker {
 public:
  /// Snapshot to pass as `expected`.  Take it *before* publishing the
  /// fact that you are about to park (same discipline as
  /// EventCount::prepare_wait): wake-ups between snapshot and sleep are
  /// then observed as an epoch move and the park returns immediately.
  [[nodiscard]] static std::uint32_t prepare(const WaitNode& node) noexcept {
    return node.epoch.load(std::memory_order_seq_cst);
  }

  /// Sleep until node.epoch != expected or the steady clock reaches
  /// `deadline_ns` (std::chrono::steady_clock nanoseconds, the epoch
  /// NativePlatform::now_ns reports; kNoParkDeadline = wait forever).
  /// Spins for up to `spin_ns` first so pipeline-cadence hand-offs never
  /// pay a syscall.  Returns true if the epoch moved, false on deadline.
  static bool park(const WaitNode& node, std::uint32_t expected,
                   std::uint64_t deadline_ns, std::uint64_t spin_ns) noexcept;

  /// Bump the epoch and rouse the (at most one) parked owner of `node`.
  static void wake(WaitNode& node) noexcept;

  /// True when park() blocks in futex(2); false when it falls back to the
  /// portable poll/nap loop.  Surfaced by `mpf_inspect --parked`.
  [[nodiscard]] static bool has_futex() noexcept;
};

}  // namespace mpf::sync
