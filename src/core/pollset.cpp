// Poll sets and pulses (DESIGN.md §14): an epoll-like multi-circuit wait
// object plus a fixed-slot no-allocation notification channel.
//
// The ready stack is the only lock-free pairing: senders CAS-push member
// indices onto PollSet::ready_head (guarded by the per-circuit ready_armed
// exchange and the per-member queued flag), the single waiter pops the
// whole stack under PollSet::lock.  Everything structural — membership,
// create/destroy, the waiter claim — happens under ps.lock with the same
// robust-seizure discipline as the descriptor locks (lock order:
// ps.lock -> LnvcDesc.lock, matching bucket -> descriptor).
#include <vector>

#include "mpf/core/facility.hpp"

namespace mpf {

namespace {

/// Per-pollset member storage views (arena carves; see layout.hpp).
struct PsArrays {
  std::uint32_t* members;
  std::uint32_t* ready_next;
  std::atomic<std::uint32_t>* queued;
};

}  // namespace

static PsArrays ps_arrays(const shm::Arena& arena, detail::PollSet& ps) {
  return PsArrays{
      static_cast<std::uint32_t*>(arena.raw(ps.members)),
      static_cast<std::uint32_t*>(arena.raw(ps.ready_next)),
      static_cast<std::atomic<std::uint32_t>*>(arena.raw(ps.queued)),
  };
}

/// Push member `m` onto the ready stack unless it is already queued.
/// ready_next[m] is stable while queued[m] == 1 (pushers skip), so the
/// plain link store cannot race the popper's walk.
static void ps_push(detail::PollSet& ps, const PsArrays& a, std::uint32_t m) {
  if (a.queued[m].exchange(1, std::memory_order_seq_cst) != 0) return;
  std::uint32_t top = ps.ready_head.load(std::memory_order_relaxed);
  do {
    a.ready_next[m] = top;
  } while (!ps.ready_head.compare_exchange_weak(top, m + 1,
                                                std::memory_order_seq_cst,
                                                std::memory_order_relaxed));
}

void Facility::pollset_signal(detail::LnvcDesc& d) {
  // One seq_cst load on circuits that belong to no poll set — the common
  // case on every send.  The load pairs with pollset_wait's re-arm store:
  // either we see the arming (and push), or the waiter's Dekker recheck
  // sees our enqueue.
  const std::uint32_t psi1 = d.pollset_id.load(std::memory_order_seq_cst);
  if (psi1 == 0 || psi1 > header_->max_pollsets) return;
  if (d.ready_armed.exchange(0, std::memory_order_seq_cst) != 1) return;
  detail::PollSet& ps = pollset_table()[psi1 - 1];
  const std::uint32_t m = d.pollset_mslot.load(std::memory_order_seq_cst);
  // Generation / membership are validated by the waiter under the locks; a
  // stale push lands as a spurious ready entry and is discarded there.
  if (m < header_->pollset_capacity) {
    const PsArrays a = ps_arrays(arena_, ps);
    ps_push(ps, a, m);
    header_->pollset_wakes.fetch_add(1, std::memory_order_relaxed);
    ps.wakes.fetch_add(1, std::memory_order_relaxed);
  }
  const std::uint32_t w = ps.waiter_pid.load(std::memory_order_seq_cst);
  if (w != 0 && w - 1 < header_->max_processes) {
    platform_->unpark(pslot(w - 1).park_node);
  }
}

bool Facility::pollset_ready_locked(detail::LnvcDesc& d) {
  // Descriptor lock held.
  for (const auto& p : d.pulses) {
    if (p.count != 0) return true;
  }
  if (d.n_queued > 0) return true;
  shm::Offset c_off = d.connections.off;
  while (c_off != shm::kNullOffset) {
    auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
    if (conn->is_bcast() && conn->bcast_head != shm::kNullOffset) return true;
    c_off = conn->next;
  }
  return false;
}

Status Facility::pollset_create(ProcessId pid, PollSetId* out) {
  if (out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out = kInvalidPollSet;
  register_process(pid);
  ProcessId dead = kNoProcess;
  detail::PollSet* tab = pollset_table();
  for (std::uint32_t i = 0; i < header_->max_pollsets; ++i) {
    detail::PollSet& ps = tab[i];
    const ProcessId seized = alock(ps.lock, pid);
    if (seized != kNoProcess && dead == kNoProcess) dead = seized;
    if (ps.in_use != 0) {
      platform_->unlock(ps.lock);
      continue;
    }
    ps.owner_pid = pid;
    ps.n_members = 0;
    ps.ready_head.store(0, std::memory_order_relaxed);
    ps.waiter_pid.store(0, std::memory_order_relaxed);
    // Scrub member storage: a signal racing the previous destroy may have
    // left queued flags or stale links behind.
    const PsArrays a = ps_arrays(arena_, ps);
    for (std::uint32_t k = 0; k < header_->pollset_capacity; ++k) {
      a.members[k] = 0;
      a.ready_next[k] = 0;
      a.queued[k].store(0, std::memory_order_relaxed);
    }
    ps.in_use = 1;
    platform_->unlock(ps.lock);
    *out = static_cast<PollSetId>(i);
    reap_if_dead(pid, dead);
    return Status::ok;
  }
  reap_if_dead(pid, dead);
  return Status::table_full;
}

void Facility::pollset_destroy_locked(ProcessId pid, detail::PollSet& ps) {
  const auto psi1 =
      static_cast<std::uint32_t>(&ps - pollset_table()) + 1;
  const PsArrays a = ps_arrays(arena_, ps);
  ProcessId dead = kNoProcess;
  for (std::uint32_t i = 0; i < ps.n_members; ++i) {
    const std::uint32_t s1 = a.members[i];
    a.members[i] = 0;
    a.queued[i].store(0, std::memory_order_relaxed);
    if (s1 == 0 || s1 > header_->max_lnvcs) continue;
    detail::LnvcDesc& d = table()[s1 - 1];
    const ProcessId seized = alock_lnvc(d, pid);
    if (seized != kNoProcess && dead == kNoProcess) dead = seized;
    if (d.in_use != 0 &&
        d.pollset_id.load(std::memory_order_relaxed) == psi1 &&
        d.pollset_gen.load(std::memory_order_relaxed) == ps.generation) {
      d.pollset_id.store(0, std::memory_order_seq_cst);
      d.ready_armed.store(0, std::memory_order_relaxed);
    }
    platform_->unlock(d.lock);
  }
  ps.n_members = 0;
  ps.ready_head.store(0, std::memory_order_seq_cst);
  ++ps.generation;  // stale waiter / signal guard
  ps.in_use = 0;
  ps.owner_pid = 0;
  const std::uint32_t w = ps.waiter_pid.exchange(0, std::memory_order_seq_cst);
  platform_->unlock(ps.lock);
  if (w != 0 && w - 1 < header_->max_processes) {
    platform_->unpark(pslot(w - 1).park_node);
  }
  if (dead != kNoProcess) reap_if_dead(pid, dead);
}

Status Facility::pollset_destroy(ProcessId pid, PollSetId psid) {
  if (pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  const ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0) {
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  pollset_destroy_locked(pid, ps);  // unlocks
  reap_if_dead(pid, dead);
  return Status::ok;
}

Status Facility::pollset_add(ProcessId pid, PollSetId psid, LnvcId id) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0 || ps.owner_pid != pid) {
    const Status st =
        ps.in_use == 0 ? Status::no_such_lnvc : Status::not_connected;
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return st;
  }
  const PsArrays a = ps_arrays(arena_, ps);
  std::uint32_t mslot = ~std::uint32_t{0};
  for (std::uint32_t i = 0; i < ps.n_members; ++i) {
    if (a.members[i] == 0) {
      mslot = i;
      break;
    }
  }
  if (mslot == ~std::uint32_t{0}) {
    if (ps.n_members >= header_->pollset_capacity) {
      platform_->unlock(ps.lock);
      reap_if_dead(pid, dead);
      return Status::table_full;
    }
    mslot = ps.n_members;
  }
  const ProcessId seized = alock_lnvc(*d, pid);
  if (seized != kNoProcess && dead == kNoProcess) dead = seized;
  Status st = Status::ok;
  if (d->in_use == 0) {
    st = Status::no_such_lnvc;
  } else if (find_conn(*d, pid, /*sender=*/false) == nullptr) {
    st = Status::not_connected;
  } else if (d->pollset_id.load(std::memory_order_relaxed) != 0) {
    st = Status::rejected;  // at most one poll set per circuit
  }
  if (st != Status::ok) {
    platform_->unlock(d->lock);
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return st;
  }
  const auto slot1 = static_cast<std::uint32_t>(d - table()) + 1;
  a.members[mslot] = slot1;
  if (mslot == ps.n_members) ++ps.n_members;
  d->pollset_mslot.store(mslot, std::memory_order_seq_cst);
  d->pollset_gen.store(ps.generation, std::memory_order_seq_cst);
  d->ready_armed.store(0, std::memory_order_seq_cst);
  d->pollset_id.store(static_cast<std::uint32_t>(psid) + 1,
                      std::memory_order_seq_cst);  // id last: signals key on it
  // Prime ready: the first wait must observe messages queued before the
  // add, so the member enters the stack unconditionally (level-triggered
  // validation discards it if the circuit turns out idle).
  ps_push(ps, a, mslot);
  platform_->unlock(d->lock);
  const std::uint32_t w = ps.waiter_pid.load(std::memory_order_seq_cst);
  platform_->unlock(ps.lock);
  if (w != 0 && w - 1 < header_->max_processes) {
    platform_->unpark(pslot(w - 1).park_node);
  }
  reap_if_dead(pid, dead);
  return Status::ok;
}

Status Facility::pollset_remove(ProcessId pid, PollSetId psid, LnvcId id) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0 || ps.owner_pid != pid) {
    const Status st =
        ps.in_use == 0 ? Status::no_such_lnvc : Status::not_connected;
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return st;
  }
  const ProcessId seized = alock_lnvc(*d, pid);
  if (seized != kNoProcess && dead == kNoProcess) dead = seized;
  if (d->in_use == 0 ||
      d->pollset_id.load(std::memory_order_relaxed) !=
          static_cast<std::uint32_t>(psid) + 1 ||
      d->pollset_gen.load(std::memory_order_relaxed) != ps.generation) {
    platform_->unlock(d->lock);
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  const std::uint32_t m = d->pollset_mslot.load(std::memory_order_relaxed);
  d->pollset_id.store(0, std::memory_order_seq_cst);
  d->ready_armed.store(0, std::memory_order_relaxed);
  const PsArrays a = ps_arrays(arena_, ps);
  const auto slot1 = static_cast<std::uint32_t>(d - table()) + 1;
  if (m < header_->pollset_capacity && a.members[m] == slot1) {
    a.members[m] = 0;  // a queued ready entry for m dies at validation
  }
  platform_->unlock(d->lock);
  platform_->unlock(ps.lock);
  reap_if_dead(pid, dead);
  return Status::ok;
}

Status Facility::pollset_wait(ProcessId pid, PollSetId psid, LnvcId* out,
                              std::uint64_t timeout_ns) {
  if (out == nullptr || pid >= header_->max_processes || psid < 0 ||
      static_cast<std::uint32_t>(psid) >= header_->max_pollsets) {
    return Status::invalid_argument;
  }
  *out = kInvalidLnvc;
  detail::PollSet& ps = pollset_table()[psid];
  ProcessId dead = alock(ps.lock, pid);
  if (ps.in_use == 0) {
    platform_->unlock(ps.lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = ps.generation;
  // Single-waiter claim for the whole call: senders unpark whoever this
  // word names.  A dead claimant is seized under ps.lock (it can never
  // clear the word again).
  std::uint32_t expect = 0;
  if (!ps.waiter_pid.compare_exchange_strong(expect, pid + 1,
                                             std::memory_order_seq_cst) &&
      expect != pid + 1) {
    if (expect != 0 && !process_alive(expect - 1)) {
      if (dead == kNoProcess) dead = expect - 1;
      ps.waiter_pid.store(pid + 1, std::memory_order_seq_cst);
    } else {
      platform_->unlock(ps.lock);
      reap_if_dead(pid, dead);
      return Status::busy;
    }
  }
  std::uint64_t deadline = kNoDeadline;
  if (timeout_ns != kNoTimeout) {
    const std::uint64_t now = platform_->now_ns();
    deadline = now + timeout_ns;
    if (deadline < now) deadline = kNoDeadline;  // saturate huge timeouts
  }
  const PsArrays a = ps_arrays(arena_, ps);
  const std::uint32_t cap = header_->pollset_capacity;
  std::vector<std::uint32_t> batch;
  Status result = Status::timed_out;
  for (;;) {
    // ps.lock held at the top of every pass.
    if (ps.in_use == 0 || ps.generation != generation) {
      result = Status::closed;  // destroyed under us
      break;
    }
    // Pop the whole ready stack.  We are the single consumer (lock +
    // waiter claim), so exchange-to-empty is a clean cut; ready_next links
    // are stable for every popped member until its queued flag clears.
    batch.clear();
    std::uint32_t head = ps.ready_head.exchange(0, std::memory_order_seq_cst);
    while (head != 0 && batch.size() <= cap) {
      const std::uint32_t m = head - 1;
      if (m >= cap) break;
      batch.push_back(m);
      head = a.ready_next[m];
    }
    std::uint32_t found = 0;  // LnvcDesc slot + 1
    for (const std::uint32_t m : batch) {
      a.queued[m].store(0, std::memory_order_seq_cst);
      if (found != 0) {
        // Already have a winner: preserve the rest for the next wait.
        ps_push(ps, a, m);
        continue;
      }
      const std::uint32_t s1 = a.members[m];
      if (s1 == 0 || s1 > header_->max_lnvcs) continue;  // removed / stale
      detail::LnvcDesc& d = table()[s1 - 1];
      const ProcessId seized = alock_lnvc(d, pid);
      if (seized != kNoProcess && dead == kNoProcess) dead = seized;
      const bool mine =
          d.in_use != 0 &&
          d.pollset_id.load(std::memory_order_relaxed) ==
              static_cast<std::uint32_t>(psid) + 1 &&
          d.pollset_gen.load(std::memory_order_relaxed) == generation &&
          d.pollset_mslot.load(std::memory_order_relaxed) == m;
      if (!mine) {
        // Stale membership (the circuit was destroyed or moved on without
        // an explicit remove — e.g. reaped): reclaim the member hole so
        // churning circuits cannot fill the table.  Safe under ps.lock.
        if (d.in_use == 0 ||
            d.pollset_id.load(std::memory_order_relaxed) !=
                static_cast<std::uint32_t>(psid) + 1 ||
            d.pollset_gen.load(std::memory_order_relaxed) != generation) {
          a.members[m] = 0;
        }
        platform_->unlock(d.lock);
        continue;
      }
      if (pollset_ready_locked(d)) {
        found = s1;
        platform_->unlock(d.lock);
        ps_push(ps, a, m);  // level-triggered: undrained => ready next time
        continue;
      }
      // Idle: re-arm so the next deliverable event pushes.  Senders make
      // an event deliverable under this lock and signal after unlocking,
      // so one that missed the check above sees the arming.
      d.ready_armed.store(1, std::memory_order_seq_cst);
      platform_->unlock(d.lock);
    }
    if (found != 0) {
      *out = static_cast<LnvcId>(found - 1);
      result = Status::ok;
      break;
    }
    if (timeout_ns == 0) break;  // poll: one full pass, then timed_out
    if (deadline != kNoDeadline && platform_->now_ns() >= deadline) break;
    // Nothing ready: park on our wait node.  Epoch snapshot before the
    // unlock; any push after it bumps the epoch (the pusher reads
    // waiter_pid after its CAS), so the recheck + park cannot lose a wake.
    detail::ProcSlot& self = pslot(pid);
    const std::uint32_t epoch = sync::Parker::prepare(self.park_node);
    platform_->unlock(ps.lock);
    bool woken = true;
    if (ps.ready_head.load(std::memory_order_seq_cst) == 0) {
      std::uint64_t park_deadline =
          deadline == kNoDeadline ? sync::kNoParkDeadline : deadline;
      const std::uint64_t suspicion = header_->suspicion_ns;
      if (suspicion != 0) {
        const std::uint64_t cap_ns = platform_->now_ns() + suspicion;
        if (cap_ns < park_deadline) park_deadline = cap_ns;
      }
      header_->parks.fetch_add(1, std::memory_order_relaxed);
      woken = platform_->park(self.park_node, epoch, park_deadline,
                              header_->park_spin_ns);
    }
    const ProcessId seized = alock(ps.lock, pid);
    if (seized != kNoProcess && dead == kNoProcess) dead = seized;
    if (!woken && ps.in_use != 0 && ps.generation == generation) {
      // Suspicion expiry with no wake: self-heal against a pusher that
      // died between winning the arming and finishing the CAS push (its
      // queued flag may wedge the member).  Re-queue every live member;
      // the next pass re-validates them all level-triggered.
      for (std::uint32_t i = 0; i < ps.n_members; ++i) {
        if (a.members[i] != 0) {
          a.queued[i].store(0, std::memory_order_seq_cst);
          ps_push(ps, a, i);
        }
      }
    }
  }
  std::uint32_t self_claim = pid + 1;
  ps.waiter_pid.compare_exchange_strong(self_claim, 0,
                                        std::memory_order_seq_cst);
  platform_->unlock(ps.lock);
  reap_if_dead(pid, dead);
  return result;
}

Status Facility::send_pulse(ProcessId pid, LnvcId id, std::uint32_t code) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  platform_->charge_ops(1.0);
  const ProcessId dead = alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  if (find_conn(*d, pid, /*sender=*/true) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  Status st = Status::table_full;
  for (auto& p : d->pulses) {
    if (p.count != 0 && p.code == code) {
      ++p.count;
      header_->pulses_coalesced.fetch_add(1, std::memory_order_relaxed);
      st = Status::ok;
      break;
    }
  }
  if (st != Status::ok) {
    for (auto& p : d->pulses) {
      if (p.count == 0) {
        p.code = code;
        p.count = 1;
        st = Status::ok;
        break;
      }
    }
  }
  if (st == Status::ok) {
    header_->pulses_sent.fetch_add(1, std::memory_order_relaxed);
  }
  platform_->unlock(d->lock);
  if (st == Status::ok) {
    // Pulses are not messages: receive/claim paths ignore them, so only
    // the cond (spurious, rechecked) and the poll set need waking.
    platform_->notify_all(d->cond);
    pollset_signal(*d);
  }
  reap_if_dead(pid, dead);
  return st;
}

Status Facility::receive_pulse(ProcessId pid, LnvcId id,
                               std::uint32_t* out_code,
                               std::uint32_t* out_count) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes || out_code == nullptr ||
      out_count == nullptr) {
    return Status::invalid_argument;
  }
  *out_code = 0;
  *out_count = 0;
  platform_->charge_ops(1.0);
  const ProcessId dead = alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::no_such_lnvc;
  }
  if (find_conn(*d, pid, /*sender=*/false) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, dead);
    return Status::not_connected;
  }
  for (auto& p : d->pulses) {
    if (p.count != 0) {
      *out_code = p.code;
      *out_count = p.count;
      p = detail::PulseSlot{};
      break;
    }
  }
  platform_->unlock(d->lock);
  reap_if_dead(pid, dead);
  return Status::ok;
}

}  // namespace mpf
