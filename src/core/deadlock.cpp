// Exhaustion-deadlock detection (DESIGN.md §7).
//
// BlockPolicy::wait blocks a sender until receivers or closes recycle
// blocks.  When every process that could ever free a block is itself
// blocked, that wait never ends: the senders sit in the exhaustion
// monitor, the receivers sit on circuits whose only senders are those
// same blocked senders.  The suspicion-window probe already resolves the
// case where the would-be freers are dead (peer_failed); this file
// resolves the case where they are alive but stuck.
//
// Each process publishes one wait record in its ProcSlot for the duration
// of a blocking call with no deadline (exhaustion wait, quota park,
// blocking receive).  An exhaustion waiter whose suspicion window expires
// scans every record.  Two equal candidate scans one window apart — same
// members, same calls, no send, receive or free in between — are the
// verdict: every member is doomed by a CAS on the exact record word it
// was scanned with, woken, and returns Status::deadlock.
//
// The detector is deliberately conservative: any live process outside a
// recorded wait (computing, sleeping, in pollset_wait or a timed call)
// might still free blocks, so it keeps the detector silent.  A process
// that has not yet registered cannot be seen at all; a verdict is final
// for the members it names even if such a late joiner arrives afterwards.
#include "mpf/core/facility.hpp"

namespace mpf {

namespace {

detail::WaitKind kind_of(std::uint64_t word) noexcept {
  return static_cast<detail::WaitKind>(word & detail::kWaitKindMask);
}

}  // namespace

Facility::WaitRecord::~WaitRecord() {
  if (armed_) slot_.wait_word.store(0, std::memory_order_release);
}

void Facility::WaitRecord::arm(detail::WaitKind kind, LnvcId id,
                               std::uint32_t gen) noexcept {
  if (armed_) return;
  armed_ = true;
  slot_.wait_lnvc.store(static_cast<std::uint32_t>(id),
                        std::memory_order_relaxed);
  slot_.wait_gen.store(gen, std::memory_order_relaxed);
  const std::uint64_t seq = ++slot_.wait_seq;
  slot_.wait_word.store(
      (seq << detail::kWaitSeqShift) | static_cast<std::uint64_t>(kind),
      std::memory_order_release);
}

bool Facility::WaitRecord::doomed() const noexcept {
  return armed_ && (slot_.wait_word.load(std::memory_order_acquire) &
                    detail::kWaitDoomed) != 0;
}

bool Facility::wait_scan(ProcessId self, WaitScan* out) {
  const std::uint32_t n = header_->max_processes;
  out->words.assign(n, 0);
  bool any_exhaustion = false;
  for (ProcessId p = 0; p < n; ++p) {
    const std::uint32_t st = pslot(p).state.load(std::memory_order_acquire);
    if (st == detail::ProcSlot::kFree || st == detail::ProcSlot::kReaped) {
      continue;
    }
    // A dead, unreaped peer still holds whatever its reap will free.
    if (p != self && !process_alive(p)) return false;
    const std::uint64_t w =
        pslot(p).wait_word.load(std::memory_order_acquire);
    // Outside a recorded wait (or already doomed by another verdict): not
    // a candidate.
    if (w == 0 || (w & detail::kWaitDoomed) != 0) return false;
    out->words[p] = w;
    if (kind_of(w) == detail::WaitKind::exhaustion) any_exhaustion = true;
  }
  if (!any_exhaustion) return false;

  for (ProcessId p = 0; p < n; ++p) {
    const std::uint64_t w = out->words[p];
    if (w == 0 || kind_of(w) == detail::WaitKind::exhaustion) continue;
    const detail::ProcSlot& ps = pslot(p);
    const auto id = static_cast<LnvcId>(
        ps.wait_lnvc.load(std::memory_order_relaxed));
    const std::uint32_t gen = ps.wait_gen.load(std::memory_order_relaxed);
    // Operands are only meaningful for the call the word names.
    if (ps.wait_word.load(std::memory_order_acquire) != w) return false;
    detail::LnvcDesc* d = slot(id);
    if (d == nullptr) return false;
    alock_lnvc(*d, self);
    bool stuck = d->in_use != 0 && d->generation == gen;
    if (stuck && kind_of(w) == detail::WaitKind::receive) {
      const detail::Connection* conn = find_conn(*d, p, /*sender=*/false);
      const bool deliverable =
          conn == nullptr ||
          (conn->is_bcast() ? conn->bcast_head != shm::kNullOffset
                            : static_cast<bool>(d->fcfs_head));
      stuck = !deliverable && d->n_senders > 0;
      for (shm::Offset off = d->connections.off;
           stuck && off != shm::kNullOffset;) {
        const auto* c = static_cast<const detail::Connection*>(arena_.raw(off));
        if (c->is_sender() &&
            (c->process_id >= n || out->words[c->process_id] == 0)) {
          stuck = false;
        }
        off = c->next;
      }
    }
    platform_->unlock(d->lock);
    if (!stuck) return false;
  }

  out->sends = header_->sends.load(std::memory_order_relaxed);
  out->receives = header_->receives.load(std::memory_order_relaxed);
  out->free_blocks = 0;
  out->free_msgs = 0;
  const detail::PoolShard* sh = shards();
  for (std::uint32_t i = 0; i < header_->n_shards; ++i) {
    out->free_blocks += sh[i].blocks.available();
    out->free_msgs += sh[i].msgs.available();
  }
  const detail::ProcCache* pc = caches();
  for (ProcessId p = 0; p < n; ++p) {
    out->free_blocks += pc[p].block_count.load(std::memory_order_relaxed);
    out->free_msgs += pc[p].msg_count.load(std::memory_order_relaxed);
  }
  out->valid = true;
  return true;
}

bool Facility::deadlock_probe(ProcessId pid, WaitScan* prev) {
  WaitScan now;
  const bool candidate = wait_scan(pid, &now);
  reap_if_dead(pid, kNoProcess);
  if (!candidate || !prev->valid || !(now == *prev)) {
    *prev = std::move(now);
    return false;
  }
  // Confirmed across a full window: doom every member on the exact word
  // it was scanned with.  A failed CAS means that member's call already
  // returned — it was not stuck, and is left alone.
  const std::uint32_t n = header_->max_processes;
  for (ProcessId p = 0; p < n; ++p) {
    std::uint64_t w = now.words[p];
    if (w == 0) continue;
    pslot(p).wait_word.compare_exchange_strong(
        w, w | detail::kWaitDoomed, std::memory_order_acq_rel);
  }
  // Wake every member.  Each re-checks its record under the lock it
  // sleeps with, so the empty lock/unlock orders the doom stores before
  // any check that precedes its sleep (monitor discipline, as in
  // free_message's ripple).
  alock(header_->blocks_lock, pid);
  platform_->unlock(header_->blocks_lock);
  platform_->notify_all(header_->blocks_cond);
  for (ProcessId p = 0; p < n; ++p) {
    const std::uint64_t w = now.words[p];
    if (w == 0 || kind_of(w) == detail::WaitKind::exhaustion) continue;
    detail::LnvcDesc* d = slot(static_cast<LnvcId>(
        pslot(p).wait_lnvc.load(std::memory_order_relaxed)));
    if (d == nullptr) continue;
    alock_lnvc(*d, pid);
    platform_->unlock(d->lock);
    platform_->notify_all(d->cond);
    platform_->notify_all(d->park_cond);
  }
  reap_if_dead(pid, kNoProcess);
  return true;
}

}  // namespace mpf
