// Message transfer over LNVCs: send, receive, check, and the
// reference-counted reclamation that keeps the FIFO bounded.
//
// Crash-tolerance discipline (see recovery.cpp for the reasoning): every
// descriptor lock is taken robustly (alock_lnvc), every block of the
// message's journey is covered by an intent-journal record, and every
// public entry point drains pending reaps (reap_if_dead) on its way out,
// once no facility lock is held.
#include <cstring>

#include "mpf/core/facility.hpp"

namespace mpf {

namespace {

/// Upper bound on one message; a sanity valve, not a protocol limit.
constexpr std::size_t kMaxMessageBytes = 64ull << 20;

std::size_t blocks_for(std::size_t len, std::uint32_t payload) {
  return payload == 0 ? 0 : (len + payload - 1) / payload;
}

}  // namespace

void Facility::reclaim(ProcessId pid, detail::LnvcDesc& d) {
  // Recycle from the front of the FIFO while the head message has been
  // FCFS-consumed, read by every BROADCAST receiver that claims it, and is
  // not being copied out right now.
  while (d.msg_head) {
    auto* m = arena_.get(d.msg_head);
    if (m->fcfs_consumed == 0 ||
        m->bcast_remaining.load(std::memory_order_acquire) != 0 ||
        m->pins != 0) {
      break;
    }
    d.msg_head = shm::Ref<detail::MsgHeader>{m->next_msg};
    if (!d.msg_head) d.msg_tail = shm::Ref<detail::MsgHeader>{};
    quota_release(d, *m);
    free_message(pid, m);
  }
}

void Facility::quota_release(detail::LnvcDesc& d, const detail::MsgHeader& m) {
  // Saturating: a quota set after messages were already queued (or cleared
  // while they drain) leaves the ledger counting only the charged ones.
  if ((m.flags & detail::MsgHeader::kSlab) != 0) {
    if (d.used_slabs > 0) --d.used_slabs;
  } else {
    d.used_blocks = d.used_blocks >= m.nblocks ? d.used_blocks - m.nblocks : 0;
  }
}

void Facility::quota_refund(ProcessId pid, detail::LnvcDesc& d) {
  detail::ProcSlot& ps = pslot(pid);
  if (ps.q_active.load(std::memory_order_acquire) == 0) return;
  d.used_blocks =
      d.used_blocks >= ps.q_blocks ? d.used_blocks - ps.q_blocks : 0;
  d.used_slabs = d.used_slabs >= ps.q_slabs ? d.used_slabs - ps.q_slabs : 0;
  ps.q_active.store(0, std::memory_order_release);
}

void Facility::park_ripple(detail::LnvcDesc& d) {
  // Cheap when nobody is parked (the default-config case): one load.
  // Waiters register under the descriptor lock before sleeping and
  // re-check the quota under it after waking, so a notify here (after any
  // release done under that lock) cannot be lost.
  if (d.park_waiters.load(std::memory_order_acquire) > 0) {
    platform_->notify_all(d.park_cond);
  }
}

bool Facility::probe_claim(detail::LnvcDesc& d, ProcessId pid) {
  // Descriptor lock held.  One prober per circuit: without the token, every
  // blocked peer wakes at suspicion_ns, re-acquires `lock`, and sweeps the
  // connection list — with hundreds of simultaneous waiters (a barrier, an
  // overloaded funnel) the probe convoy alone saturates the lock.  The
  // token holder probes at the tight period; everyone else stretches out
  // (probe_wait_ns) and relies on the prober's reap + notify.
  const std::uint32_t me = static_cast<std::uint32_t>(pid) + 1;
  const std::uint32_t cur = d.prober;
  if (cur == me) return true;
  if (cur != 0 && process_alive(static_cast<ProcessId>(cur - 1))) {
    return false;
  }
  d.prober = me;
  return true;
}

std::uint64_t Facility::probe_wait_ns(ProcessId pid, std::uint64_t suspicion,
                                      bool prober) {
  if (prober) return suspicion;
  // Lazy waiters still sweep on their (rare) un-notified timeouts, which
  // re-elects a prober whose holder died.  The pid jitter keeps the lazy
  // wakes from re-converging into the convoy the token exists to break.
  return suspicion * (16 + (static_cast<std::uint64_t>(pid) & 15));
}

void Facility::probe_release(detail::LnvcDesc& d, ProcessId pid) {
  if (d.prober == static_cast<std::uint32_t>(pid) + 1) d.prober = 0;
}

Status Facility::quota_admit(ProcessId pid, detail::LnvcDesc& d, LnvcId id,
                             std::uint32_t need_blocks,
                             std::uint32_t need_slabs,
                             std::uint64_t deadline_ns) {
  // Descriptor lock held.  Unlimited circuits skip the ledger entirely —
  // the pre-quota fast path is one pair of loads.
  if (d.quota_blocks == 0 && d.quota_slabs == 0) return Status::ok;
  const std::uint32_t generation = d.generation;
  const auto fits = [&d, need_blocks, need_slabs]() noexcept {
    return (d.quota_blocks == 0 ||
            d.used_blocks + need_blocks <= d.quota_blocks) &&
           (d.quota_slabs == 0 || d.used_slabs + need_slabs <= d.quota_slabs);
  };
  detail::ProcSlot& ps = pslot(pid);
  bool parked = false;
  std::uint64_t ticket = 0;
  // Head = the smallest ticket among LIVE parked members of this circuit.
  // A scan beats a served-ticket cursor here: when a parked process dies
  // and is reaped (its membership flag cleared), the next ticket becomes
  // head with no cursor to repair — the queue cannot wedge on the dead.
  const auto is_head = [&]() {
    for (ProcessId p = 0; p < header_->max_processes; ++p) {
      if (p == pid) continue;
      const detail::ProcSlot& q = pslot(p);
      if (q.park_active.load(std::memory_order_acquire) != 0 &&
          q.park_lnvc.load(std::memory_order_relaxed) ==
              static_cast<std::uint32_t>(id) &&
          q.park_gen.load(std::memory_order_relaxed) == generation &&
          q.park_ticket.load(std::memory_order_relaxed) < ticket) {
        return false;
      }
    }
    return true;
  };
  // Leave the park FIFO (lock held); the caller ripples park_cond once
  // unlocked so the next ticket re-checks.
  const auto unpark = [&]() {
    ps.park_active.store(0, std::memory_order_release);
    d.park_waiters.fetch_sub(1, std::memory_order_acq_rel);
    parked = false;
  };
  WaitRecord rec(*this, pid);
  for (;;) {
    if (rec.doomed()) {
      // An exhaustion waiter's deadlock verdict named this park.
      if (parked) unpark();
      return Status::deadlock;
    }
    // Admission is FIFO: an arrival may only pass when nobody is parked
    // ahead of it, and a parked sender only when it reaches the head.
    if (fits() &&
        (parked ? is_head()
                : d.park_waiters.load(std::memory_order_relaxed) == 0)) {
      break;
    }
    if (static_cast<AdmissionPolicy>(d.policy) != AdmissionPolicy::block) {
      // shed_newest / fail_fast never park — and a mid-park policy switch
      // (set_admission while senders wait) evicts anyone already parked:
      // leaving the membership flag set on a live process would wedge the
      // FIFO for the circuit's lifetime.  The caller ripples park_cond so
      // the next ticket re-checks, and maps the refusal per policy.
      if (parked) unpark();
      return Status::rejected;
    }
    // Deadline before ticket: an already-expired deadline (the timeout-0
    // poll) returns without ever joining the FIFO or counting a park.
    const std::uint64_t now = platform_->now_ns();
    if (deadline_ns != kNoDeadline && now >= deadline_ns) {
      if (parked) unpark();
      return Status::timed_out;
    }
    if (!parked) {
      ticket = d.park_next_ticket++;
      d.park_waiters.fetch_add(1, std::memory_order_acq_rel);
      ps.park_lnvc.store(static_cast<std::uint32_t>(id),
                         std::memory_order_relaxed);
      ps.park_gen.store(generation, std::memory_order_relaxed);
      ps.park_ticket.store(ticket, std::memory_order_relaxed);
      ps.park_active.store(1, std::memory_order_release);
      parked = true;
      header_->quota_parks.fetch_add(1, std::memory_order_relaxed);
      if (deadline_ns == kNoDeadline) {
        rec.arm(detail::WaitKind::quota, id, generation);
      }
    }
    // Sleep bounded by the deadline and the suspicion threshold, so a dead
    // head (or a dead receiver that will never drain the quota) cannot
    // wedge the queue: an un-notified expiry probes and reaps.  Only the
    // elected prober keeps the tight period (see probe_claim) — a deeply
    // parked FIFO probing in unison would convoy on the descriptor lock.
    const std::uint64_t suspicion = header_->suspicion_ns;
    const bool prober = suspicion != 0 && probe_claim(d, pid);
    std::uint64_t wait_ns = suspicion != 0
                                ? probe_wait_ns(pid, suspicion, prober)
                                : std::uint64_t{1} << 62;
    if (deadline_ns != kNoDeadline && deadline_ns - now < wait_ns) {
      wait_ns = deadline_ns - now;
    }
    bool notified = false;
    const ProcessId dead =
        await_for(d.lock, d.park_cond, pid, wait_ns, &notified);
    probe_release(d, pid);
    if (dead != kNoProcess) repair_lnvc(d);
    if (d.in_use == 0 || d.generation != generation) {
      // The circuit died while we were parked; destroy already reset the
      // park counters and the ledger, so only our membership flag remains.
      ps.park_active.store(0, std::memory_order_release);
      return Status::closed;
    }
    if (find_conn(d, pid, /*sender=*/true) == nullptr) {
      unpark();
      return Status::closed;
    }
    if (!notified && suspicion != 0) {
      // Liveness sweep: reap dead connection holders (a dead receiver can
      // never drain the quota) and dead parked peers (a dead head blocks
      // everyone behind it until its membership flag clears).
      ProcessId suspect = kNoProcess;
      shm::Offset c_off = d.connections.off;
      while (c_off != shm::kNullOffset) {
        auto* sc = static_cast<detail::Connection*>(arena_.raw(c_off));
        if (sc->process_id != pid && !process_alive(sc->process_id)) {
          suspect = sc->process_id;
          break;
        }
        c_off = sc->next;
      }
      if (suspect == kNoProcess) {
        for (ProcessId p = 0; p < header_->max_processes; ++p) {
          detail::ProcSlot& q = pslot(p);
          if (p != pid &&
              q.park_active.load(std::memory_order_acquire) != 0 &&
              q.park_lnvc.load(std::memory_order_relaxed) ==
                  static_cast<std::uint32_t>(id) &&
              q.park_gen.load(std::memory_order_relaxed) == generation &&
              !process_alive(p)) {
            suspect = p;
            break;
          }
        }
      }
      if (suspect != kNoProcess) {
        platform_->unlock(d.lock);
        reap_if_dead(pid, suspect);
        alock_lnvc(d, pid);
        if (d.in_use == 0 || d.generation != generation) {
          ps.park_active.store(0, std::memory_order_release);
          return Status::closed;
        }
      } else if (d.n_fcfs == 0 && d.n_bcast == 0 && !fits()) {
        // Quota full and no receiver exists to drain it: parking any
        // longer waits on a peer that is not there (the quota-park
        // analogue of the exhaustion monitor's verdict).
        unpark();
        header_->peer_failures.fetch_add(1, std::memory_order_relaxed);
        return Status::peer_failed;
      }
    }
  }
  if (parked) unpark();
  // Admitted: charge the ledger and arm the reservation journal before
  // the lock drops, so a death between here and the enqueue commit is
  // refunded by the reaper (operands first, q_active last).
  d.used_blocks += need_blocks;
  d.used_slabs += need_slabs;
  if (d.used_blocks > d.hw_blocks) d.hw_blocks = d.used_blocks;
  if (d.used_slabs > d.hw_slabs) d.hw_slabs = d.used_slabs;
  ps.q_lnvc = static_cast<std::uint32_t>(id);
  ps.q_gen = generation;
  ps.q_blocks = need_blocks;
  ps.q_slabs = need_slabs;
  ps.q_active.store(1, std::memory_order_release);
  return Status::ok;
}

Status Facility::send(ProcessId pid, LnvcId id, const void* data,
                      std::size_t len) {
  const ConstBuffer one{data, len};
  return send_impl(pid, id, std::span<const ConstBuffer>(&one, 1), len,
                   kNoDeadline);
}

Status Facility::send_v(ProcessId pid, LnvcId id,
                        std::span<const ConstBuffer> iov) {
  std::size_t total = 0;
  for (const ConstBuffer& b : iov) total += b.len;
  return send_impl(pid, id, iov, total, kNoDeadline);
}

Status Facility::send_timed(ProcessId pid, LnvcId id, const void* data,
                            std::size_t len, std::uint64_t timeout_ns) {
  const ConstBuffer one{data, len};
  return sendv_timed(pid, id, std::span<const ConstBuffer>(&one, 1),
                     timeout_ns);
}

Status Facility::sendv_timed(ProcessId pid, LnvcId id,
                             std::span<const ConstBuffer> iov,
                             std::uint64_t timeout_ns) {
  std::size_t total = 0;
  for (const ConstBuffer& b : iov) total += b.len;
  // timeout 0 = poll: the deadline is "now", so any would-block point
  // (quota park, pool exhaustion) expires immediately instead of sleeping.
  const std::uint64_t now = platform_->now_ns();
  std::uint64_t deadline = now + timeout_ns;
  if (deadline < now) deadline = kNoDeadline;  // saturate huge timeouts
  return send_impl(pid, id, iov, total, deadline);
}

Status Facility::send_impl(ProcessId pid, LnvcId id,
                           std::span<const ConstBuffer> iov, std::size_t len,
                           std::uint64_t deadline_ns) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || pid >= header_->max_processes ||
      len > kMaxMessageBytes) {
    return Status::invalid_argument;
  }
  for (const ConstBuffer& b : iov) {
    if (b.data == nullptr && b.len > 0) return Status::invalid_argument;
  }
  platform_->charge_send_fixed();

  // The slab-versus-chain choice depends only on the length and the pool
  // geometry, so the admission cost is known before taking any lock.
  const bool want_slab = header_->slab_threshold != 0 &&
                         len >= header_->slab_threshold &&
                         len <= header_->slab_bytes;
  const std::size_t need_chain = blocks_for(len, header_->block_payload);

  // Validate the connection before paying for allocation and copy-in.
  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = d->generation;
  if (find_conn(*d, pid, /*sender=*/true) == nullptr) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::not_connected;
  }
  // Admission control: charge this message against the circuit's quota (a
  // no-op on unlimited circuits).  quota_admit may drop and retake the
  // lock while parked; on ok the state has been re-validated under the
  // re-taken lock, so the node pick below still sees a consistent list.
  {
    const Status admit = quota_admit(
        pid, *d, id, want_slab ? 0 : static_cast<std::uint32_t>(need_chain),
        want_slab ? 1 : 0, deadline_ns);
    if (admit != Status::ok) {
      const auto policy = static_cast<AdmissionPolicy>(d->policy);
      platform_->unlock(d->lock);
      park_ripple(*d);
      reap_if_dead(pid, kNoProcess);
      if (admit == Status::rejected) {
        if (policy == AdmissionPolicy::shed_newest) {
          // Shed: the newest message (this one) is silently dropped; the
          // sender observes success, the counter observes the loss.
          header_->sends_shed.fetch_add(1, std::memory_order_relaxed);
          return Status::ok;
        }
        header_->sends_rejected.fetch_add(1, std::memory_order_relaxed);
        return Status::rejected;
      }
      if (admit == Status::timed_out) {
        header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
      }
      return admit;
    }
  }
  // Pick the memory node for the message body while the descriptor lock
  // pins the connection list: an FCFS message is consumed by exactly one
  // receiver, so placing it on that receiver's node turns the expensive
  // remote leg into the cheap one (DESIGN.md §10).  BROADCAST fan-out has
  // no single best home; it stays sender-local, as does everything when
  // the placement knob is off or the machine has one node.
  std::uint32_t target_node = pslot(pid).node;
  if (header_->numa_nodes > 1 && header_->numa_prefer_receiver != 0) {
    shm::Offset c_off = d->connections.off;
    while (c_off != shm::kNullOffset) {
      auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
      if (conn->is_fcfs()) {
        target_node = pslot(conn->process_id).node;
        break;
      }
      c_off = conn->next;
    }
  }
  platform_->unlock(d->lock);

  // Large messages go into one contiguous slab extent when the pool has
  // one to spare; everything else (and slab-pool exhaustion) takes the
  // paper's block chain.
  shm::Offset extent = shm::kNullOffset;
  if (want_slab) {
    extent = slab_alloc(pid, target_node);
    if (extent == shm::kNullOffset) {
      header_->slab_fallbacks.fetch_add(1, std::memory_order_relaxed);
      // The admission charge reserved a slab; the fallback consumes chain
      // blocks instead.  Convert the reservation under the lock — refund
      // the slab, re-admit for the chain (which may park again).
      if (pslot(pid).q_active.load(std::memory_order_acquire) != 0) {
        alock_lnvc(*d, pid);
        if (d->in_use == 0 || d->generation != generation ||
            find_conn(*d, pid, /*sender=*/true) == nullptr) {
          if (d->in_use != 0 && d->generation == generation) {
            quota_refund(pid, *d);
          } else {
            // Destroy already reset the ledger; only disarm the journal.
            pslot(pid).q_active.store(0, std::memory_order_release);
          }
          platform_->unlock(d->lock);
          park_ripple(*d);
          reap_if_dead(pid, kNoProcess);
          return Status::closed;
        }
        quota_refund(pid, *d);
        const Status admit =
            quota_admit(pid, *d, id, static_cast<std::uint32_t>(need_chain),
                        0, deadline_ns);
        if (admit != Status::ok) {
          const auto policy = static_cast<AdmissionPolicy>(d->policy);
          platform_->unlock(d->lock);
          park_ripple(*d);
          reap_if_dead(pid, kNoProcess);
          if (admit == Status::rejected) {
            if (policy == AdmissionPolicy::shed_newest) {
              header_->sends_shed.fetch_add(1, std::memory_order_relaxed);
              return Status::ok;
            }
            header_->sends_rejected.fetch_add(1, std::memory_order_relaxed);
            return Status::rejected;
          }
          if (admit == Status::timed_out) {
            header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
          }
          return admit;
        }
        platform_->unlock(d->lock);
        park_ripple(*d);
      }
    }
  }
  const bool slab = extent != shm::kNullOffset;

  // Allocate a header plus the block chain from the sharded pool: own
  // magazine first, then the home shard, stealing and raiding before the
  // monitor-disciplined exhaustion wait (pool.cpp).  On success the gather
  // journal record stays armed — the nodes are in our hands until the
  // enqueue record supersedes it below.  A slab message needs no chain.
  const std::size_t need = slab ? 0 : need_chain;
  shm::Offset msg_off = shm::kNullOffset;
  shm::Offset chain = shm::kNullOffset;
  shm::Offset chain_tail = shm::kNullOffset;
  const Status alloc_status = alloc_message(pid, need, target_node, &msg_off,
                                            &chain, &chain_tail, deadline_ns);
  if (alloc_status != Status::ok) {
    if (slab) slab_free(pid, extent);
    // Undo the admission charge: the message never reached the FIFO.
    if (pslot(pid).q_active.load(std::memory_order_acquire) != 0) {
      alock_lnvc(*d, pid);
      if (d->in_use != 0 && d->generation == generation) {
        quota_refund(pid, *d);
      } else {
        pslot(pid).q_active.store(0, std::memory_order_release);
      }
      platform_->unlock(d->lock);
      park_ripple(*d);
    }
    if (alloc_status == Status::timed_out) {
      header_->sends_timed_out.fetch_add(1, std::memory_order_relaxed);
    }
    reap_if_dead(pid, kNoProcess);
    return alloc_status;
  }

  // Build the message outside any LNVC lock: copy the send buffer(s) into
  // the slab or the block chain (paper §3.1).
  auto* m = ::new (arena_.raw(msg_off)) detail::MsgHeader();
  m->length = static_cast<std::uint32_t>(len);
  m->nblocks = static_cast<std::uint32_t>(need);
  m->first_block = slab ? extent : chain;
  m->last_block = slab ? extent : chain_tail;
  m->flags = slab ? detail::MsgHeader::kSlab : 0;
  m->next_msg = shm::kNullOffset;
  if (slab) {
    auto* dst = static_cast<std::byte*>(arena_.raw(extent));
    for (const ConstBuffer& io : iov) {
      std::memcpy(dst, io.data, io.len);
      dst += io.len;
    }
  } else {
    detail::Block* b = nullptr;
    std::byte* bp = nullptr;
    std::size_t room = 0;
    shm::Offset b_off = chain;
    for (const ConstBuffer& io : iov) {
      const auto* src = static_cast<const std::byte*>(io.data);
      std::size_t left = io.len;
      while (left > 0) {
        if (room == 0) {
          b = static_cast<detail::Block*>(arena_.raw(b_off));
          bp = b->data();
          room = header_->block_payload;
          b_off = b->next;
        }
        const std::size_t chunk = std::min(room, left);
        std::memcpy(bp, src, chunk);
        bp += chunk;
        src += chunk;
        room -= chunk;
        left -= chunk;
      }
    }
  }
  const std::size_t footprint =
      sizeof(detail::MsgHeader) +
      (slab ? static_cast<std::size_t>(header_->slab_bytes)
            : need * (sizeof(detail::Block) + header_->block_payload));
  platform_->on_buffer_alloc(footprint);
  // A slab fill is one contiguous bulk transfer; a chain pays per block.
  // The fill reads the sender-local buffer and writes wherever the body
  // landed — remote when placement chose the receiver's node.
  {
    const std::uint32_t my_node = pslot(pid).node;
    platform_->charge_copy_nodes(len, slab ? 0 : need, my_node,
                                 node_of_offset(m->first_block), my_node);
  }
  platform_->touch(len);

  // Swap the gather record for an enqueue record (same operands, so a
  // death on either side of the store resolves identically), then link
  // under the LNVC lock.  ProcSlot::slab rides along untouched: it keeps
  // covering the extent until the stage-1 commit below.
  detail::GatherChain gc;
  gc.head = chain;
  gc.tail = chain_tail;
  gc.count = need;
  journal_enqueue(pid, id, generation, msg_off, gc);
  alock_lnvc(*d, pid);
  if (d->in_use == 0 || d->generation != generation ||
      find_conn(*d, pid, /*sender=*/true) == nullptr) {
    // Undo the admission charge first: same circuit, refund the ledger;
    // recycled slot, the ledger was reset with the old circuit and the
    // journal just disarms.
    if (d->in_use != 0 && d->generation == generation) {
      quota_refund(pid, *d);
    } else {
      pslot(pid).q_active.store(0, std::memory_order_release);
    }
    platform_->unlock(d->lock);
    park_ripple(*d);
    // The LNVC died (or our connection was closed) during the copy.  The
    // stage-0 enqueue record hands off to free_message's own record in
    // the same inter-sim-point span.
    journal_clear(pid);
    free_message(pid, m);
    reap_if_dead(pid, kNoProcess);
    return Status::closed;
  }
  m->seq = d->seq_counter++;
  // Delivery claims (design §3 of DESIGN.md): every BROADCAST receiver
  // connected now must read it; the FCFS sub-stream keeps a claim unless
  // the reclaim_broadcast_only option applies.
  m->bcast_remaining.store(d->n_bcast, std::memory_order_relaxed);
  m->fcfs_consumed = (header_->reclaim_broadcast_only != 0 &&
                      d->n_fcfs == 0 && d->n_bcast > 0)
                         ? 1
                         : 0;
  m->pins = 0;

  if (d->msg_tail) {
    arena_.get(d->msg_tail)->next_msg = msg_off;
  } else {
    d->msg_head = shm::Ref<detail::MsgHeader>{msg_off};
  }
  d->msg_tail = shm::Ref<detail::MsgHeader>{msg_off};

  // Receivers whose head pointer was "at the tail" now point here.
  if (m->fcfs_consumed == 0) {
    ++d->n_queued;
    if (!d->fcfs_head) d->fcfs_head = shm::Ref<detail::MsgHeader>{msg_off};
  }
  shm::Offset c_off = d->connections.off;
  while (c_off != shm::kNullOffset) {
    auto* conn = static_cast<detail::Connection*>(arena_.raw(c_off));
    if (conn->is_bcast() && conn->bcast_head == shm::kNullOffset) {
      conn->bcast_head = msg_off;
    }
    c_off = conn->next;
  }
  // Linked: mark the record stage 1 in the same inter-sim-point span as
  // the link itself, so a reaper never rolls back a reachable message.
  // The slab operand hands off to the FIFO in the same span: from here on
  // the message (reachable, stage 1) owns the extent — and the quota
  // charge transfers from the reservation journal to the queued message
  // (quota_release pays it back when the message leaves the FIFO).
  journal_stage(pid, 1);
  pslot(pid).slab = shm::kNullOffset;
  pslot(pid).q_active.store(0, std::memory_order_release);
  ++d->total_msgs;
  d->total_bytes += len;
  // A message nobody will ever deliver (no receivers under the reclaim
  // option) is dropped immediately rather than leaked.
  if (m->fcfs_consumed != 0 &&
      m->bcast_remaining.load(std::memory_order_relaxed) == 0) {
    reclaim(pid, *d);
  }
  platform_->unlock(d->lock);
  journal_clear(pid);

  header_->sends.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_sent.fetch_add(len, std::memory_order_relaxed);
  if (slab) header_->slab_sends.fetch_add(1, std::memory_order_relaxed);
  platform_->notify_all(d->cond);
  pollset_signal(*d);
  // The undeliverable-reclaim above may have freed quota; pass the baton.
  park_ripple(*d);
  if (header_->activity_waiters.load(std::memory_order_acquire) > 0) {
    // A multi-waiter may have scanned this LNVC before our enqueue; the
    // empty lock/unlock orders us against its check-then-sleep, so the
    // notify cannot be lost (monitor discipline for receive_any).
    alock(header_->activity_lock, pid);
    platform_->unlock(header_->activity_lock);
    platform_->notify_all(header_->activity_cond);
  }
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

Status Facility::receive_any(ProcessId pid, std::span<const LnvcId> ids,
                             void* buf, std::size_t cap,
                             std::size_t* out_len, std::size_t* out_index) {
  return receive_any_impl(pid, ids, buf, cap, out_len, out_index,
                          kNoDeadline);
}

Status Facility::receive_any_for(ProcessId pid, std::span<const LnvcId> ids,
                                 void* buf, std::size_t cap,
                                 std::size_t* out_len, std::size_t* out_index,
                                 std::uint64_t timeout_ns) {
  // timeout 0 = one full nonblocking sweep, then timed_out: the deadline
  // "now" expires after the first scan inside the impl.
  const std::uint64_t now = platform_->now_ns();
  std::uint64_t deadline = now + timeout_ns;
  if (deadline < now) deadline = kNoDeadline;  // saturate huge timeouts
  return receive_any_impl(pid, ids, buf, cap, out_len, out_index, deadline);
}

Status Facility::receive_any_impl(ProcessId pid, std::span<const LnvcId> ids,
                                  void* buf, std::size_t cap,
                                  std::size_t* out_len,
                                  std::size_t* out_index,
                                  std::uint64_t deadline_ns) {
  if (ids.empty() || out_len == nullptr || out_index == nullptr) {
    return Status::invalid_argument;
  }
  if (ids.size() == 1) {
    *out_index = 0;
    if (deadline_ns == kNoDeadline) {
      return receive(pid, ids[0], buf, cap, out_len);
    }
    const std::uint64_t now = platform_->now_ns();
    return receive_for(pid, ids[0], buf, cap, out_len,
                       deadline_ns > now ? deadline_ns - now : 0);
  }
  if (pid >= header_->max_processes) return Status::invalid_argument;
  // Hoisted connection snapshot (one row per listed circuit): the locked
  // find_conn walk happens once up front and again only when a circuit's
  // struct_epoch says its structure actually changed.  A spurious
  // activity wakeup over 1k circuits then re-probes with one lock and two
  // loads each instead of 1k connection-list walks.
  struct Probe {
    detail::LnvcDesc* d = nullptr;
    std::uint64_t epoch = 0;              ///< struct_epoch at snapshot
    shm::Offset conn = shm::kNullOffset;  ///< our receive connection
    bool fcfs = false;
    bool ready = false;
    bool orphaned = false;
  };
  std::vector<Probe> probes(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    probes[i].d = slot(ids[i]);
    if (probes[i].d == nullptr) return Status::invalid_argument;
  }
  // (Re)walk one circuit's connection list under its (held) lock.
  const auto refresh = [&](std::size_t i) -> Status {
    Probe& p = probes[i];
    header_->any_rescans.fetch_add(1, std::memory_order_relaxed);
    p.epoch = p.d->struct_epoch.load(std::memory_order_relaxed);
    if (p.d->in_use == 0) return Status::no_such_lnvc;
    detail::Connection* c = find_conn(*p.d, pid, /*sender=*/false);
    if (c == nullptr) return Status::not_connected;
    p.conn = arena_.ref_of(c).off;
    p.fcfs = c->is_fcfs();
    return Status::ok;
  };
  // One locked readiness probe; refreshes the snapshot only if the
  // structural epoch moved since it was taken.
  const auto probe_one = [&](std::size_t i) -> Status {
    Probe& p = probes[i];
    p.ready = false;
    p.orphaned = false;
    alock_lnvc(*p.d, pid);
    if (p.conn == shm::kNullOffset ||
        p.d->struct_epoch.load(std::memory_order_relaxed) != p.epoch) {
      const Status s = refresh(i);
      if (s != Status::ok) {
        platform_->unlock(p.d->lock);
        return s;
      }
    }
    auto* c = static_cast<detail::Connection*>(arena_.raw(p.conn));
    p.ready = p.fcfs ? static_cast<bool>(p.d->fcfs_head)
                     : c->bcast_head != shm::kNullOffset;
    p.orphaned = p.d->n_senders == 0 && p.d->last_sender_died != 0;
    platform_->unlock(p.d->lock);
    return Status::ok;
  };
  // The rotation cursor persists across calls (in this process's ProcCache
  // slot), so a receiver draining several busy LNVCs round-robins between
  // them instead of re-biasing toward the first listed one on every call.
  std::atomic<std::uint32_t>& cursor = caches()[pid].any_cursor;
  std::size_t start =
      cursor.load(std::memory_order_relaxed) % ids.size();
  for (;;) {
    bool all_orphaned = true;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const std::size_t i = (start + k) % ids.size();
      platform_->charge_recv_fixed();
      const Status ps = probe_one(i);
      if (ps != Status::ok) {
        reap_if_dead(pid, kNoProcess);
        return ps;
      }
      if (probes[i].ready) {
        bool got = false;
        const Status s = receive_impl(pid, ids[i], buf, cap, out_len,
                                      /*blocking=*/false, &got);
        if (s != Status::ok && s != Status::truncated) return s;
        if (got) {
          *out_index = i;
          // Resume the next scan just past the circuit that delivered.
          cursor.store(static_cast<std::uint32_t>((i + 1) % ids.size()),
                       std::memory_order_relaxed);
          return s;
        }
        // Another receiver won the race to that message; keep scanning.
      }
      if (!probes[i].orphaned) all_orphaned = false;
    }
    start = (start + 1) % ids.size();
    // If every listed circuit has lost its last sender to a failure, no
    // message can ever arrive: blocking would hang forever.  One live or
    // cleanly-closed circuit keeps the wait legitimate.
    if (all_orphaned) {
      header_->orphaned_receives.fetch_add(1, std::memory_order_relaxed);
      reap_if_dead(pid, kNoProcess);
      return Status::lnvc_orphaned;
    }
    // Deadline check sits between scan and sleep: expiry still gets one
    // final full sweep above, and the cursor keeps whatever value the
    // last delivery left (a timeout must not re-bias the rotation).
    if (deadline_ns != kNoDeadline && platform_->now_ns() >= deadline_ns) {
      reap_if_dead(pid, kNoProcess);
      return Status::timed_out;
    }
    // Nothing ready anywhere: sleep on the facility-wide activity signal.
    // Counter before flag: if we die in between, the stale registration
    // only costs spurious ripples until the reap repairs it.
    header_->activity_waiters.fetch_add(1, std::memory_order_acq_rel);
    pslot(pid).in_activity.store(1, std::memory_order_release);
    alock(header_->activity_lock, pid);
    // Re-probe under the waiter registration: a send that happened after
    // the scan above has either been seen here or will notify us.  The
    // snapshot makes this sweep cheap — no connection re-walk unless a
    // circuit's structure changed.  (No reap here: reap retakes the
    // activity monitor to repair waiter counts — it would self-deadlock.)
    bool ready = false;
    Status probe = Status::ok;
    for (std::size_t i = 0; i < ids.size() && !ready; ++i) {
      platform_->charge_check();
      probe = probe_one(i);
      if (probe != Status::ok) break;
      ready = probes[i].ready;
    }
    if (probe != Status::ok) {
      platform_->unlock(header_->activity_lock);
      pslot(pid).in_activity.store(0, std::memory_order_release);
      header_->activity_waiters.fetch_sub(1, std::memory_order_acq_rel);
      reap_if_dead(pid, kNoProcess);
      return probe;
    }
    if (!ready) {
      if (deadline_ns == kNoDeadline) {
        await(header_->activity_lock, header_->activity_cond, pid);
      } else {
        const std::uint64_t now = platform_->now_ns();
        if (now < deadline_ns) {
          bool notified = false;
          await_for(header_->activity_lock, header_->activity_cond, pid,
                    deadline_ns - now, &notified);
        }
      }
    }
    platform_->unlock(header_->activity_lock);
    pslot(pid).in_activity.store(0, std::memory_order_release);
    header_->activity_waiters.fetch_sub(1, std::memory_order_acq_rel);
    reap_if_dead(pid, kNoProcess);
  }
}

Status Facility::claim_message(ProcessId pid, LnvcId id, bool blocking,
                               std::uint64_t timeout_ns,
                               detail::LnvcDesc** out_d,
                               detail::MsgHeader** out_m, bool* out_bcast,
                               std::uint32_t* out_gen) {
  detail::LnvcDesc* d = slot(id);
  *out_d = nullptr;
  *out_m = nullptr;
  if (d == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out_d = d;
  platform_->charge_recv_fixed();
  const std::uint64_t deadline =
      timeout_ns > 0 ? platform_->now_ns() + timeout_ns : 0;

  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::no_such_lnvc;
  }
  const std::uint32_t generation = d->generation;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  bool waited = false;
  WaitRecord rec(*this, pid);
  for (;;) {
    if (rec.doomed()) {
      // An exhaustion waiter's deadlock verdict named this receive.
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      return Status::deadlock;
    }
    detail::Connection* conn = find_conn(*d, pid, /*sender=*/false);
    if (conn == nullptr) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      // A connection that existed when we blocked and is gone now was
      // closed under us; report that as closed, not a caller error.
      return waited ? Status::closed : Status::not_connected;
    }
    if (conn->is_fcfs()) {
      if (d->fcfs_head) {
        // Claim the oldest unconsumed message for this FCFS receiver.
        m = arena_.get(d->fcfs_head);
        m->fcfs_consumed = 1;
        // Advance to the next *unconsumed* message, not blindly to
        // next_msg: under reclaim_broadcast_only a message enqueued while
        // the circuit had no FCFS receiver is born consumed, and parking
        // the cursor on it would let reclaim() free the message under the
        // cursor — the next claim would then deliver recycled storage.
        shm::Offset n_off = m->next_msg;
        while (n_off != shm::kNullOffset) {
          const auto* n =
              static_cast<const detail::MsgHeader*>(arena_.raw(n_off));
          if (n->fcfs_consumed == 0) break;
          n_off = n->next_msg;
        }
        d->fcfs_head = shm::Ref<detail::MsgHeader>{n_off};
        --d->n_queued;
        bcast = false;
      }
    } else {
      if (conn->bcast_head != shm::kNullOffset) {
        m = static_cast<detail::MsgHeader*>(arena_.raw(conn->bcast_head));
        conn->bcast_head = m->next_msg;
        bcast = true;
      }
    }
    if (m != nullptr) break;
    if (!blocking) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      return Status::ok;  // *out_ready stays false
    }
    if (d->n_senders == 0 && d->last_sender_died != 0) {
      // Nothing deliverable, no sender left, and the last one died rather
      // than closing: nobody will ever send here again.
      platform_->unlock(d->lock);
      header_->orphaned_receives.fetch_add(1, std::memory_order_relaxed);
      reap_if_dead(pid, kNoProcess);
      return Status::lnvc_orphaned;
    }
    waited = true;
    if (timeout_ns == 0) rec.arm(detail::WaitKind::receive, id, generation);
    if (timeout_ns > 0) {
      const std::uint64_t now = platform_->now_ns();
      if (now >= deadline) {
        platform_->unlock(d->lock);
        reap_if_dead(pid, kNoProcess);
        return Status::timed_out;
      }
      bool notified = false;
      const ProcessId dead =
          await_for(d->lock, d->cond, pid, deadline - now, &notified);
      if (dead != kNoProcess) repair_lnvc(*d);
      if (!notified && platform_->now_ns() >= deadline) {
        platform_->unlock(d->lock);
        reap_if_dead(pid, kNoProcess);
        return Status::timed_out;
      }
    } else {
      const std::uint64_t suspicion = header_->suspicion_ns;
      if (suspicion == 0) {
        const ProcessId dead = await(d->lock, d->cond, pid);
        if (dead != kNoProcess) repair_lnvc(*d);
      } else {
        // Bound the sleep by the suspicion threshold so a receiver blocked
        // on a dead sender self-heals: an un-notified timeout probes the
        // sender connections and reaps the first dead peer itself rather
        // than waiting for an external reaper to notice.  Only the elected
        // prober keeps the tight period (see probe_claim).
        const bool prober = probe_claim(*d, pid);
        bool notified = false;
        const ProcessId dead = await_for(
            d->lock, d->cond, pid, probe_wait_ns(pid, suspicion, prober),
            &notified);
        probe_release(*d, pid);
        if (dead != kNoProcess) repair_lnvc(*d);
        if (!notified) {
          ProcessId suspect = kNoProcess;
          shm::Offset c_off = d->connections.off;
          while (c_off != shm::kNullOffset) {
            auto* sc = static_cast<detail::Connection*>(arena_.raw(c_off));
            if (sc->is_sender() && !process_alive(sc->process_id)) {
              suspect = sc->process_id;
              break;
            }
            c_off = sc->next;
          }
          if (suspect != kNoProcess) {
            platform_->unlock(d->lock);
            reap_if_dead(pid, suspect);
            alock_lnvc(*d, pid);
            // Loop re-checks the orphan condition with the repaired state.
          }
        }
      }
    }
    platform_->charge_check();
    if (d->in_use == 0 || d->generation != generation) {
      platform_->unlock(d->lock);
      reap_if_dead(pid, kNoProcess);
      return Status::closed;
    }
  }
  // Claimed: hand the message (and the lock) back to the caller, which
  // pins it and journals its own covering record before unlocking.
  *out_m = m;
  *out_bcast = bcast;
  *out_gen = generation;
  return Status::ok;
}

void Facility::unpin(ProcessId pid, detail::LnvcDesc& d, detail::MsgHeader* m,
                     std::uint32_t claim_gen, bool bcast) {
  // Caller holds the descriptor slot's lock and has already cleared the
  // record (journal / view slot) covering this pin, in this same store
  // span.
  if (d.in_use != 0 && d.generation == claim_gen) {
    --m->pins;
    if (bcast) m->bcast_remaining.fetch_sub(1, std::memory_order_acq_rel);
    reclaim(pid, d);
  } else {
    // The circuit died under us.  destroy_lnvc detaches pinned messages
    // instead of freeing them, so the payload stayed valid for our copy or
    // view; the last pinner disposes of it.
    --m->pins;
    if (m->pins == 0 && (m->flags & detail::MsgHeader::kDetached) != 0) {
      free_message(pid, m);
    }
  }
}

Status Facility::receive_impl(ProcessId pid, LnvcId id, void* buf,
                              std::size_t cap, std::size_t* out_len,
                              bool blocking, bool* out_ready,
                              std::uint64_t timeout_ns) {
  if (out_len == nullptr || (buf == nullptr && cap > 0)) {
    return Status::invalid_argument;
  }
  *out_len = 0;
  if (out_ready != nullptr) *out_ready = false;
  detail::LnvcDesc* d = nullptr;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  std::uint32_t generation = 0;
  const Status claim =
      claim_message(pid, id, blocking, timeout_ns, &d, &m, &bcast,
                    &generation);
  if (claim != Status::ok) return claim;
  if (m == nullptr) return Status::ok;  // nonblocking, *out_ready false

  // Pin the message so reclaim leaves it alone, then copy outside the lock
  // — this is what lets BROADCAST receivers copy concurrently (the paper's
  // explanation of Figure 5's scaling).  The copy-out record covers the
  // pin (and the BROADCAST claim) while we hold no lock.
  ++m->pins;
  journal_copy_out(pid, id, generation, arena_.ref_of(m).off, bcast);
  platform_->unlock(d->lock);

  const std::size_t want = std::min<std::size_t>(m->length, cap);
  auto* dst = static_cast<std::byte*>(buf);
  std::size_t copied = 0;
  if ((m->flags & detail::MsgHeader::kSlab) != 0) {
    std::memcpy(dst, arena_.raw(m->first_block), want);
    copied = want;
    // One contiguous bulk transfer, read from the body's node.
    platform_->charge_copy_nodes(m->length, 0, node_of_offset(m->first_block),
                                 pslot(pid).node, pslot(pid).node);
  } else {
    shm::Offset b_off = m->first_block;
    while (copied < want) {
      const auto* b = static_cast<const detail::Block*>(arena_.raw(b_off));
      const std::size_t chunk =
          std::min<std::size_t>(header_->block_payload, want - copied);
      std::memcpy(dst + copied, b->data(), chunk);
      copied += chunk;
      b_off = b->next;
    }
    platform_->charge_copy_nodes(m->length, m->nblocks,
                                 node_of_offset(m->first_block),
                                 pslot(pid).node, pslot(pid).node);
  }
  platform_->touch(m->length);
  const Status status = m->length > cap ? Status::truncated : Status::ok;
  *out_len = copied;
  if (out_ready != nullptr) *out_ready = true;

  alock_lnvc(*d, pid);
  journal_clear(pid);
  unpin(pid, *d, m, generation, bcast);
  platform_->unlock(d->lock);
  // unpin may have reclaimed (quota_release): wake any parked sender.
  park_ripple(*d);

  header_->receives.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_delivered.fetch_add(copied, std::memory_order_relaxed);
  reap_if_dead(pid, kNoProcess);
  return status;
}

Status Facility::receive_view_impl(ProcessId pid, LnvcId id, MsgView* out,
                                   bool blocking, bool* out_ready) {
  if (out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  out->spans.clear();
  out->slot = -1;
  out->length = 0;
  out->msg = shm::kNullOffset;
  out->seq = 0;
  if (out_ready != nullptr) *out_ready = false;
  // Reserve a view-table slot before claiming: failing after the claim
  // would mean un-claiming, which FCFS cannot undo exactly.  The CAS keeps
  // two threads sharing one ProcessId from arming the same slot; a
  // reserved slot holds no pin, so a death here costs a reaper one store.
  const int vslot = view_reserve(pid);
  if (vslot < 0) return Status::table_full;

  detail::LnvcDesc* d = nullptr;
  detail::MsgHeader* m = nullptr;
  bool bcast = false;
  std::uint32_t generation = 0;
  const Status claim =
      claim_message(pid, id, blocking, 0, &d, &m, &bcast, &generation);
  if (claim != Status::ok || m == nullptr) {
    view_cancel(pid, vslot);
    return claim;  // ok: nonblocking with *out_ready still false
  }

  // Pin in place; the view-table record covers the pin (and the BROADCAST
  // claim) until release_view, exactly as the copy-out journal record
  // covers a copying receiver — reap resolves either kind.
  ++m->pins;
  detail::ProcSlot& ps = pslot(pid);
  detail::ViewSlot& v = ps.views[vslot];
  const std::uint32_t seq =
      ps.view_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  v.lnvc_id = static_cast<std::uint32_t>(id);
  v.lnvc_gen = generation;
  v.bcast = bcast ? 1 : 0;
  v.seq = seq;
  v.msg = arena_.ref_of(m).off;
  v.active.store(detail::ViewSlot::kArmed,
                 std::memory_order_release);  // commit point
  platform_->unlock(d->lock);

  out->length = m->length;
  out->id = id;
  out->generation = generation;
  out->msg = v.msg;
  out->seq = seq;
  out->bcast = bcast;
  out->slab = (m->flags & detail::MsgHeader::kSlab) != 0;
  out->slot = vslot;
  // Spans are arena-relative: a fork'd or attached receiver whose mapping
  // landed at a different base materializes them against its own mapping
  // (resolve/materialize) and reads the same bytes.
  if (out->slab) {
    out->spans.push_back(
        ViewSpan{shm::Ref<const std::byte>{m->first_block}, m->length});
  } else {
    out->spans.reserve(m->nblocks);
    shm::Offset b_off = m->first_block;
    std::size_t left = m->length;
    while (left > 0) {
      const auto* b = static_cast<const detail::Block*>(arena_.raw(b_off));
      const std::size_t chunk =
          std::min<std::size_t>(header_->block_payload, left);
      out->spans.push_back(ViewSpan{
          shm::Ref<const std::byte>{b_off + sizeof(detail::Block)}, chunk});
      left -= chunk;
      b_off = b->next;
    }
  }
  // No payload bytes cross the bus: the receiver reads in place.  Charge
  // only the per-fragment bookkeeping; the pages still count against the
  // reader's working set.
  platform_->charge_view(m->length, m->nblocks);
  platform_->touch(m->length);
  if (out_ready != nullptr) *out_ready = true;

  header_->receives.fetch_add(1, std::memory_order_relaxed);
  header_->bytes_delivered.fetch_add(m->length, std::memory_order_relaxed);
  header_->views.fetch_add(1, std::memory_order_relaxed);
  header_->view_bytes.fetch_add(m->length, std::memory_order_relaxed);
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

Status Facility::receive_view(ProcessId pid, LnvcId id, MsgView* out) {
  return receive_view_impl(pid, id, out, /*blocking=*/true, nullptr);
}

Status Facility::try_receive_view(ProcessId pid, LnvcId id, MsgView* out,
                                  bool* out_ready) {
  if (out_ready == nullptr) return Status::invalid_argument;
  return receive_view_impl(pid, id, out, /*blocking=*/false, out_ready);
}

Status Facility::release_view(ProcessId pid, MsgView* view) {
  if (view == nullptr || pid >= header_->max_processes || !view->valid() ||
      view->slot >= static_cast<int>(detail::kMaxViews)) {
    return Status::invalid_argument;
  }
  detail::LnvcDesc* d = slot(view->id);
  if (d == nullptr) return Status::invalid_argument;
  detail::ViewSlot& v = pslot(pid).views[view->slot];
  // The descriptor slot's lock outlives the circuit (slots are never
  // unmapped), so locking is safe even after close/destroy; unpin sorts
  // out whether the message is still queued or was detached to us.
  // Validation happens UNDER the lock, and the arm sequence must match:
  // a stale handle — released once already, its slot since re-armed, even
  // for a recycled message landing at the same offset — is a clean
  // invalid_argument instead of a double unpin of someone else's view.
  alock_lnvc(*d, pid);
  if (v.active.load(std::memory_order_acquire) != detail::ViewSlot::kArmed ||
      v.msg != view->msg || v.seq != view->seq) {
    platform_->unlock(d->lock);
    reap_if_dead(pid, kNoProcess);
    return Status::invalid_argument;
  }
  auto* m = static_cast<detail::MsgHeader*>(arena_.raw(v.msg));
  const std::uint32_t claim_gen = v.lnvc_gen;
  const bool bcast = v.bcast != 0;
  v.active.store(detail::ViewSlot::kIdle,
                 std::memory_order_release);  // clear first
  v.msg = shm::kNullOffset;
  unpin(pid, *d, m, claim_gen, bcast);
  platform_->unlock(d->lock);
  park_ripple(*d);
  view->slot = -1;
  view->spans.clear();
  view->msg = shm::kNullOffset;
  view->seq = 0;
  reap_if_dead(pid, kNoProcess);
  return Status::ok;
}

int Facility::view_reserve(ProcessId pid) {
  detail::ProcSlot& ps = pslot(pid);
  for (int i = 0; i < static_cast<int>(detail::kMaxViews); ++i) {
    std::uint32_t idle = detail::ViewSlot::kIdle;
    if (ps.views[i].active.compare_exchange_strong(
            idle, detail::ViewSlot::kReserved, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      return i;
    }
  }
  return -1;
}

void Facility::view_cancel(ProcessId pid, int slot) {
  pslot(pid).views[slot].active.store(detail::ViewSlot::kIdle,
                                      std::memory_order_release);
}

ConstBuffer Facility::resolve(const ViewSpan& span) const noexcept {
  return ConstBuffer{arena_.resolve(span.data), span.len};
}

std::vector<ConstBuffer> Facility::materialize(const MsgView& view) const {
  std::vector<ConstBuffer> out;
  out.reserve(view.spans.size());
  for (const ViewSpan& s : view.spans) out.push_back(resolve(s));
  return out;
}

std::size_t Facility::copy_view(const MsgView& view, void* dst,
                                std::size_t cap) const {
  auto* out = static_cast<std::byte*>(dst);
  std::size_t at = 0;
  for (const ViewSpan& s : view.spans) {
    if (at >= cap) break;
    const std::size_t n = std::min(s.len, cap - at);
    std::memcpy(out + at, arena_.resolve(s.data), n);
    at += n;
  }
  return at;
}

Status Facility::receive(ProcessId pid, LnvcId id, void* buf, std::size_t cap,
                         std::size_t* out_len) {
  return receive_impl(pid, id, buf, cap, out_len, /*blocking=*/true, nullptr);
}

Status Facility::try_receive(ProcessId pid, LnvcId id, void* buf,
                             std::size_t cap, std::size_t* out_len,
                             bool* out_ready) {
  if (out_ready == nullptr) return Status::invalid_argument;
  return receive_impl(pid, id, buf, cap, out_len, /*blocking=*/false,
                      out_ready);
}

Status Facility::receive_for(ProcessId pid, LnvcId id, void* buf,
                             std::size_t cap, std::size_t* out_len,
                             std::uint64_t timeout_ns) {
  if (timeout_ns == 0) {
    bool ready = false;
    const Status s = receive_impl(pid, id, buf, cap, out_len,
                                  /*blocking=*/false, &ready);
    if (s != Status::ok && s != Status::truncated) return s;
    return ready ? s : Status::timed_out;
  }
  return receive_impl(pid, id, buf, cap, out_len, /*blocking=*/true, nullptr,
                      timeout_ns);
}

Status Facility::check(ProcessId pid, LnvcId id, bool* out) {
  detail::LnvcDesc* d = slot(id);
  if (d == nullptr || out == nullptr || pid >= header_->max_processes) {
    return Status::invalid_argument;
  }
  *out = false;
  platform_->charge_check();
  alock_lnvc(*d, pid);
  if (d->in_use == 0) {
    platform_->unlock(d->lock);
    return Status::no_such_lnvc;
  }
  detail::Connection* conn = find_conn(*d, pid, /*sender=*/false);
  if (conn == nullptr) {
    platform_->unlock(d->lock);
    return Status::not_connected;
  }
  if (conn->is_fcfs()) {
    // Advisory: another FCFS receiver may take the message first (§2).
    *out = static_cast<bool>(d->fcfs_head);
  } else {
    // Stable: only this receiver advances its private head.
    *out = conn->bcast_head != shm::kNullOffset;
  }
  platform_->unlock(d->lock);
  // No reap_if_dead here: receive_any calls check() while it holds the
  // activity monitor, and a reap retakes that monitor to repair waiter
  // counts — draining now would self-deadlock.  Any pid noted by a
  // seizure above drains at the caller's next operation boundary.
  return Status::ok;
}

}  // namespace mpf
