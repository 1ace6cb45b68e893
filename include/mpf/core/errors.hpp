// Status codes and exceptions for the MPF public API.
//
// The paper's C interface reports failures through return values; the
// status enum below is that contract.  The C++ convenience layer
// (ports.hpp) converts non-ok statuses into MpfError exceptions.
#pragma once

#include <stdexcept>
#include <string>

namespace mpf {

enum class Status : int {
  ok = 0,
  invalid_argument,   ///< bad pid / length / name
  table_full,         ///< max_lnvcs or descriptor pool exceeded
  no_such_lnvc,       ///< id does not name a live LNVC
  not_connected,      ///< pid holds no matching connection on the LNVC
  already_connected,  ///< pid already holds this kind of connection
  protocol_conflict,  ///< FCFS and BROADCAST receive on one LNVC (paper fn.3)
  out_of_blocks,      ///< free list empty and policy is fail-fast
  truncated,          ///< receive buffer smaller than the message
  closed,             ///< LNVC deleted while blocked on it
  timed_out,          ///< receive_for deadline expired
  peer_failed,        ///< blocked op abandoned: the peer(s) it needed died
  lnvc_orphaned,      ///< receive on a circuit whose last sender died
  rejected,           ///< send refused by admission control (quota exceeded)
  busy,               ///< resource already in exclusive use (pollset waiter)
  deadlock,           ///< blocked op abandoned: every process it waits on is
                      ///< itself blocked, so nothing can ever free a block
};

/// Human-readable name of a status code.
[[nodiscard]] const char* to_string(Status s) noexcept;

/// Exception carrying a Status; thrown by the C++ RAII layer only.
class MpfError : public std::runtime_error {
 public:
  MpfError(Status status, const std::string& context)
      : std::runtime_error(context + ": " + to_string(status)),
        status_(status) {}
  [[nodiscard]] Status status() const noexcept { return status_; }

 private:
  Status status_;
};

/// Throw MpfError unless `s` is ok.
inline void throw_if_error(Status s, const char* context) {
  if (s != Status::ok) throw MpfError(s, context);
}

}  // namespace mpf
