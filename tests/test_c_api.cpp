// Conformance tests of the paper's C interface (mpf/compat/mpf.h).
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "mpf/compat/mpf.h"
#include "mpf/core/errors.hpp"

// Whitebox: the opaque handle's definition, so tests can duplicate one
// and drive the release path's ownership rules.
#include "../src/compat/view_handle.hpp"

namespace {

struct CApi : ::testing::Test {
  void SetUp() override { ASSERT_EQ(mpf_init(8, 8), 0); }
  void TearDown() override { mpf_shutdown(); }
};

TEST(CApiLifecycle, OperationsBeforeInitFail) {
  EXPECT_EQ(mpf_open_send(0, "x"), MPF_ENOTINIT);
  EXPECT_EQ(mpf_open_receive(0, "x", MPF_FCFS), MPF_ENOTINIT);
  EXPECT_EQ(mpf_close_send(0, 0), MPF_ENOTINIT);
  EXPECT_EQ(mpf_message_send(0, 0, "a", 1), MPF_ENOTINIT);
  char buf[4];
  int len = 4;
  EXPECT_EQ(mpf_message_receive(0, 0, buf, &len), MPF_ENOTINIT);
  EXPECT_EQ(mpf_check_receive(0, 0), MPF_ENOTINIT);
  EXPECT_EQ(mpf_shutdown(), MPF_ENOTINIT);
}

TEST(CApiLifecycle, DoubleInitRejected) {
  ASSERT_EQ(mpf_init(4, 4), 0);
  EXPECT_EQ(mpf_init(4, 4), MPF_EALREADY);
  EXPECT_EQ(mpf_shutdown(), 0);
  // A fresh init works after shutdown.
  ASSERT_EQ(mpf_init(4, 4), 0);
  EXPECT_EQ(mpf_shutdown(), 0);
}

TEST(CApiLifecycle, InitValidatesArguments) {
  EXPECT_EQ(mpf_init(0, 4), MPF_EINVAL);
  EXPECT_EQ(mpf_init(4, -1), MPF_EINVAL);
}

TEST_F(CApi, OpenReturnsSameIdForSameName) {
  const int a = mpf_open_send(0, "conv");
  const int b = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_GE(a, 0);
  EXPECT_EQ(a, b);
}

TEST_F(CApi, InvalidArgumentsRejected) {
  EXPECT_EQ(mpf_open_send(-1, "x"), MPF_EINVAL);
  EXPECT_EQ(mpf_open_send(0, nullptr), MPF_EINVAL);
  EXPECT_EQ(mpf_open_receive(0, "x", 3), MPF_EINVAL);
  EXPECT_EQ(mpf_message_send(0, 0, "a", -1), MPF_EINVAL);
  char buf[4];
  EXPECT_EQ(mpf_message_receive(0, 0, buf, nullptr), MPF_EINVAL);
}

TEST_F(CApi, ProtocolConflictSurfacesAsEPROTOCOL) {
  ASSERT_GE(mpf_open_receive(1, "conv", MPF_FCFS), 0);
  EXPECT_EQ(mpf_open_receive(1, "conv", MPF_BROADCAST), MPF_EPROTOCOL);
}

TEST_F(CApi, DuplicateOpenSurfacesAsEALREADY) {
  ASSERT_GE(mpf_open_send(0, "conv"), 0);
  EXPECT_EQ(mpf_open_send(0, "conv"), MPF_EALREADY);
}

TEST_F(CApi, SendReceiveRoundTrip) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_EQ(mpf_message_send(0, tx, "payload", 7), 0);
  char buf[16] = {};
  int len = sizeof(buf);
  ASSERT_EQ(mpf_message_receive(1, rx, buf, &len), 0);
  EXPECT_EQ(len, 7);
  EXPECT_EQ(std::string(buf, 7), "payload");
}

TEST_F(CApi, TruncationReportsETRUNCAndLength) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_EQ(mpf_message_send(0, tx, "0123456789", 10), 0);
  char buf[4];
  int len = sizeof(buf);
  EXPECT_EQ(mpf_message_receive(1, rx, buf, &len), MPF_ETRUNC);
  EXPECT_EQ(len, 4);
  EXPECT_EQ(std::memcmp(buf, "0123", 4), 0);
}

TEST_F(CApi, CheckReceiveTriState) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_BROADCAST);
  EXPECT_EQ(mpf_check_receive(1, rx), 0);
  ASSERT_EQ(mpf_message_send(0, tx, "x", 1), 0);
  EXPECT_EQ(mpf_check_receive(1, rx), 1);
  EXPECT_EQ(mpf_check_receive(1, 77), MPF_EINVAL);
  EXPECT_EQ(mpf_check_receive(2, rx), MPF_ENOTCONN);
}

TEST_F(CApi, CloseSemantics) {
  const int tx = mpf_open_send(0, "conv");
  EXPECT_EQ(mpf_close_receive(0, tx), MPF_ENOTCONN);
  EXPECT_EQ(mpf_close_send(0, tx), 0);
  EXPECT_EQ(mpf_close_send(0, tx), MPF_ENOLNVC);
  EXPECT_EQ(mpf_message_send(0, tx, "a", 1), MPF_ENOLNVC);
}

TEST(CApiRecovery, ReapRequiresInit) {
  EXPECT_EQ(mpf_reap(0, 1), MPF_ENOTINIT);
}

TEST_F(CApi, ViewRoundTripAndSpans) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_GE(tx, 0);
  ASSERT_EQ(mpf_message_send(0, tx, "viewed", 6), 0);
  mpf_view* view = nullptr;
  ASSERT_EQ(mpf_message_view(1, rx, &view), 0);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(mpf_view_length(view), 6);
  mpf_iovec spans[4];
  const int n = mpf_view_spans(view, spans, 4);
  ASSERT_GT(n, 0);
  std::string got;
  for (int i = 0; i < n && i < 4; ++i) {
    got.append(static_cast<const char*>(spans[i].data), spans[i].len);
  }
  EXPECT_EQ(got, "viewed");
  EXPECT_EQ(mpf_view_release(1, view), 0);
}

TEST_F(CApi, ViewDoubleReleaseConsumesHandle) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_GE(tx, 0);
  ASSERT_EQ(mpf_message_send(0, tx, "viewed", 6), 0);
  mpf_view* view = nullptr;
  ASSERT_EQ(mpf_message_view(1, rx, &view), 0);
  // A caller double-tracking the view ends up releasing it twice.  The
  // second release must report MPF_EINVAL and still free the wrapper:
  // it used to leak on every non-ok status (caught by LeakSanitizer).
  mpf_view* dup = new mpf_view{view->v};
  ASSERT_EQ(mpf_view_release(1, view), 0);
  EXPECT_EQ(mpf_view_release(1, dup), MPF_EINVAL);
  // A handle that was never armed is consumed the same way.
  EXPECT_EQ(mpf_view_release(1, new mpf_view{}), MPF_EINVAL);
}

TEST_F(CApi, ReapValidatesArguments) {
  EXPECT_EQ(mpf_reap(-1, 0), MPF_EINVAL);
  EXPECT_EQ(mpf_reap(0, -1), MPF_EINVAL);
  EXPECT_EQ(mpf_reap(0, 99), MPF_EINVAL);
  // A live participant cannot be reaped.
  ASSERT_GE(mpf_open_send(1, "conv"), 0);
  EXPECT_EQ(mpf_reap(0, 1), MPF_EINVAL);
}

// The facility lives in an anonymous shared mapping, so a fork()ed worker
// is exactly the paper's process model.  Kill the only sender mid-use and
// reap it from the survivor: its connection must close, and a subsequent
// receive must report the circuit orphaned instead of blocking forever.
TEST_F(CApi, ReapDeadForkedSenderOrphansCircuit) {
  const int rx = mpf_open_receive(0, "conv", MPF_FCFS);
  ASSERT_GE(rx, 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Worker process 2: connect, send once, die without closing.
    if (mpf_open_send(2, "conv") < 0) _exit(1);
    if (mpf_message_send(2, rx, "last words", 10) != 0) _exit(2);
    _exit(0);
  }
  char buf[16] = {};
  int len = sizeof(buf);
  ASSERT_EQ(mpf_message_receive(0, rx, buf, &len), 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(len)), "last words");
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_EQ(mpf_reap(0, 2), 0);
  EXPECT_EQ(mpf_reap(0, 2), 0);  // idempotent: already swept
  len = sizeof(buf);
  EXPECT_EQ(mpf_message_receive(0, rx, buf, &len), MPF_EORPHANED);
}

TEST_F(CApi, ZeroLengthMessages) {
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_EQ(mpf_message_send(0, tx, nullptr, 0), 0);
  char buf[1];
  int len = 0;
  EXPECT_EQ(mpf_message_receive(1, rx, buf, &len), 0);
  EXPECT_EQ(len, 0);
}

TEST(CApiCodes, AdmissionCodesMirrorStatusEnum) {
  // The C codes are defined as -(int)Status; a drift in the enum order
  // would silently re-number the whole error surface.
  EXPECT_EQ(MPF_ETIMEDOUT, -static_cast<int>(mpf::Status::timed_out));
  EXPECT_EQ(MPF_EAGAIN, -static_cast<int>(mpf::Status::rejected));
  EXPECT_EQ(MPF_EPEERFAILED, -static_cast<int>(mpf::Status::peer_failed));
  EXPECT_EQ(MPF_EDEADLK, -static_cast<int>(mpf::Status::deadlock));
  EXPECT_EQ(MPF_EORPHANED, -static_cast<int>(mpf::Status::lnvc_orphaned));
}

TEST_F(CApi, TimedSendDeliversAndTimesOutOnExhaustion) {
  ASSERT_EQ(mpf_message_send_timed(0, 0, "x", 1, 1000000),
            MPF_ENOLNVC);  // validated like the untimed path
  const int tx = mpf_open_send(0, "conv");
  const int rx = mpf_open_receive(1, "conv", MPF_FCFS);
  ASSERT_GE(tx, 0);
  ASSERT_EQ(mpf_message_send_timed(0, tx, "hello", 5, 1000000000ull), 0);
  char buf[8] = {};
  int len = sizeof(buf);
  ASSERT_EQ(mpf_message_receive(1, rx, buf, &len), 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(len)), "hello");

  // Nobody drains: large sends exhaust the block pool, and the timed send
  // gives up at its deadline instead of blocking forever.
  static char big[1000] = {};
  int rc = 0;
  int sent = 0;
  for (int i = 0; i < 200 && rc == 0; ++i) {
    rc = mpf_message_send_timed(0, tx, big, sizeof(big), 50000000ull);
    if (rc == 0) ++sent;
  }
  EXPECT_EQ(rc, MPF_ETIMEDOUT);
  EXPECT_GT(sent, 0);
}

}  // namespace
