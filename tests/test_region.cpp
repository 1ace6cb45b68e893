// Region backends: heap, anonymous-shared (fork), POSIX shm (attach at a
// different address — the case offset-based Refs exist for).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "mpf/shm/arena.hpp"
#include "mpf/shm/region.hpp"

namespace {

using namespace mpf::shm;

TEST(Region, HeapBasics) {
  HeapRegion region(4096);
  EXPECT_NE(region.base(), nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(region.base()) % 64, 0u);
  EXPECT_EQ(region.size(), 4096u);
  EXPECT_FALSE(region.process_shared());
  std::memset(region.base(), 0xab, region.size());
}

TEST(Region, ZeroSizeRejected) {
  EXPECT_THROW(HeapRegion{0}, std::invalid_argument);
  EXPECT_THROW(AnonSharedRegion{0}, std::invalid_argument);
  EXPECT_THROW((void)PosixShmRegion::create("/mpf_test_zero", 0),
               std::invalid_argument);
}

TEST(Region, AnonSharedSurvivesFork) {
  AnonSharedRegion region(4096);
  EXPECT_TRUE(region.process_shared());
  auto* flag = static_cast<volatile int*>(region.base());
  *flag = 0;
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    *flag = 1234;
    _exit(0);
  }
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  EXPECT_EQ(*flag, 1234);
}

TEST(Region, PosixShmCreateAttachRoundTrip) {
  const std::string name = "/mpf_test_region_" + std::to_string(getpid());
  auto created = PosixShmRegion::create(name, 8192);
  EXPECT_TRUE(created->process_shared());
  EXPECT_GE(created->size(), 8192u);
  std::memcpy(created->base(), "hello-shm", 10);

  auto attached = PosixShmRegion::attach(name);
  EXPECT_EQ(attached->size(), created->size());
  EXPECT_STREQ(static_cast<const char*>(attached->base()), "hello-shm");
  // Two mappings of the same object may land at different addresses —
  // this is why the arena speaks offsets.
  std::memcpy(attached->base(), "write-back", 11);
  EXPECT_STREQ(static_cast<const char*>(created->base()), "write-back");
}

TEST(Region, PosixShmAttachMissingFails) {
  EXPECT_THROW((void)PosixShmRegion::attach("/mpf_test_nonexistent_xyz"),
               std::system_error);
}

TEST(Region, ArenaOffsetsValidAcrossSeparateMappings) {
  const std::string name = "/mpf_test_arena_" + std::to_string(getpid());
  auto created = PosixShmRegion::create(name, 64 * 1024);
  Arena arena = Arena::create(*created);
  const Ref<int> ref = arena.make<int>(20250704);

  auto attached = PosixShmRegion::attach(name);
  Arena other = Arena::attach(*attached);
  ASSERT_NE(other.get(ref), nullptr);
  EXPECT_EQ(*other.get(ref), 20250704);
}

}  // namespace
