#include "mpf/shm/region.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

namespace mpf::shm {
namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::size_t round_to_page(std::size_t bytes) {
  const std::size_t page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (bytes + page - 1) / page * page;
}

}  // namespace

HeapRegion::HeapRegion(std::size_t bytes) {
  if (bytes == 0) throw std::invalid_argument("HeapRegion: zero size");
  size_ = bytes;
  // Plain malloc, aligned by hand: aligned_alloc asks the allocator for
  // alignment slack on top of the size, so a region freed and re-created at
  // the same size does not fit its own freed chunk — glibc grows the heap
  // instead and every re-creation page-faults a fresh arena.  A malloc of
  // the same size reuses the freed chunk.
  raw_ = std::malloc(bytes + 64);
  if (raw_ == nullptr) throw std::bad_alloc();
  base_ = reinterpret_cast<void*>(
      (reinterpret_cast<std::uintptr_t>(raw_) + 63) & ~std::uintptr_t{63});
  std::memset(base_, 0, bytes);
}

HeapRegion::~HeapRegion() { std::free(raw_); }

AnonSharedRegion::AnonSharedRegion(std::size_t bytes) {
  if (bytes == 0) throw std::invalid_argument("AnonSharedRegion: zero size");
  size_ = round_to_page(bytes);
  base_ = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (base_ == MAP_FAILED) {
    base_ = nullptr;
    throw_errno("mmap(MAP_SHARED|MAP_ANONYMOUS)");
  }
}

AnonSharedRegion::~AnonSharedRegion() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

std::unique_ptr<PosixShmRegion> PosixShmRegion::create(const std::string& name,
                                                       std::size_t bytes) {
  if (bytes == 0) throw std::invalid_argument("PosixShmRegion: zero size");
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0600);
  if (fd < 0) throw_errno("shm_open(create)");
  const std::size_t size = round_to_page(bytes);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw_errno("ftruncate");
  }
  void* base =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    throw_errno("mmap(shm)");
  }
  auto region = std::unique_ptr<PosixShmRegion>(new PosixShmRegion());
  region->base_ = base;
  region->size_ = size;
  region->name_ = name;
  region->owner_ = true;
  return region;
}

std::unique_ptr<PosixShmRegion> PosixShmRegion::attach(
    const std::string& name) {
  const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
  if (fd < 0) throw_errno("shm_open(attach)");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat(shm)");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) throw_errno("mmap(shm attach)");
  auto region = std::unique_ptr<PosixShmRegion>(new PosixShmRegion());
  region->base_ = base;
  region->size_ = size;
  region->name_ = name;
  region->owner_ = false;
  return region;
}

void PosixShmRegion::unlink(const std::string& name) {
  ::shm_unlink(name.c_str());
}

PosixShmRegion::~PosixShmRegion() {
  if (base_ != nullptr) ::munmap(base_, size_);
  if (owner_) ::shm_unlink(name_.c_str());
}

}  // namespace mpf::shm
