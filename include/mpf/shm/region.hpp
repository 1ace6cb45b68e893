// Memory regions that can back an Arena.
//
// The paper's only system-dependent code is "shared memory allocation and
// synchronization" (§3); this file is our equivalent of that porting seam.
// Three backends:
//   * HeapRegion       - ordinary heap memory; shared between threads only.
//   * AnonSharedRegion - anonymous MAP_SHARED mmap; survives fork(), so a
//                        parent can create the facility and fork workers
//                        exactly like the paper's Unix-process model.
//   * PosixShmRegion   - named shm_open() segment; unrelated processes can
//                        attach by name (possibly at different addresses,
//                        which is why the arena uses offset-based Refs).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

namespace mpf::shm {

/// A contiguous byte range used as arena backing store.
class Region {
 public:
  virtual ~Region() = default;
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

  [[nodiscard]] void* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True if the bytes are visible to fork()ed children / attached
  /// processes (false only for HeapRegion).
  [[nodiscard]] virtual bool process_shared() const noexcept = 0;

 protected:
  Region() = default;
  void* base_ = nullptr;
  std::size_t size_ = 0;
};

/// Plain heap allocation (64-byte aligned); thread-shared only.
class HeapRegion final : public Region {
 public:
  explicit HeapRegion(std::size_t bytes);
  ~HeapRegion() override;
  [[nodiscard]] bool process_shared() const noexcept override {
    return false;
  }

 private:
  void* raw_ = nullptr;  ///< what malloc returned; base_ is raw_ aligned up
};

/// Anonymous MAP_SHARED|MAP_ANONYMOUS mapping: inherited across fork() at
/// the same virtual address in every child.
class AnonSharedRegion final : public Region {
 public:
  explicit AnonSharedRegion(std::size_t bytes);
  ~AnonSharedRegion() override;
  [[nodiscard]] bool process_shared() const noexcept override { return true; }
};

/// Named POSIX shared-memory object.  `create()` makes (or truncates) the
/// segment; `attach()` maps an existing one, potentially at a different
/// virtual address.
class PosixShmRegion final : public Region {
 public:
  static std::unique_ptr<PosixShmRegion> create(const std::string& name,
                                                std::size_t bytes);
  static std::unique_ptr<PosixShmRegion> attach(const std::string& name);
  /// Remove the name from the namespace (segment dies with last unmap).
  static void unlink(const std::string& name);

  ~PosixShmRegion() override;
  [[nodiscard]] bool process_shared() const noexcept override { return true; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  PosixShmRegion() = default;
  std::string name_;
  bool owner_ = false;
};

}  // namespace mpf::shm
