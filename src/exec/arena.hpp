// Monotonic per-worker arenas for sweep-scope allocations.
//
// Multi-threaded sweeps used to pay for every WorkloadInput and result
// buffer with global-heap allocations from worker threads — exactly the
// cross-core allocator contention that makes "parallel speedup" numbers
// dishonest on a loaded machine (tools/bench.sh sweep_scaling). An Arena
// is a single-threaded bump allocator: each pool worker gets its own
// (Sweep::local_arena), so task-local objects are carved out of
// thread-private blocks and released wholesale when the sweep is done.
//
// Lifetime contract: objects created with make<T>() live until reset() or
// the arena's destruction — NOT until some scope exit. Sweeps exploit
// this: a build task allocates an input on its worker's arena, dependent
// run tasks on other workers read it (the sweep's dependency edges give
// the necessary happens-before), and the Sweep destructor reclaims
// everything after run() returns.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace impact::exec {

/// Bump allocator with block reuse. Not thread-safe by design — one arena
/// per thread (see file comment).
class Arena {
 public:
  explicit Arena(std::size_t block_bytes = kDefaultBlockBytes)
      : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}
  ~Arena() { reset(); }
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Raw storage of `bytes` aligned to `align` (a power of two).
  void* allocate(std::size_t bytes, std::size_t align) {
    util::check(align != 0 && (align & (align - 1)) == 0,
                "Arena: alignment must be a power of two");
    if (bytes == 0) bytes = 1;
    while (cursor_ < blocks_.size()) {
      if (void* p = bump(blocks_[cursor_], bytes, align)) return p;
      ++cursor_;  // This block is (effectively) full; try the next.
    }
    // `align` extra headroom guarantees the aligned offset fits even when
    // the block base is less aligned than requested.
    const std::size_t size = std::max(block_bytes_, bytes + align);
    blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size, 0});
    cursor_ = blocks_.size() - 1;
    void* p = bump(blocks_.back(), bytes, align);
    util::check(p != nullptr, "Arena: fresh block cannot satisfy request");
    return p;
  }

  /// Constructs a T in arena storage. Non-trivially-destructible objects
  /// are registered and destroyed (in reverse creation order) by reset().
  template <typename T, typename... Args>
  T* make(Args&&... args) {
    void* p = allocate(sizeof(T), alignof(T));
    T* obj = ::new (p) T(std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) {
      finalizers_.push_back(
          Finalizer{obj, [](void* q) { static_cast<T*>(q)->~T(); }});
    }
    return obj;
  }

  /// Destroys every arena object (reverse order) and rewinds the bump
  /// cursor; block storage is retained for reuse.
  void reset() {
    for (auto it = finalizers_.rbegin(); it != finalizers_.rend(); ++it) {
      it->fn(it->obj);
    }
    finalizers_.clear();
    for (Block& b : blocks_) b.used = 0;
    cursor_ = 0;
  }

 private:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };
  struct Finalizer {
    void* obj;
    void (*fn)(void*);
  };

  /// Carves `bytes` aligned to `align` out of `b`, or returns nullptr if
  /// the block cannot hold it. Alignment is computed on the actual pointer
  /// value, not the offset, so over-aligned types stay correct.
  void* bump(Block& b, std::size_t bytes, std::size_t align) {
    const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
    const std::uintptr_t at = base + b.used;
    const std::uintptr_t aligned = (at + align - 1) & ~(align - 1);
    const std::size_t offset = static_cast<std::size_t>(aligned - base);
    if (offset + bytes > b.size) return nullptr;
    b.used = offset + bytes;
    return b.data.get() + offset;
  }

  std::size_t block_bytes_;
  std::vector<Block> blocks_;
  std::size_t cursor_ = 0;  ///< First block with possible free space.
  std::vector<Finalizer> finalizers_;
};

}  // namespace impact::exec
