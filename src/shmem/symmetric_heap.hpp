// Per-PE symmetric heap.
//
// Every PE owns one arena of identical capacity. Because SPMD programs make
// the same sequence of symmetric allocations on every PE (an OpenSHMEM
// requirement), the first-fit allocator on every PE evolves identically and
// a symmetric object lives at the same *offset* in every arena. Remote
// addressing is therefore (remote base + local offset).
//
// The arena is anonymous-mmap backed where available: pages are
// demand-zeroed by the kernel, so capacity is virtual address space, not
// resident memory. allocate() hands out zeroed blocks but only memsets the
// part of a block that lies below the recycled-bytes high-water mark —
// blocks carved from virgin arena are zero without ever being touched.
// That is what lets per-PE-dense symmetric structures (conveyor landing
// rings, publication/ack counters) scale to thousands of PEs: their
// resident cost is proportional to the slots actually written, not to
// their declared size (docs/PERFORMANCE.md, "Memory at scale").
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

namespace ap::shmem {

/// One PE's arena plus its (deterministic, per-PE) allocator state.
class SymmetricHeap {
 public:
  static constexpr std::size_t kAlignment = 16;

  explicit SymmetricHeap(std::size_t capacity_bytes);
  ~SymmetricHeap();

  SymmetricHeap(const SymmetricHeap&) = delete;
  SymmetricHeap& operator=(const SymmetricHeap&) = delete;
  SymmetricHeap(SymmetricHeap&& other) noexcept;

  /// Allocate `bytes` (rounded up to kAlignment); throws std::bad_alloc when
  /// the arena is exhausted. Zero-size allocations get a distinct non-null
  /// address of size kAlignment. The returned block reads as zero; only the
  /// recycled prefix (below the touched high-water mark) is memset — virgin
  /// arena stays untouched and therefore non-resident.
  void* allocate(std::size_t bytes);

  /// Release a block previously returned by allocate(); coalesces with
  /// adjacent free blocks. Throws std::invalid_argument for foreign or
  /// double-freed pointers.
  void deallocate(void* p);

  [[nodiscard]] unsigned char* base() { return arena_; }

  /// True if `p` points into this arena (not necessarily to a block start).
  [[nodiscard]] bool contains(const void* p) const;
  /// Offset of `p` from the arena base; throws if `p` is foreign.
  [[nodiscard]] std::size_t offset_of(const void* p) const;

 private:
  void release_arena() noexcept;

  std::size_t capacity_ = 0;
  unsigned char* arena_ = nullptr;
  bool mmapped_ = false;
  /// Offsets below this were handed out before and may hold stale bytes;
  /// allocate() re-zeroes only that prefix of a new block.
  std::size_t touched_ = 0;
  std::map<std::size_t, std::size_t> free_blocks_;  // offset -> size
  std::map<std::size_t, std::size_t> allocated_;    // offset -> size
};

}  // namespace ap::shmem
