#include "shmem/symmetric_heap.hpp"

#include <cstring>
#include <new>
#include <stdexcept>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define AP_SYMM_HEAP_HAVE_MMAP 1
#endif

namespace ap::shmem {

namespace {
std::size_t round_up(std::size_t n, std::size_t align) {
  return (n + align - 1) / align * align;
}
}  // namespace

SymmetricHeap::SymmetricHeap(std::size_t capacity_bytes)
    : capacity_(round_up(capacity_bytes, kAlignment)) {
  if (capacity_ == 0) capacity_ = kAlignment;
#ifdef AP_SYMM_HEAP_HAVE_MMAP
  void* p = ::mmap(nullptr, capacity_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    arena_ = static_cast<unsigned char*>(p);
    mmapped_ = true;  // demand-zero pages: virgin blocks need no memset
  }
#endif
  if (arena_ == nullptr) {
    // Fallback arena may recycle dirty process heap; treating every byte
    // as touched restores the always-memset behaviour.
    arena_ = new unsigned char[capacity_];
    touched_ = capacity_;
  }
  free_blocks_.emplace(0, capacity_);
}

void SymmetricHeap::release_arena() noexcept {
  if (arena_ == nullptr) return;
#ifdef AP_SYMM_HEAP_HAVE_MMAP
  if (mmapped_) {
    ::munmap(arena_, capacity_);
    arena_ = nullptr;
    return;
  }
#endif
  delete[] arena_;
  arena_ = nullptr;
}

SymmetricHeap::~SymmetricHeap() { release_arena(); }

SymmetricHeap::SymmetricHeap(SymmetricHeap&& other) noexcept
    : capacity_(other.capacity_),
      arena_(other.arena_),
      mmapped_(other.mmapped_),
      touched_(other.touched_),
      free_blocks_(std::move(other.free_blocks_)),
      allocated_(std::move(other.allocated_)) {
  other.arena_ = nullptr;
  other.capacity_ = 0;
}

void* SymmetricHeap::allocate(std::size_t bytes) {
  const std::size_t need = round_up(bytes == 0 ? 1 : bytes, kAlignment);
  // First fit: deterministic and identical across PEs given identical
  // allocation sequences.
  for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
    const auto [offset, size] = *it;
    if (size < need) continue;
    free_blocks_.erase(it);
    if (size > need) free_blocks_.emplace(offset + need, size - need);
    allocated_.emplace(offset, need);
    // Zero only the recycled prefix; bytes past the high-water mark have
    // never been written and read as zero straight from the kernel.
    if (offset < touched_)
      std::memset(arena_ + offset, 0, std::min(offset + need, touched_) - offset);
    if (offset + need > touched_) touched_ = offset + need;
    return arena_ + offset;
  }
  throw std::bad_alloc();
}

void SymmetricHeap::deallocate(void* p) {
  if (p == nullptr) return;
  if (!contains(p))
    throw std::invalid_argument("SymmetricHeap: foreign pointer in deallocate");
  const std::size_t offset = offset_of(p);
  auto it = allocated_.find(offset);
  if (it == allocated_.end())
    throw std::invalid_argument(
        "SymmetricHeap: pointer is not a live allocation (double free?)");
  std::size_t block_off = it->first;
  std::size_t block_size = it->second;
  allocated_.erase(it);

  // Coalesce with the following free block.
  auto next = free_blocks_.lower_bound(block_off);
  if (next != free_blocks_.end() && block_off + block_size == next->first) {
    block_size += next->second;
    next = free_blocks_.erase(next);
  }
  // Coalesce with the preceding free block.
  if (next != free_blocks_.begin()) {
    auto prev = std::prev(next);
    if (prev->first + prev->second == block_off) {
      block_off = prev->first;
      block_size += prev->second;
      free_blocks_.erase(prev);
    }
  }
  free_blocks_.emplace(block_off, block_size);
}

bool SymmetricHeap::contains(const void* p) const {
  const auto* b = static_cast<const unsigned char*>(p);
  return b >= arena_ && b < arena_ + capacity_;
}

std::size_t SymmetricHeap::offset_of(const void* p) const {
  if (!contains(p))
    throw std::invalid_argument("SymmetricHeap: pointer outside arena");
  return static_cast<std::size_t>(static_cast<const unsigned char*>(p) -
                                  arena_);
}

}  // namespace ap::shmem
