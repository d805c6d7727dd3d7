#ifndef FASTPPR_STORE_BLOCK_POOL_H_
#define FASTPPR_STORE_BLOCK_POOL_H_

// A size-class block pool for one single-threaded owner (see DESIGN.md
// sections 2 and 6): the allocator of the walk stores' rows and of the
// frozen row versions.
//
// Both allocate and free variable-size rows all the time: a walk row
// moves to a bigger or smaller block as repairs grow and shrink it, and
// a row version is written once per publish that changes its row and
// freed a few publishes later. A malloc and a free per row leave the
// heap full of holes under churn: freed chunks of every size that glibc
// keeps resident but cannot hand back. The pool carves blocks from
// large chunks instead, rounds each request up to a size class, and
// keeps each class's freed blocks on a LIFO free list for the next
// request of that class (Bonwick, "The Slab Allocator", USENIX Summer
// 1994). The bytes it holds then follow the peak of simultaneously live
// blocks per class, not the churn. Chunks go back to operator delete
// only when the pool dies.
//
// Classes count 16-byte grains, quarter-spaced like DiGraph's: classes
// 0..15 are 1..16 grains (16..256 bytes), class 16 + i is
// (5 + i % 4) << (i / 4 + 2) grains (320, 384, 448, 512, 640, ...), so
// a block wastes at most 25% above 256 bytes. The last class is 16 KiB;
// a larger request gets its own operator new allocation, behind one
// grain that links it to the other live ones, and goes back to operator
// delete when it is freed or, at the latest, when the pool dies.
//
// Freed blocks and uncarved chunk space are poisoned under
// AddressSanitizer, so a reader that follows a freed block still trips
// it. Allocate and Free are not synchronized; the byte counters are
// atomics other threads may read.

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define FASTPPR_BLOCK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FASTPPR_BLOCK_POOL_ASAN 1
#endif
#endif
#ifdef FASTPPR_BLOCK_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace fastppr::slab {

class BlockPool {
 public:
  static constexpr std::size_t kGrain = 16;
  static constexpr uint32_t kNumClasses = 40;
  /// Chunks the blocks are carved from.
  static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
  /// Every chunk and every block past the last class starts with one
  /// grain of links, so the pool can hand them all back when it dies.
  static constexpr std::size_t kLinkBytes = kGrain;

  static constexpr std::size_t ClassBytes(uint32_t cls) {
    const std::size_t grains =
        cls < 16 ? cls + 1 : std::size_t{5 + (cls - 16) % 4}
                                 << ((cls - 16) / 4 + 2);
    return grains * kGrain;
  }
  /// The largest pooled block (the last class); larger requests bypass
  /// the pool.
  static constexpr std::size_t kMaxBlockBytes = 16384;

  /// Smallest class whose block holds `bytes` (1 <= bytes <=
  /// kMaxBlockBytes).
  static constexpr uint32_t ClassFor(std::size_t bytes) {
    const std::size_t grains = (bytes + kGrain - 1) / kGrain;
    if (grains <= 16) {
      return grains == 0 ? 0 : static_cast<uint32_t>(grains - 1);
    }
    const std::size_t t = grains - 1;  // >= 16
    const auto b = static_cast<uint32_t>(std::bit_width(t));  // >= 5
    const auto q = static_cast<uint32_t>(t >> (b - 3));      // in [4, 8)
    return 16 + 4 * (b - 5) + (q - 4);
  }

  BlockPool() = default;
  /// Releases every chunk, and with them every pooled block, and every
  /// block past the last class that is still allocated.
  ~BlockPool() {
    while (oversize_ != nullptr) {
      Oversize* next = oversize_->next;
      ::operator delete(oversize_);
      oversize_ = next;
    }
    while (chunks_ != nullptr) {
      char* older = nullptr;
      std::memcpy(&older, chunks_, sizeof(older));
      Unpoison(chunks_, kChunkBytes);
      ::operator delete(chunks_);
      chunks_ = older;
    }
  }

  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  /// A block of at least `bytes` (>= 1), aligned to 16 bytes.
  void* Allocate(std::size_t bytes) {
    Bump(&live_bytes_, bytes);
    if (bytes <= kMaxBlockBytes) return Take(ClassFor(bytes));
    auto* big = static_cast<Oversize*>(::operator new(kLinkBytes + bytes));
    big->prev = nullptr;
    big->next = oversize_;
    if (oversize_ != nullptr) oversize_->prev = big;
    oversize_ = big;
    Bump(&held_bytes_, kLinkBytes + bytes);
    return reinterpret_cast<char*>(big) + kLinkBytes;
  }

  /// Returns a block Allocate(bytes) handed out, with the same `bytes`.
  void Free(void* block, std::size_t bytes) {
    Bump(&live_bytes_, 0 - bytes);
    if (bytes > kMaxBlockBytes) {
      auto* big = reinterpret_cast<Oversize*>(static_cast<char*>(block) -
                                              kLinkBytes);
      (big->prev != nullptr ? big->prev->next : oversize_) = big->next;
      if (big->next != nullptr) big->next->prev = big->prev;
      Bump(&held_bytes_, 0 - (kLinkBytes + bytes));
      ::operator delete(big);
      return;
    }
    const uint32_t cls = ClassFor(bytes);
    std::memcpy(block, &free_[cls], sizeof(void*));
    free_[cls] = block;
    Poison(block, ClassBytes(cls));
  }

  /// Bytes requested by the blocks handed out and not yet freed.
  std::size_t live_bytes() const {
    return live_bytes_.load(std::memory_order_relaxed);
  }
  /// Bytes taken from operator new and not given back: every chunk,
  /// plus the live blocks past the last class with their links.
  std::size_t held_bytes() const {
    return held_bytes_.load(std::memory_order_relaxed);
  }

 private:
  /// The link grain in front of a block past the last class: the live
  /// ones form a doubly linked list, so Free unlinks one in O(1).
  struct Oversize {
    Oversize* prev;
    Oversize* next;
  };
  static_assert(sizeof(Oversize) == kLinkBytes);

  /// A block of class `cls`: the last one freed, or the next one carved.
  void* Take(uint32_t cls) {
    const std::size_t size = ClassBytes(cls);
    void* block = free_[cls];
    if (block != nullptr) {
      Unpoison(block, size);
      std::memcpy(&free_[cls], block, sizeof(void*));
      return block;
    }
    if (static_cast<std::size_t>(end_ - next_) < size) {
      // The old chunk's tail (under one block) stays poisoned and idle.
      char* chunk = static_cast<char*>(::operator new(kChunkBytes));
      std::memcpy(chunk, &chunks_, sizeof(chunks_));
      chunks_ = chunk;
      next_ = chunk + kLinkBytes;
      end_ = chunk + kChunkBytes;
      Poison(next_, kChunkBytes - kLinkBytes);
      Bump(&held_bytes_, kChunkBytes);
    }
    block = next_;
    next_ += size;
    Unpoison(block, size);
    return block;
  }

  /// Single-writer update: a plain load and store, no locked add.
  static void Bump(std::atomic<std::size_t>* counter, std::size_t by) {
    counter->store(counter->load(std::memory_order_relaxed) + by,
                   std::memory_order_relaxed);
  }

  static void Poison([[maybe_unused]] void* p,
                     [[maybe_unused]] std::size_t n) {
#ifdef FASTPPR_BLOCK_POOL_ASAN
    ASAN_POISON_MEMORY_REGION(p, n);
#endif
  }
  static void Unpoison([[maybe_unused]] void* p,
                       [[maybe_unused]] std::size_t n) {
#ifdef FASTPPR_BLOCK_POOL_ASAN
    ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
  }

  void* free_[kNumClasses] = {};  ///< per-class LIFO lists, linked in place
  char* chunks_ = nullptr;  ///< the newest chunk, linked to the older ones
  char* next_ = nullptr;    ///< the newest chunk's uncarved span
  char* end_ = nullptr;
  Oversize* oversize_ = nullptr;  ///< the live blocks past the last class
  std::atomic<std::size_t> live_bytes_{0};
  std::atomic<std::size_t> held_bytes_{0};
};

static_assert(BlockPool::ClassBytes(15) == 256);
static_assert(BlockPool::ClassBytes(16) == 320);
static_assert(BlockPool::ClassBytes(BlockPool::kNumClasses - 1) ==
              BlockPool::kMaxBlockBytes);
static_assert(BlockPool::ClassFor(BlockPool::kMaxBlockBytes) ==
              BlockPool::kNumClasses - 1);

}  // namespace fastppr::slab

#endif  // FASTPPR_STORE_BLOCK_POOL_H_
