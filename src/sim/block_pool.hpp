// Thread-local small-block pool for the simulator's per-message objects.
//
// Every simulated message makes a handful of short-lived heap objects: the
// coroutine frames of the sim::Task chain that sends, receives and moves it
// (Rank::send, Rank::recv, FlowNetwork::transfer, ...) and, for an eager
// send, the delivery closure that sim::Callback cannot hold inline. Their
// sizes repeat from message to message, so one LIFO free list per 64-byte
// size class serves them with a pointer pop instead of a malloc/free pair,
// and the block handed out is the one released last, still warm in cache.
//
// The pool recycles blocks across the messages of one simulation; a
// sim::Engine hands the cached blocks back when it is destroyed, so the
// next simulation on the thread, whose frame sizes may differ, gets that
// memory back through the global allocator instead of a size class it may
// never use again.
//
// Each thread owns its lists; nothing is shared, so nothing is locked.
// Every pooled block is one ::operator new allocation of its class size,
// which makes a block freed on another thread safe to keep: it joins that
// thread's list. A thread's cached blocks go back to ::operator delete when
// the thread exits; from then on the thread's pool passes straight through
// to the global allocator, so frames destroyed later — by another
// thread_local's destructor, or by a static destructor on the main thread —
// are still released correctly. Requests above kMaxBlock bypass the pool.
//
// Under AddressSanitizer a cached block is poisoned, and so is the slack
// between a request and its class size: a use of a destroyed coroutine
// frame reports as use-after-poison instead of silently reading the frame
// that reused its block.
#pragma once

#include <cstddef>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define PACC_POOL_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define PACC_POOL_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define PACC_POOL_POISON(p, n) ((void)(p), (void)(n))
#define PACC_POOL_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace pacc::sim {

class BlockPool {
 public:
  static constexpr std::size_t kClassBytes = 64;
  static constexpr std::size_t kClasses = 64;
  static constexpr std::size_t kMaxBlock = kClassBytes * kClasses;

  /// A block of at least `bytes`, aligned for any fundamental type.
  static void* allocate(std::size_t bytes) {
    if (bytes > kMaxBlock) return ::operator new(bytes);
    const std::size_t cls = class_of(bytes);
    FreeBlock* block = lists_.head[cls];
    if (block == nullptr) return refill(cls, bytes);
    PACC_POOL_UNPOISON(block, sizeof(FreeBlock));
    lists_.head[cls] = block->next;
    --lists_.cached;
    hand_out(block, bytes, cls);
    return block;
  }

  /// Returns a block from allocate(bytes), with the same `bytes`, on any
  /// thread.
  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (bytes > kMaxBlock) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = class_of(bytes);
    if (lists_.retired) {
      PACC_POOL_UNPOISON(p, class_bytes(cls));
      ::operator delete(p);
      return;
    }
    auto* block = static_cast<FreeBlock*>(p);
    PACC_POOL_UNPOISON(block, sizeof(FreeBlock));
    block->next = lists_.head[cls];
    lists_.head[cls] = block;
    ++lists_.cached;
    PACC_POOL_POISON(block, class_bytes(cls));
  }

  /// Blocks the calling thread holds in its free lists (0 once it exits).
  static std::size_t cached_blocks() noexcept { return lists_.cached; }

  /// Hands the calling thread's cached blocks back to ::operator delete.
  static void release_cached() noexcept;

 private:
  struct FreeBlock {
    FreeBlock* next;
  };

  /// Trivially constructible and destructible, so the thread_local needs
  /// no guard and is never destroyed: `retired` survives the release of
  /// the lists at thread exit.
  struct Lists {
    FreeBlock* head[kClasses];
    std::size_t cached;
    bool retired;  ///< the thread is exiting: pass through
  };

  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kClassBytes;
  }
  static std::size_t class_bytes(std::size_t cls) {
    return (cls + 1) * kClassBytes;
  }

  /// Under ASan: the caller's bytes addressable, the class slack poisoned.
  static void hand_out(void* p, std::size_t bytes, std::size_t cls) {
    PACC_POOL_UNPOISON(p, bytes);
    PACC_POOL_POISON(static_cast<char*>(p) + bytes, class_bytes(cls) - bytes);
  }

  /// Slow path: the class list is empty. Registers the thread-exit
  /// release and takes a fresh block from ::operator new.
  static void* refill(std::size_t cls, std::size_t bytes);

  friend struct BlockPoolReaper;  // retires the lists at thread exit

  static inline constinit thread_local Lists lists_{};
};

}  // namespace pacc::sim
