#include "sim/block_pool.hpp"

namespace pacc::sim {

/// Its destructor, run when the owning thread exits, hands the thread's
/// cached blocks back to the global allocator.
struct BlockPoolReaper {
  BlockPoolReaper() = default;
  BlockPoolReaper(const BlockPoolReaper&) = delete;
  BlockPoolReaper& operator=(const BlockPoolReaper&) = delete;
  ~BlockPoolReaper() {
    BlockPool::release_cached();
    BlockPool::lists_.retired = true;
  }
};

void* BlockPool::refill(std::size_t cls, std::size_t bytes) {
  if (!lists_.retired) {
    static thread_local BlockPoolReaper reaper;  // registered on first use
    (void)reaper;
  }
  void* p = ::operator new(class_bytes(cls));
  hand_out(p, bytes, cls);
  return p;
}

void BlockPool::release_cached() noexcept {
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    FreeBlock* block = lists_.head[cls];
    while (block != nullptr) {
      PACC_POOL_UNPOISON(block, class_bytes(cls));
      FreeBlock* next = block->next;
      ::operator delete(block);
      block = next;
    }
    lists_.head[cls] = nullptr;
  }
  lists_.cached = 0;
}

}  // namespace pacc::sim
