#include "sim/block_pool.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <thread>

#include "sim/engine.hpp"
#include "sim/task.hpp"

namespace pacc::sim {
namespace {

TEST(BlockPool, ReusesTheLastFreedBlockOfAClass) {
  void* a = BlockPool::allocate(100);
  void* b = BlockPool::allocate(120);
  const std::size_t before = BlockPool::cached_blocks();
  BlockPool::deallocate(a, 100);
  BlockPool::deallocate(b, 120);
  EXPECT_EQ(BlockPool::cached_blocks(), before + 2);
  // 65..128 bytes share a class: LIFO hands back b, then a.
  EXPECT_EQ(BlockPool::allocate(128), b);
  EXPECT_EQ(BlockPool::allocate(65), a);
  EXPECT_EQ(BlockPool::cached_blocks(), before);
  // Another class never sees them.
  BlockPool::deallocate(a, 65);
  void* other = BlockPool::allocate(200);
  EXPECT_NE(other, a);
  EXPECT_EQ(BlockPool::allocate(100), a);
  BlockPool::deallocate(other, 200);
  BlockPool::deallocate(a, 100);
  BlockPool::deallocate(b, 128);
}

TEST(BlockPool, OversizeRequestsBypassThePool) {
  const std::size_t before = BlockPool::cached_blocks();
  void* big = BlockPool::allocate(BlockPool::kMaxBlock + 1);
  BlockPool::deallocate(big, BlockPool::kMaxBlock + 1);
  EXPECT_EQ(BlockPool::cached_blocks(), before);
  void* largest = BlockPool::allocate(BlockPool::kMaxBlock);
  BlockPool::deallocate(largest, BlockPool::kMaxBlock);
  EXPECT_EQ(BlockPool::cached_blocks(), before + 1);
  EXPECT_EQ(BlockPool::allocate(BlockPool::kMaxBlock), largest);
  BlockPool::deallocate(largest, BlockPool::kMaxBlock);
}

// Campaign workers destroy frames other threads made (and the other way
// round): a block joins the free list of whichever thread releases it.
TEST(BlockPool, BlockFreedOnAnotherThreadJoinsThatThreadsList) {
  void* mine = BlockPool::allocate(300);
  const std::size_t main_before = BlockPool::cached_blocks();
  void* theirs = nullptr;
  std::size_t worker_cached = 0;
  bool worker_reused = false;
  std::thread worker([&] {
    BlockPool::deallocate(mine, 300);
    worker_cached = BlockPool::cached_blocks();
    void* again = BlockPool::allocate(300);
    worker_reused = again == mine;
    BlockPool::deallocate(again, 300);
    theirs = BlockPool::allocate(300);  // held past the worker's exit
  });
  worker.join();
  EXPECT_EQ(worker_cached, 1u);
  EXPECT_TRUE(worker_reused);
  EXPECT_EQ(BlockPool::cached_blocks(), main_before);
  BlockPool::deallocate(theirs, 300);
  EXPECT_EQ(BlockPool::cached_blocks(), main_before + 1);
  EXPECT_EQ(BlockPool::allocate(300), theirs);
  BlockPool::deallocate(theirs, 300);
}

// A thread_local constructed before the pool's exit hook is destroyed
// after it: blocks it frees then (and blocks it asks for) must pass
// through to the global allocator instead of touching released lists.
struct LateOwner {
  void* block = nullptr;
  std::size_t* cached_after = nullptr;
  ~LateOwner() {
    if (block == nullptr) return;
    BlockPool::deallocate(block, 64);
    void* fresh = BlockPool::allocate(64);
    BlockPool::deallocate(fresh, 64);
    *cached_after = BlockPool::cached_blocks();
  }
};

TEST(BlockPool, BlocksReleasedAfterThreadExitGoToTheSystem) {
  std::size_t cached_after = 99;
  std::thread worker([&cached_after] {
    thread_local LateOwner owner;  // constructed before the pool's hook
    owner.cached_after = &cached_after;
    owner.block = BlockPool::allocate(64);
    void* spare = BlockPool::allocate(64);
    BlockPool::deallocate(spare, 64);  // one cached block at exit
  });
  worker.join();
  EXPECT_EQ(cached_after, 0u);
}

Task<> hold(Engine& e, int depth) {
  if (depth > 0) co_await hold(e, depth - 1);
  co_await e.delay(Duration::micros(1));
}

// Thousands of frames live at once, then all die; the next round of the
// same shape draws every frame from the pool, so the cache neither grows
// nor shrinks across it. The engine hands the cache back when it dies.
TEST(BlockPool, ThousandsOfLiveFramesAreRecycled) {
  constexpr int kTasks = 4000;
  std::size_t after_first = 0;
  {
    Engine e;
    for (int round = 0; round < 2; ++round) {
      for (int i = 0; i < kTasks; ++i) e.spawn(hold(e, 2));
      EXPECT_TRUE(e.run().all_tasks_finished);
      e.drop_tasks();
      if (round == 0) after_first = BlockPool::cached_blocks();
    }
    EXPECT_GE(after_first, 4u * kTasks);  // wrapper + three frames per task
    EXPECT_EQ(BlockPool::cached_blocks(), after_first);
  }
  EXPECT_EQ(BlockPool::cached_blocks(), 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(BlockPool, CachedBlocksArePoisoned) {
  auto* p = static_cast<char*>(BlockPool::allocate(100));
  EXPECT_FALSE(__asan_address_is_poisoned(p));
  EXPECT_FALSE(__asan_address_is_poisoned(p + 99));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 100));  // class slack
  BlockPool::deallocate(p, 100);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 64));
  EXPECT_EQ(BlockPool::allocate(80), p);
  EXPECT_FALSE(__asan_address_is_poisoned(p + 79));
  EXPECT_TRUE(__asan_address_is_poisoned(p + 80));
  BlockPool::deallocate(p, 80);
}

Task<> sleeper(Engine& e) { co_await e.delay(Duration::micros(5)); }

// The bug class Engine::drop_tasks exists for: an event resuming a frame
// that was already destroyed. The pool must not hide it behind a recycled
// block.
TEST(BlockPoolDeathTest, ResumingADestroyedFrameIsReported) {
  EXPECT_DEATH(
      {
        Engine e;
        e.spawn(sleeper(e));
        e.run_until(TimePoint{} + Duration::micros(1));
        e.drop_tasks();
        e.run();
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace pacc::sim
