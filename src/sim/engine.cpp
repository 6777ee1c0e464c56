#include "sim/engine.hpp"

#include <utility>

namespace pacc::sim {

namespace {
constexpr std::uint32_t kSlotMask = 0xffffffffu;
}  // namespace

Engine::~Engine() {
  drop_tasks();
  nodes_.clear();
  BlockPool::release_cached();
}

void Engine::heap_push(HeapEntry e) {
  heap_.push_back(e);  // placeholder; filled by the hole walk below
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!heap_less(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void Engine::heap_pop_top() {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t end = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (heap_less(heap_[c], heap_[best])) best = c;
    }
    if (!heap_less(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

std::uint32_t Engine::alloc_node() {
  if (!free_nodes_.empty()) {
    const std::uint32_t slot = free_nodes_.back();
    free_nodes_.pop_back();
    return slot;
  }
  PACC_ASSERT(nodes_.size() < kSlotMask);
  nodes_.emplace_back();
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Engine::release_node(std::uint32_t slot) {
  Node& node = nodes_[slot];
  node.fn.reset();
  ++node.gen;
  free_nodes_.push_back(slot);
}

EventId Engine::schedule(Duration delay, Callback fn) {
  PACC_EXPECTS(delay.ns() >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

EventId Engine::schedule_at(TimePoint when, Callback fn) {
  PACC_EXPECTS_MSG(when >= now_, "cannot schedule into the past");
  const std::uint32_t slot = alloc_node();
  Node& node = nodes_[slot];
  node.fn = std::move(fn);
  const HeapEntry entry{when.ns(), next_seq_++, slot, node.gen};
  if (when == now_) {
    lane_.push_back(entry);
  } else {
    heap_push(entry);
  }
  return (static_cast<EventId>(node.gen) << 32) | slot;
}

void Engine::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= nodes_.size() || nodes_[slot].gen != gen) {
    return;  // already fired or already cancelled: no residue to track
  }
  release_node(slot);
  ++cancelled_backlog_;  // the queue entry is now a tombstone
}

void Engine::spawn(Task<> task) {
  PACC_EXPECTS_MSG(task.h_ != nullptr, "spawning a moved-from Task");
  // Reclaim finished tasks once they make up half the registry, so long
  // simulations that spawn many detached helpers (eager sends, meters) stay
  // bounded at amortized O(1) per spawn — each O(n) sweep removes >= n/2
  // entries.
  if (retired_tasks_ >= 64 && retired_tasks_ * 2 >= spawned_.size()) {
    std::erase_if(spawned_, [](const Task<>& t) { return t.done(); });
    retired_tasks_ = 0;
  }
  ++active_tasks_;
  Task<> wrapped = track_completion(std::move(task));
  auto handle = wrapped.h_;
  spawned_.push_back(std::move(wrapped));
  schedule(Duration::zero(), [handle] { handle.resume(); });
}

/// Wraps a spawned task so the engine can track completion in O(1).
Task<> Engine::track_completion(Task<> inner) {
  co_await inner;
  --active_tasks_;
  ++retired_tasks_;
}

RunResult Engine::run() {
  return drain(TimePoint::max(), /*stop_when_idle=*/false);
}

RunResult Engine::run_until(TimePoint deadline) {
  return drain(deadline, /*stop_when_idle=*/false);
}

RunResult Engine::run_active() {
  return drain(TimePoint::max(), /*stop_when_idle=*/true);
}

RunResult Engine::run_active_until(TimePoint deadline) {
  return drain(deadline, /*stop_when_idle=*/true);
}

RunResult Engine::drain(TimePoint deadline, bool stop_when_idle) {
  stop_requested_ = false;
  while (!(stop_when_idle && active_tasks_ == 0) && !stop_requested_) {
    // The next event is the smaller of the lane front and the heap top.
    const bool from_lane =
        lane_head_ < lane_.size() &&
        (heap_.empty() || heap_less(lane_[lane_head_], heap_[0]));
    if (!from_lane && heap_.empty()) break;
    const HeapEntry top = from_lane ? lane_[lane_head_] : heap_[0];
    if (top.when_ns > deadline.ns()) break;
    if (!from_lane) {
      heap_pop_top();
    } else if (++lane_head_ == lane_.size()) {
      lane_.clear();
      lane_head_ = 0;
    }
    Node& node = nodes_[top.slot];
    if (node.gen != top.gen) {
      --cancelled_backlog_;  // tombstone of a cancelled event: reclaim
      continue;
    }
    // Move the callback out and release the slot *before* invoking: the
    // callback may schedule new events, growing the node pool.
    Callback fn = std::move(node.fn);
    release_node(top.slot);
    now_ = TimePoint{top.when_ns};
    ++dispatched_;
    fn();
  }
  RunResult result;
  result.end_time = now_;
  result.stopped = stop_requested_;
  result.stuck_tasks = static_cast<std::size_t>(active_tasks_);
  result.all_tasks_finished = result.stuck_tasks == 0;
  return result;
}

}  // namespace pacc::sim
