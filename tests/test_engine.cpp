#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace pacc::sim {
namespace {

TEST(Engine, StartsAtOrigin) {
  Engine e;
  EXPECT_EQ(e.now(), TimePoint::origin());
}

TEST(Engine, ExecutesEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule(Duration::micros(30), [&] { order.push_back(3); });
  e.schedule(Duration::micros(10), [&] { order.push_back(1); });
  e.schedule(Duration::micros(20), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    e.schedule(Duration::micros(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ClockAdvancesToEventTime) {
  Engine e;
  TimePoint seen;
  e.schedule(Duration::millis(2.5), [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen.ns(), 2'500'000);
  EXPECT_EQ(e.now().ns(), 2'500'000);
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  Engine e;
  int fired = 0;
  e.schedule(Duration::micros(1), [&] {
    e.schedule(Duration::micros(1), [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now().ns(), 2000);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule(Duration::micros(1), [&] { ran = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelAfterFireIsNoop) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule(Duration::micros(1), [&] { ran = true; });
  e.run();
  e.cancel(id);  // must not crash or corrupt state
  EXPECT_TRUE(ran);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  Engine e;
  int count = 0;
  e.schedule(Duration::micros(10), [&] { ++count; });
  e.schedule(Duration::micros(20), [&] { ++count; });
  e.schedule(Duration::micros(30), [&] { ++count; });
  e.run_until(TimePoint{} + Duration::micros(20));
  EXPECT_EQ(count, 2);
  e.run();
  EXPECT_EQ(count, 3);
}

TEST(Engine, CountsDispatchedEvents) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule(Duration::micros(i), [] {});
  e.run();
  EXPECT_EQ(e.events_dispatched(), 5u);
}

TEST(Engine, EmptyRunFinishesCleanly) {
  Engine e;
  const RunResult r = e.run();
  EXPECT_TRUE(r.all_tasks_finished);
  EXPECT_EQ(r.stuck_tasks, 0u);
}

// Regression: the cancelled-event bookkeeping used to grow without bound —
// cancelling an already-fired event left a permanent entry. Tombstones must
// be fully reclaimed by the time the queue drains.
TEST(Engine, CancelledBacklogIsReclaimedByRun) {
  Engine e;
  int fired = 0;
  const EventId a = e.schedule(Duration::micros(1), [&] { ++fired; });
  e.schedule(Duration::micros(2), [&] { ++fired; });
  const EventId c = e.schedule(Duration::micros(3), [&] { ++fired; });
  e.cancel(a);
  e.cancel(c);
  EXPECT_EQ(e.cancelled_backlog(), 2u);
  e.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.cancelled_backlog(), 0u);
  EXPECT_EQ(e.live_event_nodes(), 0u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, CancelAfterFireLeavesNoResidue) {
  Engine e;
  const EventId id = e.schedule(Duration::micros(1), [] {});
  e.run();
  for (int i = 0; i < 100; ++i) e.cancel(id);  // fired: every cancel no-ops
  EXPECT_EQ(e.cancelled_backlog(), 0u);
  EXPECT_EQ(e.live_event_nodes(), 0u);
}

TEST(Engine, DoubleCancelCountsOnce) {
  Engine e;
  bool ran = false;
  const EventId id = e.schedule(Duration::micros(1), [&] { ran = true; });
  e.cancel(id);
  e.cancel(id);  // second cancel must be a no-op, not a second tombstone
  EXPECT_EQ(e.cancelled_backlog(), 1u);
  e.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(e.cancelled_backlog(), 0u);
  EXPECT_EQ(e.live_event_nodes(), 0u);
}

TEST(Engine, EventPoolDrainsAfterHeavyChurn) {
  Engine e;
  std::vector<EventId> ids;
  int fired = 0;
  for (int round = 0; round < 32; ++round) {
    ids.clear();
    for (int i = 0; i < 64; ++i) {
      ids.push_back(e.schedule(Duration::micros(i + 1), [&] { ++fired; }));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) e.cancel(ids[i]);
    e.run();
    EXPECT_EQ(e.cancelled_backlog(), 0u);
    EXPECT_EQ(e.live_event_nodes(), 0u);
  }
  EXPECT_EQ(fired, 32 * 32);
}

TEST(Engine, StaleIdFromReusedSlotDoesNotCancelNewEvent) {
  Engine e;
  const EventId old_id = e.schedule(Duration::micros(1), [] {});
  e.run();  // fires; the pool slot is released
  bool ran = false;
  e.schedule(Duration::micros(1), [&] { ran = true; });  // likely same slot
  e.cancel(old_id);  // stale generation: must not hit the new event
  e.run();
  EXPECT_TRUE(ran);
}

TEST(Engine, MoveOnlyCallbackTakesHeapPath) {
  Engine e;
  auto payload = std::make_unique<int>(41);
  int seen = 0;
  e.schedule(Duration::micros(1),
             [p = std::move(payload), &seen]() mutable { seen = *p + 1; });
  e.run();
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(e.live_event_nodes(), 0u);
}

TEST(Engine, CancelledHeapCallbackIsDestroyed) {
  Engine e;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id =
      e.schedule(Duration::micros(1), [t = std::move(token)] { (void)t; });
  EXPECT_FALSE(watch.expired());
  e.cancel(id);  // must release the captured state immediately
  EXPECT_TRUE(watch.expired());
  e.run();
}

TEST(Engine, SpawnReclamationKeepsRegistryBounded) {
  // Thousands of short-lived detached tasks (eager sends, meters) must not
  // accumulate; this exercises the amortized compaction path.
  Engine e;
  auto noop = [](Engine& eng) -> Task<> { co_await eng.delay(Duration::nanos(1)); };
  for (int i = 0; i < 5000; ++i) {
    e.spawn(noop(e));
    if (i % 16 == 0) e.run();
  }
  e.run();
  EXPECT_EQ(e.active_tasks(), 0u);
  EXPECT_EQ(e.live_event_nodes(), 0u);
}

// An event scheduled at now() joins the same-instant lane, yet it must still
// run after every event already queued for this instant from earlier times
// (those sit in the heap with smaller sequence numbers).
TEST(Engine, SameInstantLaneRunsAfterEarlierHeapEntriesOfThatInstant) {
  Engine e;
  std::vector<int> order;
  e.schedule(Duration::micros(10), [&] {
    order.push_back(1);
    e.schedule(Duration::zero(), [&] { order.push_back(3); });
  });
  e.schedule(Duration::micros(10), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// --- differential: heap + same-instant lane vs. a reference queue -------

/// The ordering contract Engine documents, with none of its machinery: a
/// std::priority_queue on (when, seq) with lazy cancellation. It also
/// counts which cases a script exercised.
class ReferenceQueue {
 public:
  struct Coverage {
    int cancelled_same_instant = 0;  ///< pending at now() (Engine's lane)
    int cancelled_later = 0;         ///< pending after now() (the heap)
    int cancelled_dead = 0;          ///< already fired or cancelled
    int stopped_mid_instant = 0;     ///< stop left events at now() queued
  };

  std::int64_t now() const { return now_; }

  std::uint64_t schedule(std::int64_t delay, std::function<void()> fn) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(Entry{now_ + delay, seq});
    live_.emplace(seq, std::make_pair(now_ + delay, std::move(fn)));
    return seq;
  }

  void cancel(std::uint64_t id) {
    const auto it = live_.find(id);
    if (it == live_.end()) {
      ++coverage_.cancelled_dead;
      return;
    }
    ++(it->second.first == now_ ? coverage_.cancelled_same_instant
                                : coverage_.cancelled_later);
    live_.erase(it);
    ++backlog_;
  }

  void request_stop() { stop_ = true; }

  void run_until(std::int64_t deadline) {
    stop_ = false;
    while (!queue_.empty() && queue_.top().when <= deadline && !stop_) {
      const Entry top = queue_.top();
      queue_.pop();
      const auto it = live_.find(top.seq);
      if (it == live_.end()) {
        --backlog_;
        continue;
      }
      std::function<void()> fn = std::move(it->second.second);
      live_.erase(it);
      now_ = top.when;
      ++dispatched_;
      fn();
    }
    if (stop_ && !queue_.empty() && queue_.top().when == now_) {
      ++coverage_.stopped_mid_instant;
    }
  }

  std::size_t pending_events() const { return queue_.size() - backlog_; }
  std::uint64_t cancelled_backlog() const { return backlog_; }
  std::size_t live_event_nodes() const { return live_.size(); }
  std::uint64_t events_dispatched() const { return dispatched_; }
  const Coverage& coverage() const { return coverage_; }

 private:
  struct Entry {
    std::int64_t when;
    std::uint64_t seq;
    bool operator>(const Entry& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<std::uint64_t,
                     std::pair<std::int64_t, std::function<void()>>>
      live_;
  std::int64_t now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t backlog_ = 0;
  std::uint64_t dispatched_ = 0;
  bool stop_ = false;
  Coverage coverage_;
};

/// Engine behind ReferenceQueue's interface.
class EngineQueue {
 public:
  std::int64_t now() const { return engine_.now().ns(); }
  EventId schedule(std::int64_t delay, Callback fn) {
    return engine_.schedule(Duration::nanos(delay), std::move(fn));
  }
  void cancel(EventId id) { engine_.cancel(id); }
  void request_stop() { engine_.request_stop(); }
  void run_until(std::int64_t deadline) {
    engine_.run_until(TimePoint{deadline});
  }
  std::size_t pending_events() const { return engine_.pending_events(); }
  std::uint64_t cancelled_backlog() const {
    return engine_.cancelled_backlog();
  }
  std::size_t live_event_nodes() const { return engine_.live_event_nodes(); }
  std::uint64_t events_dispatched() const {
    return engine_.events_dispatched();
  }

 private:
  Engine engine_;
};

/// A seeded random schedule, replayed identically on either queue: events
/// spawn children at zero or small positive delays (so lane and heap
/// entries share instants), cancel earlier events (queued at now(), queued
/// later, fired or cancelled) and request stops mid-instant; between runs
/// the script adds and cancels from outside the loop and runs to horizons
/// that include now() itself. Every dispatch and every run boundary
/// records (now, label, pending, backlog, live nodes, dispatched).
template <typename Queue>
class Script {
 public:
  using Probe = std::array<std::int64_t, 6>;
  static constexpr std::size_t kMaxEvents = 1500;

  explicit Script(std::uint64_t seed) : seed_(seed) {}

  std::vector<Probe> run() {
    Rng rng(seed_);
    for (int i = 0; i < 8; ++i) add(rng);
    for (int phase = 0; phase < 40; ++phase) {
      if (rng.next_below(2) == 0) add(rng);
      if (rng.next_below(3) == 0) cancel_one(rng);
      const auto horizon = static_cast<std::int64_t>(
          rng.next_below(4) == 0 ? 0 : rng.next_below(12));
      queue_.run_until(queue_.now() + horizon);
      probe(-1);
    }
    while (queue_.pending_events() > 0 || queue_.cancelled_backlog() > 0) {
      queue_.run_until(std::numeric_limits<std::int64_t>::max());
      probe(-2);
    }
    return std::move(trace_);
  }

  const Queue& queue() const { return queue_; }

 private:
  void fire(int label) {
    probe(label);
    Rng rng(seed_ * 1000003u + static_cast<std::uint64_t>(label));
    const auto children = rng.next_below(4);
    for (std::uint64_t c = 0; c < children && ids_.size() < kMaxEvents; ++c) {
      add(rng);
    }
    if (rng.next_below(3) == 0) cancel_one(rng);
    if (rng.next_below(10) == 0) queue_.request_stop();
  }

  void add(Rng& rng) {
    const auto delay = static_cast<std::int64_t>(
        rng.next_below(2) == 0 ? 0 : rng.next_below(6));
    const int label = static_cast<int>(ids_.size());
    ids_.push_back(queue_.schedule(delay, [this, label] { fire(label); }));
  }

  void cancel_one(Rng& rng) {
    queue_.cancel(ids_[rng.next_below(ids_.size())]);
  }

  void probe(int label) {
    trace_.push_back(Probe{queue_.now(), label,
                           static_cast<std::int64_t>(queue_.pending_events()),
                           static_cast<std::int64_t>(queue_.cancelled_backlog()),
                           static_cast<std::int64_t>(queue_.live_event_nodes()),
                           static_cast<std::int64_t>(queue_.events_dispatched())});
  }

  std::uint64_t seed_;
  Queue queue_;
  std::vector<std::uint64_t> ids_;
  std::vector<Probe> trace_;
};

TEST(EngineDifferential, LaneAndHeapMatchReferenceQueue) {
  ReferenceQueue::Coverage seen;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Script<EngineQueue> engine(seed);
    Script<ReferenceQueue> reference(seed);
    const auto got = engine.run();
    const auto want = reference.run();
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "seed " << seed << ", probe " << i;
    }
    EXPECT_EQ(engine.queue().cancelled_backlog(), 0u);
    EXPECT_EQ(engine.queue().live_event_nodes(), 0u);
    const ReferenceQueue::Coverage& c = reference.queue().coverage();
    seen.cancelled_same_instant += c.cancelled_same_instant;
    seen.cancelled_later += c.cancelled_later;
    seen.cancelled_dead += c.cancelled_dead;
    seen.stopped_mid_instant += c.stopped_mid_instant;
  }
  // The scripts reached every case the lane has to get right.
  EXPECT_GT(seen.cancelled_same_instant, 0);
  EXPECT_GT(seen.cancelled_later, 0);
  EXPECT_GT(seen.cancelled_dead, 0);
  EXPECT_GT(seen.stopped_mid_instant, 0);
}

}  // namespace
}  // namespace pacc::sim
