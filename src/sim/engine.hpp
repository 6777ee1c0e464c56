// Deterministic discrete-event engine.
//
// Events are ordered by (time, insertion sequence) so two runs of the same
// program produce byte-identical traces. Coroutine tasks suspend on
// awaitables (delay, trigger, message arrival) and are resumed by events.
//
// A queue entry is one of two kinds, marked in the low bit of its stored
// sequence number:
//
// - a resume (resume_at / resume_after) carries the coroutine handle in the
//   entry itself: no event node, no callback, no EventId. It cannot be
//   cancelled. Nearly nine events in ten are such bare resumes (a delay
//   elapsing, a flow landing, a message arriving, a barrier releasing).
// - a callback event (schedule / schedule_at) points at a pooled node that
//   holds a small-buffer sim::Callback and a generation counter.
//   Cancellation is O(1): it releases the node, and the queue entry becomes
//   a lazy tombstone that is reclaimed when it reaches the front.
//
// Task frames and oversized callbacks come from the thread-local
// sim::BlockPool.
//
// The queue is a 4-ary heap plus a same-instant lane: an entry scheduled at
// now() (a coroutine resume, a zero-delay flush, a delivery) is appended to
// a FIFO instead of sifted through the heap. Lane entries all carry
// when == now() and increasing sequence numbers, so the lane is sorted by
// (time, sequence); dispatch takes the smaller of the lane front and the
// heap top under that same order, so the dispatch order is exactly the one
// a single heap would give. The kind bit sits below the sequence number,
// which is unique, so it never changes that order.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/task.hpp"
#include "util/expect.hpp"
#include "util/units.hpp"

namespace pacc::obs {
class TraceRecorder;
}  // namespace pacc::obs

namespace pacc::sim {

/// Identifier of a scheduled event, usable for cancellation. Encodes the
/// pool slot (low 32 bits) and its generation (high 32 bits); 0 is never a
/// valid id, so it can serve as a "no event" sentinel.
using EventId = std::uint64_t;

/// Result of draining the event queue.
struct RunResult {
  bool all_tasks_finished = false;  ///< false indicates deadlock / starvation
  bool stopped = false;             ///< ended early via request_stop()
  std::size_t stuck_tasks = 0;      ///< spawned tasks still pending
  TimePoint end_time;               ///< simulated clock when the queue drained
};

class Engine {
 public:
  Engine() = default;
  /// Destroys the task frames and callbacks still held, then hands the
  /// thread's cached sim::BlockPool blocks back to the allocator.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const { return now_; }

  /// Schedules `fn` to run `delay` from now. Returns an id for cancel().
  EventId schedule(Duration delay, Callback fn);

  /// Schedules `fn` at an absolute time (must not be in the past).
  EventId schedule_at(TimePoint when, Callback fn);

  /// Resumes `h` at an absolute time (must not be in the past). The entry
  /// holds the handle itself; a resume cannot be cancelled.
  void resume_at(TimePoint when, std::coroutine_handle<> h) {
    PACC_EXPECTS_MSG(when >= now_, "cannot schedule into the past");
    enqueue(HeapEntry{when.ns(), (next_seq_++ << 1) | kResume,
                      reinterpret_cast<std::uintptr_t>(h.address())});
  }

  /// Resumes `h` `delay` from now; see resume_at.
  void resume_after(Duration delay, std::coroutine_handle<> h) {
    PACC_EXPECTS(delay.ns() >= 0);
    resume_at(now_ + delay, h);
  }

  /// Cancels a pending event in O(1); cancelling an already-fired (or
  /// already-cancelled) event is a no-op and leaves no residue.
  void cancel(EventId id);

  /// Registers a top-level task and schedules its first resume at now().
  void spawn(Task<> task);

  /// Runs until the event queue is empty. Reports deadlock if spawned tasks
  /// remain unfinished (e.g. a recv with no matching send).
  RunResult run();

  /// Runs until the queue is empty or the clock would pass `deadline`.
  /// Events at exactly `deadline` are executed.
  RunResult run_until(TimePoint deadline);

  /// Runs until every spawned task has finished (or the queue drains, which
  /// then indicates deadlock). Use this when perpetual event sources — such
  /// as a sampling power meter — would keep a plain run() alive forever.
  RunResult run_active();

  /// run_active() with a simulated-time bound: if tasks are still pending
  /// at `deadline` (e.g. a deadlocked rank while the meter keeps ticking),
  /// stops and reports them as stuck.
  RunResult run_active_until(TimePoint deadline);

  /// Spawned tasks that have not yet finished.
  std::uint64_t active_tasks() const { return active_tasks_; }

  /// Cooperative abort: the current drain loop stops before dispatching the
  /// next event. For machinery that must end a run from deep inside an
  /// event callback or coroutine — exceptions cannot cross the event core
  /// (Task terminates on unhandled ones). The flag clears when the next
  /// run*() starts; the queue and task registry are left intact.
  void request_stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Destroys every spawned task frame, including ones still suspended
  /// after a cut-short run. Owners of objects the frames reference (ranks,
  /// communicators, buffers) must call this before those objects die: the
  /// engine outlives them in the usual member order, and destroying a
  /// suspended frame runs the destructors of its locals. The engine is
  /// reusable afterwards (the event queue is left untouched).
  void drop_tasks() {
    spawned_.clear();
    active_tasks_ = 0;
    retired_tasks_ = 0;
  }

  /// Holds run_active() open for pending work that is not a spawned task —
  /// e.g. an eager message in flight between send and delivery. Pair every
  /// retain with exactly one release (typically from the completion
  /// callback); an unreleased hold reads as a stuck task.
  void retain_active() { ++active_tasks_; }
  void release_active() { --active_tasks_; }

  /// Observability hook: components on the hot path (machine, runtime,
  /// collectives) read this pointer and skip all instrumentation when it is
  /// null — the recorder costs nothing unless a trace was requested.
  obs::TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(obs::TraceRecorder* tracer) { tracer_ = tracer; }

  /// Number of events dispatched so far (for micro-benchmarks / tests).
  std::uint64_t events_dispatched() const { return dispatched_; }

  /// Cancelled events whose queue entry has not been reclaimed yet. Always
  /// 0 after a full run() — tombstones are erased as they are popped.
  std::uint64_t cancelled_backlog() const { return cancelled_backlog_; }

  /// Event-pool slots currently holding a live (scheduled, uncancelled,
  /// unfired) callback. Pending resumes hold no slot and are not counted.
  /// Always 0 after a full run().
  std::size_t live_event_nodes() const {
    return nodes_.size() - free_nodes_.size();
  }

  /// Scheduled events still in the queue, callbacks and resumes alike
  /// (tombstones excluded).
  std::size_t pending_events() const {
    return heap_.size() + (lane_.size() - lane_head_) -
           static_cast<std::size_t>(cancelled_backlog_);
  }

  /// Awaitable that resumes the caller after `d` of simulated time.
  auto delay(Duration d) {
    struct Awaiter {
      Engine& eng;
      Duration d;
      bool await_ready() const noexcept { return d.ns() <= 0; }
      void await_suspend(std::coroutine_handle<> h) {
        eng.resume_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    PACC_EXPECTS_MSG(d.ns() >= 0, "cannot delay into the past");
    return Awaiter{*this, d};
  }

 private:
  /// Queue entry (heap or lane): 24 trivially-copyable bytes, so sift
  /// operations are plain memory moves. `seq` is the insertion sequence
  /// number shifted left by one, its low bit the entry's kind. A resume's
  /// `payload` is the coroutine frame address; a callback event's is
  /// `gen << 32 | slot`, and `gen` must match the node's generation or the
  /// entry is a tombstone. Ordering is (when_ns, seq), identical to the
  /// historical (time, insertion sequence) ordering.
  struct HeapEntry {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint64_t payload;
  };
  static constexpr std::uint64_t kCallback = 0;
  static constexpr std::uint64_t kResume = 1;

  /// Pooled event node; generation advances every time the slot is
  /// released, invalidating outstanding EventIds and queue entries.
  struct Node {
    Callback fn;
    std::uint32_t gen = 1;
  };

  static bool heap_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq < b.seq;
  }

  void heap_push(HeapEntry e);
  void heap_pop_top();

  void enqueue(const HeapEntry& e) {
    if (e.when_ns == now_.ns()) {
      lane_.push_back(e);
    } else {
      heap_push(e);
    }
  }

  std::uint32_t alloc_node();
  void release_node(std::uint32_t slot);

  Task<> track_completion(Task<> inner);

  RunResult drain(TimePoint deadline, bool stop_when_idle);

  // 4-ary implicit min-heap: shallower than a binary heap and the four
  // children share a cache line, which measurably speeds up sift-down on
  // the simulator's event mixes.
  std::vector<HeapEntry> heap_;
  // Same-instant lane: entries at now(), in (when, seq) order, consumed
  // from lane_head_; emptied (capacity kept) whenever it is used up.
  std::vector<HeapEntry> lane_;
  std::size_t lane_head_ = 0;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<Task<>> spawned_;
  obs::TraceRecorder* tracer_ = nullptr;
  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t active_tasks_ = 0;
  std::uint64_t retired_tasks_ = 0;  ///< finished since last reclamation
  std::uint64_t cancelled_backlog_ = 0;
  bool stop_requested_ = false;
};

}  // namespace pacc::sim
