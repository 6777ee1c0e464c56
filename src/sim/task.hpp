// Coroutine task type for simulated processes.
//
// Every simulated MPI rank — and every collective algorithm it calls — is a
// coroutine returning sim::Task<T>. Tasks are lazily started: a child task
// begins executing when its parent co_awaits it (symmetric transfer), and a
// top-level task begins when Engine::spawn schedules its first resume. The
// whole cluster therefore runs deterministically on one OS thread.
//
// Frames come from the thread-local sim::BlockPool: a simulated message
// creates and destroys several task frames, and the pool recycles them
// without a malloc/free pair each.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "sim/block_pool.hpp"
#include "util/expect.hpp"

namespace pacc::sim {

template <typename T = void>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  bool finished = false;

  static void* operator new(std::size_t bytes) {
    return BlockPool::allocate(bytes);
  }
  static void operator delete(void* frame, std::size_t bytes) noexcept {
    BlockPool::deallocate(frame, bytes);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      p.finished = true;
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() const noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept {
    // Simulated processes must not leak exceptions: the event loop has no
    // sensible place to rethrow them deterministically.
    std::terminate();
  }
};

}  // namespace detail

/// A lazily-started coroutine producing a T (or nothing for T = void).
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    template <typename U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  bool done() const { return h_ && h_.promise().finished; }

  /// Awaiting a task starts it and suspends the parent until it finishes.
  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return h.promise().finished; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      T await_resume() {
        PACC_ASSERT(h.promise().value.has_value());
        return std::move(*h.promise().value);
      }
    };
    PACC_EXPECTS_MSG(h_ != nullptr, "awaiting a moved-from Task");
    return Awaiter{h_};
  }

 private:
  explicit Task(Handle h) : h_(h) {}
  Handle h_{};

  friend class Engine;
  template <typename>
  friend class Task;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    void return_void() {}
  };

  using Handle = std::coroutine_handle<promise_type>;

  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      if (h_) h_.destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  ~Task() {
    if (h_) h_.destroy();
  }

  bool done() const { return h_ && h_.promise().finished; }

  auto operator co_await() noexcept {
    struct Awaiter {
      Handle h;
      bool await_ready() const noexcept { return h.promise().finished; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> cont) noexcept {
        h.promise().continuation = cont;
        return h;
      }
      void await_resume() const noexcept {}
    };
    PACC_EXPECTS_MSG(h_ != nullptr, "awaiting a moved-from Task");
    return Awaiter{h_};
  }

 private:
  explicit Task(Handle h) : h_(h) {}
  Handle h_{};

  friend class Engine;
};

}  // namespace pacc::sim
