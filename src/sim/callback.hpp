// Small-buffer-optimized callback for the event core.
//
// Event callbacks in the hot path capture at most a couple of pointers (a
// coroutine handle, an object pointer plus an id), so the common case stores
// the callable inline in 24 bytes with no heap allocation and a trivial
// (memcpy) move. Larger or non-trivially-copyable callables — e.g. an eager
// delivery closure owning a message — fall back to one block from the
// thread-local sim::BlockPool, which keeps the type fully general without
// penalising the simulator's dominant event shapes.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/block_pool.hpp"
#include "util/expect.hpp"

namespace pacc::sim {

/// Move-only type-erased `void()` callable with small-buffer optimization.
class Callback {
 public:
  /// Inline storage: three pointers' worth covers every hot-path capture
  /// (engine/network pointer + 64-bit id + spare).
  static constexpr std::size_t kInlineSize = 3 * sizeof(void*);

  Callback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback>>>
  Callback(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for
                      // the std::function parameter it replaces.
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(store_.buf)) D(std::forward<F>(fn));
      invoke_ = [](Callback& self) {
        (*std::launder(reinterpret_cast<D*>(self.store_.buf)))();
      };
      drop_ = nullptr;  // trivially destructible by construction
    } else {
      static_assert(alignof(D) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
      void* block = BlockPool::allocate(sizeof(D));
      try {
        store_.ptr = ::new (block) D(std::forward<F>(fn));
      } catch (...) {
        BlockPool::deallocate(block, sizeof(D));
        throw;
      }
      invoke_ = [](Callback& self) { (*static_cast<D*>(self.store_.ptr))(); };
      drop_ = [](Callback& self) {
        static_cast<D*>(self.store_.ptr)->~D();
        BlockPool::deallocate(self.store_.ptr, sizeof(D));
      };
    }
  }

  Callback(Callback&& other) noexcept
      : invoke_(other.invoke_), drop_(other.drop_), store_(other.store_) {
    other.invoke_ = nullptr;
    other.drop_ = nullptr;
  }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      invoke_ = other.invoke_;
      drop_ = other.drop_;
      store_ = other.store_;
      other.invoke_ = nullptr;
      other.drop_ = nullptr;
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  void operator()() {
    PACC_ASSERT(invoke_ != nullptr);
    invoke_(*this);
  }

  void reset() noexcept {
    if (drop_) drop_(*this);
    invoke_ = nullptr;
    drop_ = nullptr;
  }

  /// Whether a callable of type D takes the no-allocation inline path.
  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= alignof(void*) &&
           std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

 private:
  using Invoke = void (*)(Callback&);
  using Drop = void (*)(Callback&);

  Invoke invoke_ = nullptr;
  Drop drop_ = nullptr;  ///< non-null only for pool-allocated callables
  union Storage {
    void* ptr;
    alignas(void*) std::byte buf[kInlineSize];
  } store_{};
};

}  // namespace pacc::sim
