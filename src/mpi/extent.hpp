// Payload extents: where a message's bytes live — or nowhere — plus how
// many there are.
//
// Every simulated quantity (timing, energy, traces, fault draws) depends on
// message sizes alone, so a run that never reads what it receives can move
// byte counts instead of bytes (RuntimeParams::synthetic_payloads). An
// extent is the one type that carries either: a real byte range, exactly
// like std::span, or a size-only range whose data() is null. Sub-ranges of
// a size-only extent stay size-only, and every copy or reduction through a
// size-only extent is a no-op — so the collectives run the same schedule
// either way and only a real-payload run touches memory.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#include "util/expect.hpp"

namespace pacc::mpi {

/// A pointer-or-null plus a byte count. `T` is std::byte or const std::byte.
template <class T>
class BasicExtent {
  static_assert(std::is_same_v<std::remove_const_t<T>, std::byte>);

 public:
  constexpr BasicExtent() = default;

  /// Views real bytes: anything a std::span<T> accepts (spans, vectors,
  /// arrays) converts implicitly, so span-based callers compile unchanged.
  template <class R>
    requires(!std::is_same_v<std::remove_cvref_t<R>, BasicExtent> &&
             std::is_convertible_v<R &&, std::span<T>>)
  constexpr BasicExtent(R&& bytes) {
    const std::span<T> view(std::forward<R>(bytes));
    data_ = view.data();
    size_ = view.size();
  }

  /// Read-only view of a mutable extent.
  template <class U>
    requires(std::is_const_v<T> && std::is_same_v<const U, T> &&
             !std::is_const_v<U>)
  constexpr BasicExtent(BasicExtent<U> other)
      : data_(other.data()), size_(other.size()) {}

  /// `n` bytes that exist nowhere: only the count travels.
  static constexpr BasicExtent sized(std::size_t n) {
    return BasicExtent(nullptr, n);
  }

  constexpr T* data() const { return data_; }
  constexpr std::size_t size() const { return size_; }
  /// Whether the extent points at real bytes (false when size-only).
  constexpr bool has_bytes() const { return data_ != nullptr; }

  /// Bytes [offset, offset + n); size-only when this extent is.
  BasicExtent subspan(std::size_t offset, std::size_t n) const {
    PACC_EXPECTS(offset <= size_ && n <= size_ - offset);
    return BasicExtent(data_ != nullptr ? data_ + offset : nullptr, n);
  }
  BasicExtent first(std::size_t n) const { return subspan(0, n); }

  /// The real bytes; a size-only extent has none to give.
  std::span<T> bytes() const {
    PACC_EXPECTS_MSG(data_ != nullptr || size_ == 0,
                     "size-only payload extent has no bytes");
    return {data_, size_};
  }

 private:
  constexpr BasicExtent(T* data, std::size_t size) : data_(data), size_(size) {}

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

using Extent = BasicExtent<std::byte>;
using ConstExtent = BasicExtent<const std::byte>;

}  // namespace pacc::mpi
