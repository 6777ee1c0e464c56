// Payload memory of the collective algorithms: the copy every pack, unpack
// and self-block goes through, and the scratch buffers they work in.
//
// Both honour size-only extents (mpi/extent.hpp): a copy with a size-only
// side moves nothing, and on a synthetic-payload runtime every scratch
// buffer is size-only — so a call made with size-only extents runs its full
// schedule without allocating or touching a payload byte.
#pragma once

#include <cstddef>
#include <cstring>
#include <vector>

#include "coll/algo.hpp"
#include "mpi/runtime.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

/// Copies `src` into `dst` (equal sizes). memcpy needs non-null pointers
/// even for zero bytes, and an empty or size-only extent has none.
inline void copy_bytes(Extent dst, ConstExtent src) {
  PACC_EXPECTS(dst.size() == src.size());
  if (dst.has_bytes() && src.has_bytes()) {
    std::memcpy(dst.data(), src.data(), dst.size());
  }
}

/// Payload-sized working storage of one collective call: zeroed bytes on a
/// runtime that ships contents, a size-only extent on a synthetic one,
/// where nothing would ever read them.
class Scratch {
 public:
  explicit Scratch(mpi::Rank& self, std::size_t n = 0)
      : real_(!self.runtime().params().synthetic_payloads) {
    resize(n);
  }

  /// A working copy of `init`.
  Scratch(mpi::Rank& self, ConstExtent init) : Scratch(self, init.size()) {
    copy_bytes(extent(), init);
  }

  void resize(std::size_t n) {
    size_ = n;
    if (real_) bytes_.resize(n);
  }

  std::size_t size() const { return size_; }
  Extent extent() { return real_ ? Extent(bytes_) : Extent::sized(size_); }
  Extent subspan(std::size_t offset, std::size_t n) {
    return extent().subspan(offset, n);
  }
  Extent first(std::size_t n) { return extent().first(n); }

  operator Extent() { return extent(); }
  operator ConstExtent() { return extent(); }

 private:
  bool real_;
  std::size_t size_ = 0;
  std::vector<std::byte> bytes_;
};

}  // namespace pacc::coll
