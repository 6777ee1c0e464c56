// Message representation for the simulated MPI runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mpi/extent.hpp"

namespace pacc::mpi {

/// Tags below this value are available to user point-to-point traffic.
/// Collective calls allocate tags at and above it, encoding the
/// communicator's context id so that concurrent collectives on different
/// communicators (e.g. a node comm and the world) can never cross-match:
///   tag = base | (context_id << kContextShift) | per-comm call sequence.
inline constexpr int kCollectiveTagBase = 1 << 30;
inline constexpr int kContextShift = 20;
inline constexpr int kMaxCollectiveCalls = 1 << kContextShift;
inline constexpr int kMaxContexts = 1 << (30 - kContextShift);

/// Builds the collective tag for call `seq` on communicator `context_id`.
constexpr int collective_tag(int context_id, int seq) {
  return kCollectiveTagBase | (context_id << kContextShift) | seq;
}

struct Message {
  int src = -1;  ///< global rank of the sender
  int tag = 0;
  std::vector<std::byte> payload;
  /// Logical payload size when the contents are elided (synthetic-payload
  /// runtimes and size-only extents leave `payload` empty; every timing
  /// and matching decision is driven by the size alone). Ignored whenever
  /// `payload` is non-empty.
  std::size_t bytes = 0;

  std::size_t size() const { return payload.empty() ? bytes : payload.size(); }
};

/// Builds a message for the wire. The contents travel only when they exist
/// and the runtime ships them: with `synthetic` set, or for a size-only
/// extent, just the size does — sound exactly when no receiver reads the
/// delivered bytes (see RuntimeParams::synthetic_payloads).
inline Message make_message(int src, int tag, ConstExtent data,
                            bool synthetic) {
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.bytes = data.size();
  if (!synthetic && data.has_bytes()) {
    const auto bytes = data.bytes();
    msg.payload.assign(bytes.begin(), bytes.end());
  }
  return msg;
}

}  // namespace pacc::mpi
