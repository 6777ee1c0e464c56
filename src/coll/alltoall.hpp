// MPI_Alltoall algorithms (§IV-A, §V-A).
//
// Default algorithms mirror MVAPICH2: the Bruck (hypercube) algorithm for
// small messages and pair-wise exchange for large ones. The power-aware
// dispatcher adds per-call DVFS (kFreqScaling) or the paper's
// socket-scheduled, throttled pair-wise algorithm (kProposed; see
// alltoall_power.hpp).
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct AlltoallOptions {
  PowerScheme scheme = PowerScheme::kNone;
  /// Block sizes at or below this use the Bruck algorithm.
  Bytes bruck_threshold = 256;
};

/// Pair-wise exchange: P-1 sendrecv steps (XOR pattern when P is a power of
/// two, ring otherwise). send/recv hold P contiguous blocks of `block` bytes.
sim::Task<> alltoall_pairwise(mpi::Rank& self, mpi::Comm& comm,
                              ConstExtent send, Extent recv, Bytes block);

/// Bruck's algorithm: ceil(log2 P) rounds of aggregated blocks; best for
/// small messages.
sim::Task<> alltoall_bruck(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block);

/// Dispatcher applying the requested power scheme.
sim::Task<> alltoall(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                     Extent recv, Bytes block,
                     const AlltoallOptions& options = {});

}  // namespace pacc::coll
