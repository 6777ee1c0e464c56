// MPI_Allreduce: recursive doubling, two-level SMP-aware variant, and the
// power-aware variant (throttled non-leaders during the inter-leader phase).
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct AllreduceOptions {
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp op = ReduceOp::kSum;
  /// Flat allreduces at or above this size use Rabenseifner's algorithm
  /// (when the comm is a power of two and the buffer splits evenly).
  Bytes rabenseifner_threshold = 64 * 1024;
};

/// Recursive-doubling allreduce of double elements (power-of-two comm).
sim::Task<> allreduce_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                         ConstExtent send, Extent recv,
                                         ReduceOp op);

/// Rabenseifner's algorithm: reduce-scatter (recursive halving) followed by
/// an allgather (recursive doubling). Moves 2·M·(P-1)/P bytes per rank
/// instead of recursive doubling's M·log2(P) — the standard choice for
/// large vectors. Requires a power-of-two comm and a buffer that splits
/// into P double-aligned blocks.
sim::Task<> allreduce_rabenseifner(mpi::Rank& self, mpi::Comm& comm,
                                   ConstExtent send, Extent recv, ReduceOp op);

/// Two-level: intra-node reduce to the leader, leader allreduce, intra-node
/// broadcast of the result.
sim::Task<> allreduce_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                          Extent recv, const AllreduceOptions& options);

/// Dispatcher applying the requested power scheme.
sim::Task<> allreduce(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      Extent recv, const AllreduceOptions& options = {});

}  // namespace pacc::coll
