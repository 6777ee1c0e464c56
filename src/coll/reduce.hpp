// MPI_Reduce (§IV-B, §V-B): binomial tree, two-level SMP-aware variant, and
// the power-aware variant that throttles non-leader cores during the
// inter-leader phase.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct ReduceOptions {
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp op = ReduceOp::kSum;
};

/// Binomial-tree reduction of double elements to `root`. `send` holds this
/// rank's contribution; at the root, `recv` (same size) gets the result.
sim::Task<> reduce_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, ReduceOp op, int root);

/// Two-level: intra-node reduction to the leader over shared memory, then
/// an inter-leader binomial reduction, then a fix-up hop to the root.
sim::Task<> reduce_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                       Extent recv, const ReduceOptions& options, int root);

/// Dispatcher applying the requested power scheme.
sim::Task<> reduce(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                   Extent recv, int root, const ReduceOptions& options = {});

}  // namespace pacc::coll
