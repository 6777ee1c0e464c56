// MPI_Reduce_scatter_block: element-wise reduction of P blocks, block i
// delivered to rank i. Also the first half of Rabenseifner's allreduce.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct ReduceScatterOptions {
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp op = ReduceOp::kSum;
};

/// Recursive halving: log2(P) rounds, each exchanging and reducing half of
/// the remaining blocks. Requires a power-of-two comm.
sim::Task<> reduce_scatter_halving(mpi::Rank& self, mpi::Comm& comm,
                                   ConstExtent send, Extent recv, Bytes block,
                                   ReduceOp op);

/// Dispatcher: recursive halving for power-of-two comms; otherwise a
/// binomial reduce to rank 0 followed by a binomial scatter.
sim::Task<> reduce_scatter(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block,
                           const ReduceScatterOptions& options = {});

}  // namespace pacc::coll
