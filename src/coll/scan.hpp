// MPI_Scan (inclusive prefix reduction) over double elements.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct ScanOptions {
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp op = ReduceOp::kSum;
};

/// Linear-shift recursive doubling: after round k a rank's partial covers
/// the 2^k ranks ending at itself; O(log P) rounds for any P.
sim::Task<> scan_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                    ConstExtent send, Extent recv, ReduceOp op);

/// Dispatcher applying the requested power scheme (per-call DVFS; scan has
/// no leader structure to throttle).
sim::Task<> scan(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                 Extent recv, const ScanOptions& options = {});

}  // namespace pacc::coll
