// MPI_Allgather: ring and recursive-doubling algorithms plus the
// MVAPICH2-style two-level (shared-memory leader) variant.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct AllgatherOptions {
  PowerScheme scheme = PowerScheme::kNone;
};

/// Every rank contributes `send` (block bytes); all ranks end with
/// comm.size() blocks in `recv` (comm-rank order). P-1 neighbour steps.
sim::Task<> allgather_ring(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block);

/// Recursive doubling; requires a power-of-two comm size.
sim::Task<> allgather_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                         ConstExtent send, Extent recv,
                                         Bytes block);

/// Two-level: intra-node gather to the leader, leader ring allgather,
/// intra-node broadcast of the assembled buffer (Fig 1).
sim::Task<> allgather_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                          Extent recv, Bytes block,
                          const AllgatherOptions& options = {});

/// Dispatcher: two-level when the comm spans multiple nodes uniformly,
/// otherwise ring / recursive doubling.
sim::Task<> allgather(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      Extent recv, Bytes block,
                      const AllgatherOptions& options = {});

/// MPI_Allgatherv over a ring: rank i contributes counts[i] bytes; every
/// rank ends with the concatenation (comm-rank order) in `recv`.
sim::Task<> allgatherv_ring(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, std::span<const Bytes> counts);

}  // namespace pacc::coll
