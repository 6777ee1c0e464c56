// Binomial-tree MPI_Scatter / MPI_Gather over contiguous equal blocks.
//
// Subtree payloads are packed into single messages, as MPICH does; these
// trees are also the building blocks of the scatter-allgather broadcast.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

/// Root holds comm.size() blocks of `block` bytes in `send` (comm-rank
/// order); every rank receives its block into `recv` (block bytes).
/// Non-roots may pass an empty `send`.
sim::Task<> scatter_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                             Extent recv, Bytes block, int root);

/// Every rank contributes `send` (block bytes); root assembles comm.size()
/// blocks into `recv` (comm-rank order). Non-roots may pass an empty `recv`.
sim::Task<> gather_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, Bytes block, int root);

/// MPI_Scatterv: root holds the concatenation of per-rank segments (sizes
/// in `counts`, comm-rank order); rank i receives counts[i] bytes. Linear
/// from the root, as MPICH implements it.
sim::Task<> scatterv_linear(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, std::span<const Bytes> counts,
                            int root);

/// MPI_Gatherv: rank i contributes counts[i] bytes; root assembles the
/// concatenation. Linear into the root.
sim::Task<> gatherv_linear(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, std::span<const Bytes> counts,
                           int root);

}  // namespace pacc::coll
