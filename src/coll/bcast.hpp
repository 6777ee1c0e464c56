// MPI_Bcast algorithms (§II-D, §V-B).
//
// Default path is MVAPICH2's multi-core aware scheme (Fig 1): an
// inter-leader broadcast (binomial for small messages, scatter-allgather
// for medium/large) followed by an intra-node binomial broadcast over
// shared memory. The power-aware variant throttles the non-leader socket to
// T7 and the leader's socket to T4 during the network phase (Fig 4), or —
// under core-granular throttling — every non-leader core to T7.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct BcastOptions {
  PowerScheme scheme = PowerScheme::kNone;
  /// Inter-leader messages >= this use scatter-allgather instead of the
  /// binomial tree.
  Bytes scatter_allgather_threshold = 16 * 1024;
};

/// Binomial-tree broadcast. With `unthrottle_on_receive`, a rank that is
/// currently throttled restores T0 right after its payload arrives and
/// before forwarding — used as the intra-node phase of the power-aware
/// collectives.
sim::Task<> bcast_binomial(mpi::Rank& self, mpi::Comm& comm, Extent buf,
                           int root, bool unthrottle_on_receive = false);

/// Scatter-allgather (van de Geijn) broadcast for medium/large messages.
sim::Task<> bcast_scatter_allgather(mpi::Rank& self, mpi::Comm& comm,
                                    Extent buf, int root);

/// Intra-node broadcast over the shared-memory region: the root writes the
/// payload once and all other local ranks read it concurrently (Fig 1). In
/// blocking mode — which has no shared-memory channel (§II-B) — this falls
/// back to the binomial tree over loopback. `node_comm` must live on one
/// node.
sim::Task<> bcast_intra_node(mpi::Rank& self, mpi::Comm& node_comm, Extent buf,
                             int root);

/// Two-level multi-core aware broadcast (Fig 1).
sim::Task<> bcast_smp(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                      const BcastOptions& options = {});

/// Dispatcher applying the requested power scheme; falls back to flat
/// algorithms when the comm does not span multiple nodes.
sim::Task<> bcast(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                  const BcastOptions& options = {});

}  // namespace pacc::coll
