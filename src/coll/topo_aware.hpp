// Topology-aware Scatter / Gather with rack-level power management.
//
// Implements the paper's stated future work (§VIII): extend the power-aware
// designs to the topology-aware algorithms of Kandalla et al. [27] and
// "conserve power on large scale clusters by throttling down all the
// processes in a rack during the inter-rack communication phases".
//
// The algorithms route data hierarchically — root → rack leaders over the
// (oversubscribed) rack aggregation links, rack leader → node leaders
// inside the rack, node leader → local ranks — instead of letting a flat
// binomial tree push large subtree payloads across rack boundaries
// repeatedly. The power-aware scatter keeps only the rack leaders at T0
// while the inter-rack phase runs; everyone else sits throttled at T7 and
// recovers as its data arrives.
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct TopoAwareOptions {
  PowerScheme scheme = PowerScheme::kNone;
};

/// Requirements: a rack layer in the cluster shape, at least two racks with
/// members, uniform ranks per node, and rack membership forming contiguous
/// comm-rank ranges (true for the standard node-major placement).
bool topo_aware_applicable(const mpi::Comm& comm);

/// Hierarchical scatter: root holds comm.size() blocks of `block` bytes;
/// every rank receives its block. With PowerScheme::kProposed, all ranks
/// except the rack leaders are throttled to T7 during the inter-rack phase
/// (§VIII). Falls back to the binomial scatter when not applicable.
sim::Task<> scatter_topo_aware(mpi::Rank& self, mpi::Comm& comm,
                               ConstExtent send, Extent recv, Bytes block,
                               int root, const TopoAwareOptions& options = {});

/// Hierarchical gather (reverse routing). Power schemes apply per-call DVFS
/// only: a gather has no long waiting phase to throttle — leaves finish and
/// leave the collective.
sim::Task<> gather_topo_aware(mpi::Rank& self, mpi::Comm& comm,
                              ConstExtent send, Extent recv, Bytes block,
                              int root, const TopoAwareOptions& options = {});

}  // namespace pacc::coll
