// Segmented / pipelined tree bcast and reduce variants (after Open MPI's
// coll/adapt component).
//
// Each variant is (tree shape × segment size): the payload is cut into
// `seg`-byte segments that pipeline down (bcast) or up (reduce) a binomial,
// binary, chain or linear tree built on virtual ranks vr = (me−root+P)%P.
// A rank forwards segment s as soon as it holds it, so interior links carry
// consecutive segments back-to-back — the pipeline the coll/adapt design
// races against the one-shot algorithms.
//
// Every variant is expressed as a pure plan (coll/plan.hpp): the per-rank
// schedule — including the power-aware twin's throttle transitions and the
// closing node rendezvous, reusing the §V PowerAction program format — is
// built once, cached in the PlanCache, and walked by the shared
// run_power_actions interpreter. Executors only move bytes.
#pragma once

#include "coll/plan.hpp"
#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct TreeOptions {
  TreeKind tree = TreeKind::kBinomial;
  /// Segment size in bytes; 0 (or >= the payload) sends the payload whole.
  /// Reductions additionally require seg % 8 == 0 (double boundaries).
  /// The registry's tuned/forced paths clamp seg to [16 KiB, 4 MiB] — see
  /// coll/registry.cpp — because sub-eager-threshold segments from a
  /// high-fanout rank flood the fluid-flow network with concurrent eager
  /// flows. Direct callers at small scale (tests) may use smaller values.
  Bytes seg = 0;
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp op = ReduceOp::kSum;  ///< reduce_tree only
};

/// Number of segments a `bytes` payload splits into: 1 when seg is 0 or
/// covers the payload, ceil(bytes/seg) otherwise.
int tree_segment_count(Bytes bytes, Bytes seg);

/// Pure tree-plan construction. `kind` selects bcast or reduce emission
/// (kBcastTreeSeg / kReduceTreeSeg); `power` adds the §V throttle twin.
/// The plan's program length depends on tree_segment_count(bytes, seg).
PlanPtr build_tree_plan(const mpi::Comm& comm, PlanKind kind, TreeKind tree,
                        Bytes bytes, Bytes seg, bool power, int root);

/// Cache-aware fetch mirroring get_plan, with (seg, tree, power) folded
/// into the key so distinct variants never share a plan.
PlanPtr get_tree_plan(mpi::Comm& comm, PlanKind kind, TreeKind tree,
                      Bytes bytes, Bytes seg, bool power, int root);

/// Tree broadcast body with the scheme already negotiated (the registry's
/// exec_inner hook; also the tuned-dispatch target inside bcast()).
sim::Task<> bcast_tree_exec(mpi::Rank& self, mpi::Comm& comm, Extent buf,
                            int root, TreeKind tree, Bytes seg,
                            PowerScheme scheme);

/// Tree reduction body with the scheme already negotiated.
sim::Task<> reduce_tree_exec(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                             Extent recv, ReduceOp op, int root, TreeKind tree,
                             Bytes seg, PowerScheme scheme);

/// Full tree-broadcast entry point: profiling + scheme negotiation + the
/// per-call DVFS bracket around bcast_tree_exec.
sim::Task<> bcast_tree(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                       const TreeOptions& options = {});

/// Full tree-reduce entry point.
sim::Task<> reduce_tree(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                        Extent recv, int root, const TreeOptions& options = {});

}  // namespace pacc::coll
