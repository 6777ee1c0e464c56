#include "sym/collapse.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "pacc/simulation.hpp"

namespace pacc::sym {
namespace {

CollapseDecision full(std::string reason) {
  CollapseDecision d;
  d.reason = std::move(reason);
  return d;
}

bool is_pow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Whether an alltoall/alltoallv run under PowerScheme::kProposed executes
/// an equivariant schedule. Mirrors the dispatch in coll/alltoall*.cpp plus
/// plan.cpp's power_exchange_is_xor: if the §V exchange is not applicable
/// (fewer than 2 nodes, non-2-socket machine, or one empty socket group per
/// node) the run falls back to per-call DVFS over the pairwise schedule —
/// equivariant. If it is applicable, the XOR-structured variant (fabric
/// shape, power-of-two nodes and ppn) is equivariant; the flat-switch
/// circle tournament is not.
bool proposed_is_equivariant(const ClusterConfig& config,
                              const hw::ClusterShape& topology) {
  int sockets = 2;
  int cores_per_socket = 4;
  if (config.machine) {
    sockets = config.machine->shape.sockets_per_node;
    cores_per_socket = config.machine->shape.cores_per_socket;
  }
  const int ppn = config.ranks_per_node;
  const bool both_sockets_populated =
      config.affinity == hw::AffinityPolicy::kBunch ? ppn > cores_per_socket
                                                    : ppn >= 2;
  const bool applicable =
      config.nodes >= 2 && sockets == 2 && both_sockets_populated;
  if (!applicable) return true;  // falls back to DVFS over pairwise
  return topology.translation_group_nodes() > 0 && is_pow2(config.nodes) &&
         is_pow2(ppn);
}

}  // namespace

CollapseDecision decide(const ClusterConfig& config,
                        const CollectiveBenchSpec& spec) {
  if (config.collapse_multiplicity == 1) {
    return full("collapse disabled by config");
  }
  hw::ClusterShape topology;
  topology.nodes = config.nodes;
  topology.fabric = config.fabric;
  topology.dragonfly = config.dragonfly;

  // --- the run itself must be symmetric ----------------------------------
  switch (spec.op) {
    case coll::Op::kAlltoall:
    case coll::Op::kAlltoallv:
    case coll::Op::kBarrier:
      break;  // pairwise / Bruck / dissemination schedules are equivariant
    default:
      return full("op has no rank-equivariant schedule (rooted or unported)");
  }
  switch (spec.scheme) {
    case coll::PowerScheme::kNone:
    case coll::PowerScheme::kFreqScaling:
      break;  // per-call DVFS is a per-rank uniform action
    case coll::PowerScheme::kProposed:
      // Barrier has no §V variant — it runs DVFS-wrapped dissemination.
      if (spec.op != coll::Op::kBarrier &&
          !proposed_is_equivariant(config, topology)) {
        return full(
            "proposed scheme's circle tournament is not "
            "translation-equivariant on flat shapes");
      }
      break;
  }

  // --- the observation must not distinguish group members ----------------
  if (config.obs.trace) {
    return full("tracing records per-rank spans — every rank must exist");
  }
  if (config.governor.enabled) {
    switch (config.governor.kind) {
      case mpi::GovernorKind::kReactive:
        return full(
            "reactive governor state is per-core history, not symmetric");
      case mpi::GovernorKind::kPowerCap:
        return full(
            "power-cap redistribution tracks a per-node wait census — run "
            "1:1");
      case mpi::GovernorKind::kSlack:
        // The slack timer is a deterministic per-core policy driven only by
        // the rank's own wait durations, which are translation-equivariant
        // on an equivariant schedule — representatives behave exactly like
        // their images, so the run collapses.
        break;
    }
  }

  // --- the cluster must have the quotient structure ----------------------
  if (config.nodes_per_rack != 0) {
    return full("legacy rack layer groups nodes asymmetrically at the top");
  }
  if (config.ranks != config.nodes * config.ranks_per_node) {
    return full("partial occupancy breaks node interchangeability");
  }
  if (config.dragonfly.adaptive) {
    // The Valiant intermediate group is a function of absolute group ids,
    // so detour paths differ between a group and its translation image.
    return full(
        "adaptive dragonfly routing picks absolute intermediate groups — "
        "not translation-equivariant; use minimal routing to collapse");
  }
  // On a flat switch every node is its own translation group.
  const int nodes_per_group =
      std::max(1, topology.translation_group_nodes());
  const int groups = config.nodes / nodes_per_group;
  if (groups < 2) {
    return full("single top-level group: no classes to merge");
  }

  CollapseDecision d;
  d.multiplicity = groups;
  d.classes = config.ranks / groups;

  if (config.collapse_multiplicity > 1 &&
      config.collapse_multiplicity != d.multiplicity) {
    return full("configured multiplicity does not match the fabric's top "
                "level");
  }

  // --- faults pin events to named nodes: de-collapse, with blame ---------
  if (config.faults.active()) {
    const int group_nodes = config.nodes / groups;
    CollapseDecision broken = full("fault injection breaks rank symmetry");
    for (int node :
         fault::FaultInjector::straggler_nodes(config.faults, config.nodes)) {
      broken.broken_classes.push_back(node % group_nodes);
    }
    return broken;
  }

  return d;
}

}  // namespace pacc::sym
