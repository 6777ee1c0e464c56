// Cluster topology: nodes × sockets × cores, plus rank→core affinity.
//
// Mirrors the paper's testbed (Fig 5): Intel "Nehalem" nodes with two
// sockets of four cores; OS core ids 0 2 4 6 live on socket A and 1 3 5 7 on
// socket B. MVAPICH2's default "bunch" mapping binds local ranks 0..3 to
// socket A and 4..7 to socket B; "scatter" alternates sockets (Section V-C
// discusses why the power-aware algorithms depend on this mapping).
#pragma once

#include <string>
#include <vector>

#include "util/expect.hpp"

namespace pacc::hw {

/// One level of a fat-tree fabric, described bottom-up. Level 0 groups
/// `group_size` *nodes* behind a shared pair of aggregation up/downlinks;
/// level 1 groups `group_size` level-0 groups, and so on. The top level's
/// groups hang off a non-blocking core crossbar (so the trivial
/// single-level case with one group is today's flat switch).
///
/// The aggregation links of a level-ℓ group carry the traffic of
/// `children(ℓ)` child units; at `oversubscription` 1.0 the uplink is
/// provisioned with the full sum of the child bandwidths, at 2.0 with half
/// of it, and so on. `bandwidth` (bytes/sec), when non-zero, overrides the
/// derived value outright.
struct FabricLevelSpec {
  int group_size = 2;            ///< child units per group at this level
  double oversubscription = 1.0; ///< >= 1.0; 1.0 = non-blocking
  double bandwidth = 0.0;        ///< explicit per-direction link bw, 0 = derive

  friend bool operator==(const FabricLevelSpec&,
                         const FabricLevelSpec&) = default;
};

/// Dragonfly interconnect: groups of routers wired all-to-all locally,
/// with every group holding one global link to the (logically all-to-all)
/// inter-group optical plane. Each router hosts `nodes_per_router` nodes;
/// a group spans `routers_per_group` routers; the group count is derived
/// as nodes / (routers_per_group * nodes_per_router).
///
/// Routing is `minimal` by default — node HCA, source router, source
/// group's global link, destination group's global link, destination
/// router, destination HCA — or `adaptive`, which detours cross-group
/// traffic through a deterministic Valiant intermediate group to spread
/// load over the global plane. Adaptive paths depend on absolute group
/// ids, so they break group-translation symmetry and refuse the
/// rank-symmetry collapse (sym::decide reports why).
struct DragonflySpec {
  int routers_per_group = 0;  ///< routers per group; 0 disables dragonfly
  int nodes_per_router = 1;
  bool adaptive = false;      ///< Valiant-style non-minimal routing
  /// Per-direction link bandwidth overrides (bytes/sec); 0 derives from
  /// the node HCA bandwidth: local router links carry their router's
  /// aggregate, global links the whole group's.
  double local_bandwidth = 0.0;
  double global_bandwidth = 0.0;

  bool enabled() const { return routers_per_group > 0; }

  friend bool operator==(const DragonflySpec&,
                         const DragonflySpec&) = default;
};

struct ClusterShape {
  int nodes = 8;
  int sockets_per_node = 2;
  int cores_per_socket = 4;

  /// Rack structure for the topology-aware extension (§VIII of the paper):
  /// 0 means "no rack layer" (every node in one rack, no aggregation
  /// switches). Nodes are grouped consecutively.
  int nodes_per_rack = 0;

  /// Multi-level fat-tree fabric, bottom-up (see FabricLevelSpec). Empty
  /// means the legacy shape: one non-blocking switch, plus the optional
  /// `nodes_per_rack` aggregation layer above it. Non-empty replaces the
  /// rack layer entirely (`nodes_per_rack` must then be 0); nodes are
  /// grouped consecutively at every level, and the product of the level
  /// group sizes must divide `nodes` evenly.
  std::vector<FabricLevelSpec> fabric{};

  /// Dragonfly interconnect (see DragonflySpec). Mutually exclusive with
  /// both the fat-tree `fabric` and the rack layer; nodes are assigned to
  /// routers (and routers to groups) consecutively, and
  /// routers_per_group * nodes_per_router must divide `nodes` evenly.
  DragonflySpec dragonfly{};

  // These three fields are input only: net::FlowNetwork turns whichever is
  // set into one table of switch levels (see net::Level), and every
  // routing, bandwidth and fault-unit question is asked of that table.

  int cores_per_node() const { return sockets_per_node * cores_per_socket; }
  int total_cores() const { return nodes * cores_per_node(); }
  int sockets_total() const { return nodes * sockets_per_node; }

  bool has_racks() const { return nodes_per_rack > 0; }
  int racks() const {
    return has_racks() ? (nodes + nodes_per_rack - 1) / nodes_per_rack : 1;
  }
  int rack_of(int node) const {
    return has_racks() ? node / nodes_per_rack : 0;
  }

  /// Nodes per top-level translation group: one outermost fat-tree group
  /// or one dragonfly group. Such groups are interchangeable, so the
  /// rank-symmetry collapse quotients by them and the XOR §V schedule pairs
  /// them. 0 on a flat switch and on the rack layer, which have no such
  /// groups.
  int translation_group_nodes() const;

  bool valid() const;
};

/// Physical location of one core.
struct CoreId {
  int node = 0;
  int socket = 0;         ///< socket index within the node (0 = "A", 1 = "B")
  int core_in_socket = 0;

  friend bool operator==(const CoreId&, const CoreId&) = default;
};

/// Flat index of a core in [0, shape.total_cores()). Inline: the machine
/// model looks a core up several times per simulated message.
inline int linear_core(const ClusterShape& shape, const CoreId& id) {
  PACC_EXPECTS(id.node >= 0 && id.node < shape.nodes);
  PACC_EXPECTS(id.socket >= 0 && id.socket < shape.sockets_per_node);
  PACC_EXPECTS(id.core_in_socket >= 0 &&
               id.core_in_socket < shape.cores_per_socket);
  return id.node * shape.cores_per_node() +
         id.socket * shape.cores_per_socket + id.core_in_socket;
}

/// Inverse of linear_core.
CoreId core_from_linear(const ClusterShape& shape, int linear);

/// OS-visible core number inside a node, matching Fig 5 (socket A gets the
/// even numbers, socket B the odd ones).
int os_core_number(const ClusterShape& shape, const CoreId& id);

/// How MPI ranks are pinned to cores inside each node.
enum class AffinityPolicy {
  kBunch,    ///< MVAPICH2 default: fill socket A, then socket B
  kScatter,  ///< round-robin across sockets
};

std::string to_string(AffinityPolicy p);

/// Placement of `ranks` MPI processes onto the cluster. Ranks are
/// block-distributed across nodes (ranks 0..ppn-1 on node 0, etc.), then
/// pinned within the node according to the affinity policy.
struct RankPlacement {
  ClusterShape shape;
  int ranks_per_node = 0;
  AffinityPolicy policy = AffinityPolicy::kBunch;
  std::vector<CoreId> rank_to_core;  ///< indexed by global rank

  int ranks() const { return static_cast<int>(rank_to_core.size()); }
  const CoreId& core_of(int rank) const {
    PACC_EXPECTS(rank >= 0 && rank < ranks());
    return rank_to_core[static_cast<std::size_t>(rank)];
  }
  int node_of(int rank) const { return core_of(rank).node; }
  int socket_of(int rank) const { return core_of(rank).socket; }
};

/// Builds a placement of `ranks` processes with `ranks_per_node` per node.
/// Requires ranks % ranks_per_node == 0 and enough nodes/cores.
RankPlacement place_ranks(const ClusterShape& shape, int ranks,
                          int ranks_per_node, AffinityPolicy policy);

}  // namespace pacc::hw
