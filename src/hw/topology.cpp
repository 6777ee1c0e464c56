#include "hw/topology.hpp"

namespace pacc::hw {

int ClusterShape::fabric_nodes_per_group(int level) const {
  PACC_EXPECTS(level >= 0 && level < fabric_levels());
  int per_group = 1;
  for (int l = 0; l <= level; ++l) {
    per_group *= fabric[static_cast<std::size_t>(l)].group_size;
  }
  return per_group;
}

double ClusterShape::fabric_link_bandwidth(int level,
                                           double node_link_bandwidth) const {
  const auto& spec = fabric[static_cast<std::size_t>(level)];
  if (spec.bandwidth > 0.0) return spec.bandwidth;
  // Full bisection at this level would carry every child node's HCA
  // bandwidth; the oversubscription ratio thins that out.
  return node_link_bandwidth * fabric_nodes_per_group(level) /
         spec.oversubscription;
}

double ClusterShape::df_local_bandwidth(double node_link_bandwidth) const {
  if (dragonfly.local_bandwidth > 0.0) return dragonfly.local_bandwidth;
  // A router's local links carry its hosted nodes' aggregate HCA bandwidth
  // into the group's all-to-all mesh.
  return node_link_bandwidth * dragonfly.nodes_per_router;
}

double ClusterShape::df_global_bandwidth(double node_link_bandwidth) const {
  if (dragonfly.global_bandwidth > 0.0) return dragonfly.global_bandwidth;
  // The group's global link carries the whole group's aggregate.
  return node_link_bandwidth * df_nodes_per_group();
}

bool ClusterShape::valid() const {
  if (!(nodes >= 1 && sockets_per_node >= 1 && cores_per_socket >= 1 &&
        nodes_per_rack >= 0)) {
    return false;
  }
  if (dragonfly.enabled()) {
    // Dragonfly replaces both the fat-tree fabric and the rack layer.
    if (!fabric.empty() || nodes_per_rack != 0) return false;
    if (dragonfly.routers_per_group < 1 || dragonfly.nodes_per_router < 1 ||
        dragonfly.local_bandwidth < 0.0 || dragonfly.global_bandwidth < 0.0) {
      return false;
    }
    const int per_group = df_nodes_per_group();
    if (per_group > nodes || nodes % per_group != 0) return false;
    return true;
  }
  if (fabric.empty()) return true;
  if (nodes_per_rack != 0) return false;  // fabric replaces the rack layer
  int per_group = 1;
  for (const FabricLevelSpec& level : fabric) {
    if (level.group_size < 2 || level.oversubscription < 1.0 ||
        level.bandwidth < 0.0) {
      return false;
    }
    per_group *= level.group_size;
    if (per_group > nodes || nodes % per_group != 0) return false;
  }
  return true;
}

CoreId core_from_linear(const ClusterShape& shape, int linear) {
  PACC_EXPECTS(linear >= 0 && linear < shape.total_cores());
  CoreId id;
  id.node = linear / shape.cores_per_node();
  const int within = linear % shape.cores_per_node();
  id.socket = within / shape.cores_per_socket;
  id.core_in_socket = within % shape.cores_per_socket;
  return id;
}

int os_core_number(const ClusterShape& shape, const CoreId& id) {
  // Fig 5: socket A owns even OS core ids, socket B odd ones.
  return id.core_in_socket * shape.sockets_per_node + id.socket;
}

std::string to_string(AffinityPolicy p) {
  switch (p) {
    case AffinityPolicy::kBunch:
      return "bunch";
    case AffinityPolicy::kScatter:
      return "scatter";
  }
  return "?";
}

RankPlacement place_ranks(const ClusterShape& shape, int ranks,
                          int ranks_per_node, AffinityPolicy policy) {
  PACC_EXPECTS(shape.valid());
  PACC_EXPECTS(ranks >= 1 && ranks_per_node >= 1);
  PACC_EXPECTS_MSG(ranks % ranks_per_node == 0,
                   "ranks must be a multiple of ranks_per_node");
  PACC_EXPECTS_MSG(ranks / ranks_per_node <= shape.nodes,
                   "not enough nodes for this placement");
  PACC_EXPECTS_MSG(ranks_per_node <= shape.cores_per_node(),
                   "not enough cores per node");

  RankPlacement placement;
  placement.shape = shape;
  placement.ranks_per_node = ranks_per_node;
  placement.policy = policy;
  placement.rank_to_core.reserve(static_cast<std::size_t>(ranks));

  for (int rank = 0; rank < ranks; ++rank) {
    const int node = rank / ranks_per_node;
    const int local = rank % ranks_per_node;
    CoreId id;
    id.node = node;
    switch (policy) {
      case AffinityPolicy::kBunch: {
        // Fill socket A first (local ranks 0..cores_per_socket-1), then B.
        id.socket = local / shape.cores_per_socket;
        id.core_in_socket = local % shape.cores_per_socket;
        break;
      }
      case AffinityPolicy::kScatter: {
        id.socket = local % shape.sockets_per_node;
        id.core_in_socket = local / shape.sockets_per_node;
        break;
      }
    }
    PACC_ASSERT(id.socket < shape.sockets_per_node);
    PACC_ASSERT(id.core_in_socket < shape.cores_per_socket);
    placement.rank_to_core.push_back(id);
  }
  return placement;
}

}  // namespace pacc::hw
