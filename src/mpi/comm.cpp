#include "mpi/comm.hpp"

#include <algorithm>
#include <bit>

#include "mpi/message.hpp"
#include "mpi/runtime.hpp"
#include "util/expect.hpp"

namespace pacc::mpi {

Comm::Comm(Runtime& rt, int context_id, std::vector<int> global_ranks)
    : rt_(rt), context_id_(context_id), members_(std::move(global_ranks)) {
  PACC_EXPECTS_MSG(!members_.empty(), "communicator cannot be empty");
  PACC_EXPECTS_MSG(context_id >= 0 && context_id < kMaxContexts,
                   "too many communicators");
  inverse_.reserve(members_.size());
  const auto& placement = rt_.placement();
  const int sockets = placement.shape.sockets_per_node;

  for (int cr = 0; cr < size(); ++cr) {
    const int g = members_[static_cast<std::size_t>(cr)];
    PACC_EXPECTS(g >= 0 && g < rt_.size());
    PACC_EXPECTS_MSG(!inverse_.contains(g), "duplicate rank in communicator");
    inverse_.emplace(g, cr);
    const int node = placement.node_of(g);
    const int socket = placement.socket_of(g);
    by_node_[node].push_back(cr);
    by_socket_[node * sockets + socket].push_back(cr);
    by_rack_[placement.shape.rack_of(node)].push_back(cr);
  }
  racks_.reserve(by_rack_.size());
  for (const auto& [rack, ranks] : by_rack_) racks_.push_back(rack);
  std::sort(racks_.begin(), racks_.end());
  nodes_.reserve(by_node_.size());
  for (const auto& [node, ranks] : by_node_) nodes_.push_back(node);
  std::sort(nodes_.begin(), nodes_.end());
  for (int i = 0; i < static_cast<int>(nodes_.size()); ++i) {
    node_index_.emplace(nodes_[static_cast<std::size_t>(i)], i);
  }
  const std::size_t first_count =
      by_node_.at(nodes_.front()).size();
  for (const auto& [node, ranks] : by_node_) {
    if (ranks.size() != first_count) uniform_ppn_ = false;
  }
  call_count_.assign(static_cast<std::size_t>(size()), 0);
}

int Comm::global_rank(int comm_rank) const {
  PACC_EXPECTS(comm_rank >= 0 && comm_rank < size());
  return members_[static_cast<std::size_t>(comm_rank)];
}

int Comm::comm_rank_of(int global_rank) const {
  const auto it = inverse_.find(global_rank);
  return it == inverse_.end() ? -1 : it->second;
}

int Comm::node_of(int comm_rank) const {
  return rt_.placement().node_of(global_rank(comm_rank));
}

int Comm::socket_of(int comm_rank) const {
  return rt_.placement().socket_of(global_rank(comm_rank));
}

int Comm::node_index(int node) const {
  const auto it = node_index_.find(node);
  PACC_EXPECTS_MSG(it != node_index_.end(), "node hosts no members");
  return it->second;
}

const std::vector<int>& Comm::members_on_node(int node) const {
  const auto it = by_node_.find(node);
  PACC_EXPECTS_MSG(it != by_node_.end(), "node hosts no members");
  return it->second;
}

const std::vector<int>& Comm::socket_group(int node, int socket) const {
  static const std::vector<int> kEmpty;
  const int sockets = rt_.placement().shape.sockets_per_node;
  PACC_EXPECTS(socket >= 0 && socket < sockets);
  const auto it = by_socket_.find(node * sockets + socket);
  return it == by_socket_.end() ? kEmpty : it->second;
}

int Comm::leader_of(int node) const { return members_on_node(node).front(); }

bool Comm::is_leader(int comm_rank) const {
  return leader_of(node_of(comm_rank)) == comm_rank;
}

int Comm::rack_of(int comm_rank) const {
  return rt_.placement().shape.rack_of(node_of(comm_rank));
}

const std::vector<int>& Comm::members_on_rack(int rack) const {
  const auto it = by_rack_.find(rack);
  PACC_EXPECTS_MSG(it != by_rack_.end(), "rack hosts no members");
  return it->second;
}

int Comm::rack_leader_of(int rack) const {
  return members_on_rack(rack).front();
}

bool Comm::is_rack_leader(int comm_rank) const {
  return rack_leader_of(rack_of(comm_rank)) == comm_rank;
}

Comm& Comm::rack_leader_comm() {
  if (rack_leader_comm_ == nullptr) {
    std::vector<int> leaders;
    leaders.reserve(racks_.size());
    for (const int rack : racks_) {
      leaders.push_back(global_rank(rack_leader_of(rack)));
    }
    rack_leader_comm_ = &rt_.create_comm(std::move(leaders));
  }
  return *rack_leader_comm_;
}

int Comm::ranks_per_node() const {
  PACC_EXPECTS_MSG(uniform_ppn_, "non-uniform ranks per node");
  return static_cast<int>(members_on_node(nodes_.front()).size());
}

Comm& Comm::leader_comm() {
  if (leader_comm_ == nullptr) {
    std::vector<int> leaders;
    leaders.reserve(nodes_.size());
    for (int node : nodes_) {
      leaders.push_back(global_rank(leader_of(node)));
    }
    leader_comm_ = &rt_.create_comm(std::move(leaders));
  }
  return *leader_comm_;
}

Comm& Comm::node_comm(int node) {
  if (auto it = node_comms_.find(node); it != node_comms_.end()) {
    return *it->second;
  }
  std::vector<int> globals;
  for (int cr : members_on_node(node)) globals.push_back(global_rank(cr));
  Comm& created = rt_.create_comm(std::move(globals));
  node_comms_.emplace(node, &created);
  return created;
}

sim::Barrier& Comm::node_barrier(int node) {
  if (auto it = barriers_.find(node); it != barriers_.end()) {
    return *it->second;
  }
  auto barrier = std::make_unique<sim::Barrier>(
      rt_.engine(), members_on_node(node).size());
  auto [it, inserted] = barriers_.emplace(node, std::move(barrier));
  PACC_ASSERT(inserted);
  return *it->second;
}

std::uint64_t Comm::structure_fingerprint() const {
  if (fingerprint_ != 0) return fingerprint_;
  // FNV-1a over the schedule-relevant structure. Membership order matters
  // (comm ranks are positional), so the fold is order-sensitive.
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  const auto& placement = rt_.placement();
  mix(static_cast<std::uint64_t>(context_id_));
  mix(static_cast<std::uint64_t>(placement.shape.nodes));
  mix(static_cast<std::uint64_t>(placement.shape.sockets_per_node));
  mix(static_cast<std::uint64_t>(placement.shape.cores_per_socket));
  mix(static_cast<std::uint64_t>(placement.shape.nodes_per_rack));
  // Fabric shape and oversubscription: two fabrics sharing a rank count
  // must never alias — plan-cache entries and symmetry-collapse classes
  // are both keyed off this fingerprint.
  mix(static_cast<std::uint64_t>(placement.shape.fabric.size()));
  for (const hw::FabricLevelSpec& level : placement.shape.fabric) {
    mix(static_cast<std::uint64_t>(level.group_size));
    mix(std::bit_cast<std::uint64_t>(level.oversubscription));
    mix(std::bit_cast<std::uint64_t>(level.bandwidth));
  }
  // Dragonfly structure and routing mode; mixed only when enabled (behind
  // a marker) so every pre-dragonfly fingerprint — and the plan-cache /
  // tuned-table baselines keyed on them — is unchanged.
  if (placement.shape.dragonfly.enabled()) {
    const hw::DragonflySpec& df = placement.shape.dragonfly;
    mix(0xd7a60f1eull);  // dragonfly marker
    mix(static_cast<std::uint64_t>(df.routers_per_group));
    mix(static_cast<std::uint64_t>(df.nodes_per_router));
    mix(static_cast<std::uint64_t>(df.adaptive ? 1 : 0));
    mix(std::bit_cast<std::uint64_t>(df.local_bandwidth));
    mix(std::bit_cast<std::uint64_t>(df.global_bandwidth));
  }
  mix(static_cast<std::uint64_t>(members_.size()));
  for (const int g : members_) {
    mix(static_cast<std::uint64_t>(g));
    mix(static_cast<std::uint64_t>(placement.node_of(g)));
    mix(static_cast<std::uint64_t>(placement.socket_of(g)));
  }
  if (h == 0) h = 1;  // 0 is the "not computed" sentinel
  fingerprint_ = h;
  return h;
}

int Comm::begin_collective(int comm_rank) {
  PACC_EXPECTS(comm_rank >= 0 && comm_rank < size());
  const int seq = call_count_[static_cast<std::size_t>(comm_rank)]++;
  PACC_EXPECTS_MSG(seq < kMaxCollectiveCalls,
                   "collective call sequence exhausted on this comm");
  return collective_tag(context_id_, seq);
}

}  // namespace pacc::mpi
