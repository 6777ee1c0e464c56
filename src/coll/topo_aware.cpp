#include "coll/topo_aware.hpp"

#include <vector>

#include "coll/copy.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/power_scheme.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

sim::Task<> maybe_unthrottle(mpi::Rank& self) {
  if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
    co_await unthrottle_self(self);
  }
}

int first_of(const std::vector<int>& group) { return group.front(); }

bool contiguous(const std::vector<int>& group) {
  for (std::size_t i = 1; i < group.size(); ++i) {
    if (group[i] != group[i - 1] + 1) return false;
  }
  return true;
}

/// Root-relative routing roles: the root itself acts as the source for its
/// own rack and node, so no fix-up copy of the full buffer is ever needed.
struct Roles {
  mpi::Comm& comm;
  int root;

  int rack_src(int rack) const {
    return rack == comm.rack_of(root) ? root : comm.rack_leader_of(rack);
  }
  int node_src(int node) const {
    return node == comm.node_of(root) ? root : comm.leader_of(node);
  }
};

}  // namespace

bool topo_aware_applicable(const mpi::Comm& comm) {
  const auto& shape = comm.runtime().placement().shape;
  if (!shape.has_racks()) return false;
  if (comm.racks().size() < 2) return false;
  if (!comm.uniform_ppn()) return false;
  for (const int rack : comm.racks()) {
    if (!contiguous(comm.members_on_rack(rack))) return false;
  }
  for (const int node : comm.nodes()) {
    if (!contiguous(comm.members_on_node(node))) return false;
  }
  return true;
}

sim::Task<> scatter_topo_aware(mpi::Rank& self, mpi::Comm& comm,
                               ConstExtent send, Extent recv, Bytes block,
                               int root, const TopoAwareOptions& options) {
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
  if (!topo_aware_applicable(comm)) {
    co_await scatter_binomial(self, comm, send, recv, block, root);
    co_return;
  }

  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const auto blk = static_cast<std::size_t>(block);
  PACC_EXPECTS(recv.size() == blk);
  const int tag = comm.begin_collective(me);
  const bool power = scheme == PowerScheme::kProposed;
  const Roles roles{comm, root};

  const int my_rack = comm.rack_of(me);
  const int my_node = comm.node_of(me);
  const bool i_am_rack_src = roles.rack_src(my_rack) == me;
  const bool i_am_node_src = roles.node_src(my_node) == me;

  // §VIII: only the per-rack sources stay at T0 during the inter-rack
  // phase; everyone else parks at T7 until its data arrives.
  if (power && !i_am_rack_src) {
    co_await throttle_self(self, hw::ThrottleLevel::kMax);
  }

  // Phase A (inter-rack): the root ships each other rack its contiguous
  // block range, crossing every rack uplink exactly once.
  Scratch rack_range(self);
  ConstExtent rack_data;  // this rack's blocks
  if (me == root) {
    PACC_EXPECTS(send.size() == static_cast<std::size_t>(P) * blk);
    for (const int rack : comm.racks()) {
      if (rack == my_rack) continue;
      const auto& members = comm.members_on_rack(rack);
      co_await self.send(
          comm.global_rank(roles.rack_src(rack)), tag,
          send.subspan(static_cast<std::size_t>(first_of(members)) * blk,
                       members.size() * blk));
    }
    const auto& mine = comm.members_on_rack(my_rack);
    rack_data = send.subspan(
        static_cast<std::size_t>(first_of(mine)) * blk, mine.size() * blk);
  } else if (i_am_rack_src) {
    const auto& mine = comm.members_on_rack(my_rack);
    rack_range.resize(mine.size() * blk);
    co_await self.recv(comm.global_rank(root), tag, rack_range);
    rack_data = rack_range;
  }

  // Phase B (intra-rack): the rack source feeds the other node sources of
  // its rack.
  Scratch node_range(self);
  ConstExtent node_data;  // this node's blocks
  if (i_am_rack_src) {
    const auto& mine = comm.members_on_rack(my_rack);
    for (const int node : comm.nodes()) {
      if (comm.runtime().placement().shape.rack_of(node) != my_rack ||
          node == my_node) {
        continue;
      }
      const auto& members = comm.members_on_node(node);
      const auto offset =
          static_cast<std::size_t>(first_of(members) - first_of(mine)) * blk;
      co_await self.send(comm.global_rank(roles.node_src(node)), tag,
                         rack_data.subspan(offset, members.size() * blk));
    }
    const auto& locals = comm.members_on_node(my_node);
    node_data = rack_data.subspan(
        static_cast<std::size_t>(first_of(locals) - first_of(mine)) * blk,
        locals.size() * blk);
  } else if (i_am_node_src) {
    node_range.resize(comm.members_on_node(my_node).size() * blk);
    co_await self.recv(comm.global_rank(roles.rack_src(my_rack)), tag,
                       node_range);
    if (power) co_await maybe_unthrottle(self);
    node_data = node_range;
  }

  // Phase C (intra-node): node sources hand each local rank its block.
  if (i_am_node_src) {
    if (power) co_await maybe_unthrottle(self);
    const auto& locals = comm.members_on_node(my_node);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const int peer = locals[i];
      if (peer == me) {
        copy_bytes(recv, node_data.subspan(i * blk, blk));
      } else {
        co_await self.send(comm.global_rank(peer), tag,
                           node_data.subspan(i * blk, blk));
      }
    }
  } else {
    co_await self.recv(comm.global_rank(roles.node_src(my_node)), tag, recv);
    if (power) co_await maybe_unthrottle(self);
  }
      });
}

sim::Task<> gather_topo_aware(mpi::Rank& self, mpi::Comm& comm,
                              ConstExtent send, Extent recv, Bytes block,
                              int root, const TopoAwareOptions& options) {
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
  if (!topo_aware_applicable(comm)) {
    co_await gather_binomial(self, comm, send, recv, block, root);
    co_return;
  }
  (void)scheme;  // the gather has no throttled phase (§VIII)

  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const auto blk = static_cast<std::size_t>(block);
  PACC_EXPECTS(send.size() == blk);
  const int tag = comm.begin_collective(me);
  const Roles roles{comm, root};

  const int my_rack = comm.rack_of(me);
  const int my_node = comm.node_of(me);
  const bool i_am_rack_dst = roles.rack_src(my_rack) == me;
  const bool i_am_node_dst = roles.node_src(my_node) == me;

  // Phase A (intra-node): locals push their block to the node sink.
  Scratch node_range(self);
  if (i_am_node_dst) {
    const auto& locals = comm.members_on_node(my_node);
    node_range.resize(locals.size() * blk);
    for (std::size_t i = 0; i < locals.size(); ++i) {
      const int peer = locals[i];
      if (peer == me) {
        copy_bytes(node_range.subspan(i * blk, blk), send);
      } else {
        co_await self.recv(comm.global_rank(peer), tag,
                           node_range.subspan(i * blk, blk));
      }
    }
  } else {
    co_await self.send(comm.global_rank(roles.node_src(my_node)), tag, send);
  }

  // Phase B (intra-rack): node sinks push node ranges to the rack sink.
  Scratch rack_range(self);
  if (i_am_rack_dst) {
    const auto& mine = comm.members_on_rack(my_rack);
    rack_range.resize(mine.size() * blk);
    {
      const auto& locals = comm.members_on_node(my_node);
      const auto offset =
          static_cast<std::size_t>(first_of(locals) - first_of(mine)) * blk;
      copy_bytes(rack_range.subspan(offset, node_range.size()), node_range);
    }
    for (const int node : comm.nodes()) {
      if (comm.runtime().placement().shape.rack_of(node) != my_rack ||
          node == my_node) {
        continue;
      }
      const auto& members = comm.members_on_node(node);
      const auto offset =
          static_cast<std::size_t>(first_of(members) - first_of(mine)) * blk;
      co_await self.recv(comm.global_rank(roles.node_src(node)), tag,
                         rack_range.subspan(offset, members.size() * blk));
    }
  } else if (i_am_node_dst) {
    co_await self.send(comm.global_rank(roles.rack_src(my_rack)), tag,
                       node_range);
  }

  // Phase C (inter-rack): rack sinks push rack ranges to the root, which
  // assembles the final buffer in place.
  if (me == root) {
    PACC_EXPECTS(recv.size() == static_cast<std::size_t>(P) * blk);
    {
      const auto& mine = comm.members_on_rack(my_rack);
      copy_bytes(
          recv.subspan(static_cast<std::size_t>(first_of(mine)) * blk,
                       rack_range.size()),
          rack_range);
    }
    for (const int rack : comm.racks()) {
      if (rack == my_rack) continue;
      const auto& members = comm.members_on_rack(rack);
      co_await self.recv(
          comm.global_rank(roles.rack_src(rack)), tag,
          recv.subspan(static_cast<std::size_t>(first_of(members)) * blk,
                       members.size() * blk));
    }
  } else if (i_am_rack_dst) {
    co_await self.send(comm.global_rank(root), tag, rack_range);
  }
      });
}

}  // namespace pacc::coll
