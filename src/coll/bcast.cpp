#include "coll/bcast.hpp"

#include <vector>

#include "coll/allgather.hpp"
#include "coll/copy.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/plan.hpp"
#include "coll/power_scheme.hpp"
#include "coll/tuner.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

sim::Task<> maybe_unthrottle(mpi::Rank& self) {
  if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
    co_await unthrottle_self(self);
  }
}

/// Inter-leader stage of the two-level broadcast.
sim::Task<> inter_leader_bcast(mpi::Rank& self, mpi::Comm& leaders, Extent buf,
                               int leader_root, const BcastOptions& options) {
  if (leaders.size() == 1) co_return;
  if (static_cast<Bytes>(buf.size()) >= options.scatter_allgather_threshold &&
      leaders.size() >= 2) {
    co_await bcast_scatter_allgather(self, leaders, buf, leader_root);
  } else {
    co_await bcast_binomial(self, leaders, buf, leader_root);
  }
}

}  // namespace

sim::Task<> bcast_binomial(mpi::Rank& self, mpi::Comm& comm, Extent buf,
                           int root, bool unthrottle_on_receive) {
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const int tag = comm.begin_collective(me);
  const PlanPtr plan = get_plan(comm, PlanKind::kBcastBinomial,
                                static_cast<Bytes>(buf.size()), root);

  // Receive from the parent (the rank that differs in my lowest set bit).
  // Rooted trees never compress, so the view is a plain rank index here.
  const PlanView view(*plan, me, P);
  const int parent = plan->parent[view.row()];
  if (parent >= 0) {
    co_await self.recv(comm.global_rank(view.peer(parent)), tag, buf);
    if (unthrottle_on_receive) co_await maybe_unthrottle(self);
  } else if (unthrottle_on_receive) {
    co_await maybe_unthrottle(self);
  }

  // Forward to children.
  for (const int child : plan->children[view.row()]) {
    co_await self.send(comm.global_rank(view.peer(child)), tag, buf);
  }
}

sim::Task<> bcast_scatter_allgather(mpi::Rank& self, mpi::Comm& comm,
                                    Extent buf, int root) {
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  if (P == 1) co_return;

  const auto total = buf.size();
  const auto chunk = (total + static_cast<std::size_t>(P) - 1) /
                     static_cast<std::size_t>(P);
  PACC_EXPECTS(chunk > 0);
  const auto padded_size = chunk * static_cast<std::size_t>(P);

  // Scatter equal chunks from a padded copy, then ring-allgather them.
  Scratch padded(self, padded_size);
  if (me == root) copy_bytes(padded.first(total), buf);
  Scratch my_chunk(self, chunk);
  co_await scatter_binomial(
      self, comm, me == root ? ConstExtent(padded) : ConstExtent{}, my_chunk,
      static_cast<Bytes>(chunk), root);
  co_await allgather_ring(self, comm, my_chunk, padded,
                          static_cast<Bytes>(chunk));
  copy_bytes(buf, padded.first(total));
}

sim::Task<> bcast_intra_node(mpi::Rank& self, mpi::Comm& node_comm, Extent buf,
                             int root) {
  if (node_comm.size() <= 1) co_return;
  PACC_EXPECTS_MSG(node_comm.nodes().size() == 1,
                   "bcast_intra_node needs a single-node communicator");
  if (self.runtime().params().mode == mpi::ProgressMode::kBlocking) {
    co_await bcast_binomial(self, node_comm, buf, root);
    co_return;
  }
  const int me = node_comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = node_comm.begin_collective(me);
  if (me == root) {
    std::vector<int> readers;
    readers.reserve(static_cast<std::size_t>(node_comm.size() - 1));
    for (int r = 0; r < node_comm.size(); ++r) {
      if (r != root) readers.push_back(node_comm.global_rank(r));
    }
    co_await self.shm_publish(tag, buf, readers);
  } else {
    co_await self.shm_read(node_comm.global_rank(root), tag, buf);
  }
}

sim::Task<> bcast_smp(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                      const BcastOptions& options) {
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < comm.size());
  const int tag = comm.begin_collective(me);
  const int root_node = comm.node_of(root);
  const int root_leader = comm.leader_of(root_node);
  const bool power = options.scheme == PowerScheme::kProposed;
  const bool leader = comm.is_leader(me);

  // Fix-up: the root hands its buffer to its node leader if necessary.
  if (root != root_leader) {
    CollPhase phase(self, "bcast.fixup");
    if (me == root) {
      co_await self.send(comm.global_rank(root_leader), tag, buf);
    } else if (me == root_leader) {
      co_await self.recv(comm.global_rank(root), tag, buf);
    }
  }

  {
    CollPhase phase(self, "bcast.inter_leader");
    // Network phase: only leaders move data; everyone else throttles (§V-B).
    if (power) {
      if (leader) {
        // Socket-granular hardware forces the leader's socket to a partial
        // T4; with core-granular throttling the leader stays at T0 (§V-B
        // "future architectures").
        if (!self.machine().params().core_level_throttling) {
          co_await throttle_self(self, 4);
        }
      } else {
        const int leader_socket =
            comm.socket_of(comm.leader_of(comm.node_of(me)));
        const bool core_level =
            self.machine().params().core_level_throttling;
        // With core-granular throttling every non-leader can go to T7; on
        // socket-granular hardware the leader's socket-mates share its T4.
        const int level = (!core_level && self.socket() == leader_socket)
                              ? 4
                              : hw::ThrottleLevel::kMax;
        co_await throttle_self(self, level);
      }
    }

    if (leader) {
      mpi::Comm& leaders = comm.leader_comm();
      const int leader_root =
          leaders.comm_rank_of(comm.global_rank(root_leader));
      PACC_ASSERT(leader_root >= 0);
      co_await inter_leader_bcast(self, leaders, buf, leader_root, options);
    }

    // End of the inter-leader operation: everyone throttles back up (§V-B
    // "throttled down at the start of the inter-leader operation and
    // throttled up at the end of it"), synchronised by a node rendezvous.
    if (power) {
      co_await comm.node_barrier(comm.node_of(me)).arrive_and_wait();
      co_await maybe_unthrottle(self);
    }
  }

  // Intra-node phase over shared memory, at full throttle (fmin).
  {
    CollPhase phase(self, "bcast.intra_node");
    mpi::Comm& node = comm.node_comm(comm.node_of(me));
    co_await bcast_intra_node(self, node, buf, 0);
  }
}

sim::Task<> bcast(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                  const BcastOptions& options) {
  ProfileScope prof(self, "bcast", static_cast<Bytes>(buf.size()));
  const bool two_level = comm.nodes().size() >= 2;
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        // Tuned dispatch: when a tuner is attached and holds a decision
        // for this exact cell, run the winning variant's inner body (the
        // scheme is already negotiated). No tuner, no decision, or a
        // decision naming the default → the static choices below.
        if (const TunedDispatch tuned =
                tuned_choice(comm, Op::kBcast, scheme,
                             static_cast<Bytes>(buf.size()));
            tuned.desc != nullptr) {
          AlgoCall call;
          call.send = buf;
          call.root = root;
          call.scheme = scheme;
          call.seg = tuned.seg;
          co_await tuned.desc->exec_inner(self, comm, call);
          co_return;
        }
        BcastOptions opts = options;
        opts.scheme = scheme;
        if (two_level) {
          co_await bcast_smp(self, comm, buf, root, opts);
        } else if (static_cast<Bytes>(buf.size()) >=
                       options.scatter_allgather_threshold &&
                   comm.size() >= 2) {
          co_await bcast_scatter_allgather(self, comm, buf, root);
        } else {
          co_await bcast_binomial(self, comm, buf, root);
        }
      });
}

}  // namespace pacc::coll
