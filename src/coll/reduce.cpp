#include "coll/reduce.hpp"

#include "coll/copy.hpp"
#include "coll/power_scheme.hpp"
#include "coll/tuner.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

void check(ConstExtent send) {
  PACC_EXPECTS_MSG(send.size() % sizeof(double) == 0,
                   "reductions operate on double elements");
}

}  // namespace

sim::Task<> reduce_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, ReduceOp op, int root) {
  check(send);
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const int tag = comm.begin_collective(me);
  const int vr = (me - root + P) % P;

  Scratch accum(self, send);
  Scratch incoming(self, send.size());

  int mask = 1;
  while (mask < P) {
    if ((vr & mask) == 0) {
      const int child_vr = vr + mask;
      if (child_vr < P) {
        co_await self.recv(comm.global_rank((child_vr + root) % P), tag,
                           incoming);
        reduce_bytes(op, accum, incoming);
      }
    } else {
      const int parent = ((vr - mask) + root) % P;
      co_await self.send(comm.global_rank(parent), tag, accum);
      break;
    }
    mask <<= 1;
  }

  if (me == root) {
    PACC_EXPECTS(recv.size() == send.size());
    copy_bytes(recv, accum);
  }
}

sim::Task<> reduce_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                       Extent recv, const ReduceOptions& options, int root) {
  check(send);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const int my_node = comm.node_of(me);
  const bool leader = comm.is_leader(me);
  const bool power = options.scheme == PowerScheme::kProposed;
  const int root_node = comm.node_of(root);
  const int root_leader = comm.leader_of(root_node);

  // Stage 1: intra-node reduction to the node leader.
  mpi::Comm& node = comm.node_comm(my_node);
  Scratch node_result(self, leader ? send.size() : 0);
  co_await reduce_binomial(self, node, send, node_result, options.op, 0);

  // Stage 2: inter-leader reduction; non-leaders throttle meanwhile (§V-B).
  if (power && !leader) {
    const int leader_socket = comm.socket_of(comm.leader_of(my_node));
    const bool core_level = self.machine().params().core_level_throttling;
    const int level = (!core_level && self.socket() == leader_socket)
                          ? 4
                          : hw::ThrottleLevel::kMax;
    co_await throttle_self(self, level);
  }
  if (leader) {
    mpi::Comm& leaders = comm.leader_comm();
    const int leader_root = leaders.comm_rank_of(comm.global_rank(root_leader));
    PACC_ASSERT(leader_root >= 0);
    if (power && !self.machine().params().core_level_throttling) {
      co_await throttle_self(self, 4);
    }
    Scratch leader_result(self, me == root_leader ? send.size() : 0);
    co_await reduce_binomial(self, leaders, node_result, leader_result,
                             options.op, leader_root);
    if (power) {
      if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
        co_await unthrottle_self(self);
      }
    }
    if (me == root_leader) {
      node_result = std::move(leader_result);
    }
  }

  // The network phase is over: everyone returns to T0 after the node-local
  // rendezvous (non-leaders cannot observe the leaders' completion earlier).
  if (power) {
    co_await comm.node_barrier(my_node).arrive_and_wait();
    if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
      co_await unthrottle_self(self);
    }
  }

  // Stage 3: fix-up hop from the root's node leader to the root.
  if (root != root_leader) {
    if (me == root_leader) {
      co_await self.send(comm.global_rank(root), tag, node_result);
    } else if (me == root) {
      PACC_EXPECTS(recv.size() == send.size());
      co_await self.recv(comm.global_rank(root_leader), tag, recv);
    }
  } else if (me == root) {
    PACC_EXPECTS(recv.size() == send.size());
    copy_bytes(recv, node_result);
  }
}

sim::Task<> reduce(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                   Extent recv, int root, const ReduceOptions& options) {
  ProfileScope prof(self, "reduce", static_cast<Bytes>(send.size()));
  const bool two_level = comm.nodes().size() >= 2;
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        // Tuned dispatch — see bcast(): a tuner decision for this exact
        // cell overrides the static choices below.
        if (const TunedDispatch tuned =
                tuned_choice(comm, Op::kReduce, scheme,
                             static_cast<Bytes>(send.size()));
            tuned.desc != nullptr) {
          AlgoCall call;
          call.recv = recv;
          call.root = root;
          call.scheme = scheme;
          call.reduce_op = options.op;
          call.seg = tuned.seg;
          // AlgoCall carries one mutable send extent because bcast uses
          // it in/out; reduce executors only read it, so shedding the
          // const here cannot write through.
          call.send =
              send.has_bytes()
                  ? Extent(std::span<std::byte>(
                        const_cast<std::byte*>(send.data()), send.size()))
                  : Extent::sized(send.size());
          co_await tuned.desc->exec_inner(self, comm, call);
          co_return;
        }
        ReduceOptions opts = options;
        opts.scheme = scheme;
        if (two_level) {
          co_await reduce_smp(self, comm, send, recv, opts, root);
        } else {
          co_await reduce_binomial(self, comm, send, recv, options.op, root);
        }
      });
}

}  // namespace pacc::coll
