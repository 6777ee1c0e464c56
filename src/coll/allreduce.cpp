#include "coll/allreduce.hpp"

#include "coll/allgather.hpp"
#include "coll/bcast.hpp"
#include "coll/copy.hpp"
#include "coll/power_scheme.hpp"
#include "coll/reduce.hpp"
#include "coll/reduce_scatter.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

sim::Task<> allreduce_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                         ConstExtent send, Extent recv,
                                         ReduceOp op) {
  PACC_EXPECTS(send.size() == recv.size());
  PACC_EXPECTS(send.size() % sizeof(double) == 0);
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);

  copy_bytes(recv, send);
  if (P == 1) co_return;

  if (is_pow2(P)) {
    Scratch incoming(self, send.size());
    for (int mask = 1; mask < P; mask <<= 1) {
      const int partner = me ^ mask;
      co_await self.sendrecv(comm.global_rank(partner), tag, recv,
                             comm.global_rank(partner), tag, incoming);
      reduce_bytes(op, recv, incoming);
    }
    co_return;
  }
  // Non-power-of-two: binomial reduce to comm rank 0, then binomial bcast.
  co_await reduce_binomial(self, comm, send, recv, op, 0);
  co_await bcast_binomial(self, comm, recv, 0);
}

sim::Task<> allreduce_rabenseifner(mpi::Rank& self, mpi::Comm& comm,
                                   ConstExtent send, Extent recv, ReduceOp op) {
  PACC_EXPECTS(send.size() == recv.size());
  const int P = comm.size();
  PACC_EXPECTS_MSG(is_pow2(P), "Rabenseifner needs a power-of-two comm");
  const auto blk_bytes = send.size() / static_cast<std::size_t>(P);
  PACC_EXPECTS_MSG(send.size() % static_cast<std::size_t>(P) == 0 &&
                       blk_bytes % sizeof(double) == 0,
                   "buffer must split into P double-aligned blocks");
  if (P == 1) {
    copy_bytes(recv, send);
    co_return;
  }
  const auto block = static_cast<Bytes>(blk_bytes);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);

  Scratch my_block(self, blk_bytes);
  co_await reduce_scatter_halving(self, comm, send, my_block, block, op);
  co_await allgather_recursive_doubling(self, comm, my_block, recv, block);
}

sim::Task<> allreduce_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                          Extent recv, const AllreduceOptions& options) {
  PACC_EXPECTS(send.size() == recv.size());
  PACC_EXPECTS(send.size() % sizeof(double) == 0);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int my_node = comm.node_of(me);
  const bool leader = comm.is_leader(me);
  const bool power = options.scheme == PowerScheme::kProposed;

  // Stage 1: intra-node reduction to the node leader.
  mpi::Comm& node = comm.node_comm(my_node);
  Scratch node_result(self, leader ? send.size() : 0);
  co_await reduce_binomial(self, node, send, node_result, options.op, 0);

  // Stage 2: leaders allreduce; everyone else throttles (§V-B).
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
    if (power && !self.machine().params().core_level_throttling) {
      co_await throttle_self(self, 4);
    }
    co_await allreduce_recursive_doubling(self, leaders, node_result, recv,
                                          options.op);
  }

  // End of the inter-leader operation: node rendezvous, then everyone
  // returns to T0 before the intra-node fan-out (§V-B).
  if (power) {
    co_await comm.node_barrier(my_node).arrive_and_wait();
    if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
      co_await unthrottle_self(self);
    }
  }

  // Stage 3: leader broadcasts the result within the node (shared memory).
  co_await bcast_intra_node(self, node, recv, 0);
}

sim::Task<> allreduce(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      Extent recv, const AllreduceOptions& options) {
  ProfileScope prof(self, "allreduce", static_cast<Bytes>(send.size()));
  const bool two_level = comm.nodes().size() >= 2 && comm.uniform_ppn() &&
                         comm.ranks_per_node() >= 2;
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        AllreduceOptions opts = options;
        opts.scheme = scheme;
        if (two_level) {
          co_await allreduce_smp(self, comm, send, recv, opts);
          co_return;
        }
        const int P = comm.size();
        const bool rabenseifner_fits =
            is_pow2(P) &&
            static_cast<Bytes>(send.size()) >=
                options.rabenseifner_threshold &&
            send.size() % (static_cast<std::size_t>(P) * sizeof(double)) == 0;
        if (rabenseifner_fits) {
          co_await allreduce_rabenseifner(self, comm, send, recv, options.op);
        } else {
          co_await allreduce_recursive_doubling(self, comm, send, recv,
                                                options.op);
        }
      });
}

}  // namespace pacc::coll
