#include "coll/allgather.hpp"

#include <vector>

#include "coll/bcast.hpp"
#include "coll/copy.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/power_scheme.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

void check(const mpi::Comm& comm, ConstExtent send, Extent recv, Bytes block) {
  PACC_EXPECTS(block >= 0);
  PACC_EXPECTS(send.size() == static_cast<std::size_t>(block));
  PACC_EXPECTS(recv.size() == static_cast<std::size_t>(comm.size()) *
                                  static_cast<std::size_t>(block));
}

}  // namespace

sim::Task<> allgather_ring(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block) {
  check(comm, send, recv, block);
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto blk = static_cast<std::size_t>(block);

  copy_bytes(recv.subspan(static_cast<std::size_t>(me) * blk, blk), send);
  const int right = (me + 1) % P;
  const int left = (me - 1 + P) % P;
  for (int step = 0; step < P - 1; ++step) {
    const int send_block = (me - step + P) % P;
    const int recv_block = (me - step - 1 + P) % P;
    co_await self.send(
        comm.global_rank(right), tag,
        recv.subspan(static_cast<std::size_t>(send_block) * blk, blk));
    co_await self.recv(comm.global_rank(left), tag,
                       recv.subspan(static_cast<std::size_t>(recv_block) * blk,
                                    blk));
  }
}

sim::Task<> allgather_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                         ConstExtent send, Extent recv,
                                         Bytes block) {
  check(comm, send, recv, block);
  const int P = comm.size();
  PACC_EXPECTS_MSG(is_pow2(P), "recursive doubling needs a power-of-two comm");
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto blk = static_cast<std::size_t>(block);

  copy_bytes(recv.subspan(static_cast<std::size_t>(me) * blk, blk), send);
  // After round k this rank owns the 2^(k+1)-aligned window containing it.
  for (int mask = 1; mask < P; mask <<= 1) {
    const int partner = me ^ mask;
    const int my_base = me & ~(mask - 1);
    const int partner_base = partner & ~(mask - 1);
    co_await self.sendrecv(
        comm.global_rank(partner), tag,
        recv.subspan(static_cast<std::size_t>(my_base) * blk,
                     static_cast<std::size_t>(mask) * blk),
        comm.global_rank(partner), tag,
        recv.subspan(static_cast<std::size_t>(partner_base) * blk,
                     static_cast<std::size_t>(mask) * blk));
  }
}

sim::Task<> allgather_smp(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                          Extent recv, Bytes block,
                          const AllgatherOptions& options) {
  check(comm, send, recv, block);
  PACC_EXPECTS_MSG(comm.uniform_ppn(), "two-level allgather needs uniform ppn");
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int my_node = comm.node_of(me);
  const int c = comm.ranks_per_node();
  const auto blk = static_cast<std::size_t>(block);
  const bool leader = comm.is_leader(me);
  const bool power = options.scheme == PowerScheme::kProposed;

  mpi::Comm& node_comm = comm.node_comm(my_node);
  const int node_root = 0;  // lowest comm rank on the node == leader

  // Stage 1: intra-node gather of c blocks to the leader.
  Scratch node_blocks(self);
  {
    CollPhase phase(self, "allgather.gather");
    if (leader) node_blocks.resize(static_cast<std::size_t>(c) * blk);
    co_await gather_binomial(self, node_comm, send, node_blocks, block,
                             node_root);
  }

  // Stage 2: leaders exchange node aggregates; non-leaders throttle (§V-B).
  Scratch gathered(self);
  {
    CollPhase phase(self, "allgather.inter_leader");
    const bool core_level = self.machine().params().core_level_throttling;
    if (power && !leader) {
      const int level =
          (!core_level &&
           self.socket() == comm.socket_of(comm.leader_of(my_node)))
              ? 4
              : hw::ThrottleLevel::kMax;
      co_await throttle_self(self, level);
    }
    if (leader) {
      mpi::Comm& leaders = comm.leader_comm();
      if (power && !core_level) co_await throttle_self(self, 4);
      gathered.resize(recv.size());
      co_await allgather_ring(self, leaders, node_blocks, gathered,
                              static_cast<Bytes>(c) * block);
    }

    // End of the inter-leader operation: node rendezvous, everyone back to
    // T0 before the intra-node fan-out (§V-B).
    if (power) {
      co_await comm.node_barrier(my_node).arrive_and_wait();
      if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
        co_await unthrottle_self(self);
      }
    }
  }

  // Stage 3: leader broadcasts the assembled buffer within the node over
  // shared memory.
  {
    CollPhase phase(self, "allgather.intra_bcast");
    const Extent full = leader ? gathered.extent() : recv;
    co_await bcast_intra_node(self, node_comm, full, node_root);
    if (leader) copy_bytes(recv, gathered);
  }
}

sim::Task<> allgatherv_ring(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, std::span<const Bytes> counts) {
  const int P = comm.size();
  PACC_EXPECTS(static_cast<int>(counts.size()) == P);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);

  std::vector<std::size_t> displs(static_cast<std::size_t>(P) + 1, 0);
  for (int i = 0; i < P; ++i) {
    PACC_EXPECTS(counts[static_cast<std::size_t>(i)] >= 0);
    displs[static_cast<std::size_t>(i) + 1] =
        displs[static_cast<std::size_t>(i)] +
        static_cast<std::size_t>(counts[static_cast<std::size_t>(i)]);
  }
  PACC_EXPECTS(recv.size() == displs.back());
  PACC_EXPECTS(send.size() ==
               static_cast<std::size_t>(counts[static_cast<std::size_t>(me)]));

  copy_bytes(recv.subspan(displs[static_cast<std::size_t>(me)], send.size()),
             send);
  const int right = (me + 1) % P;
  const int left = (me - 1 + P) % P;
  for (int step = 0; step < P - 1; ++step) {
    const auto send_seg = static_cast<std::size_t>((me - step + P) % P);
    const auto recv_seg = static_cast<std::size_t>((me - step - 1 + P) % P);
    co_await self.send(
        comm.global_rank(right), tag,
        recv.subspan(displs[send_seg],
                     static_cast<std::size_t>(counts[send_seg])));
    co_await self.recv(comm.global_rank(left), tag,
                       recv.subspan(displs[recv_seg],
                                    static_cast<std::size_t>(counts[recv_seg])));
  }
}

sim::Task<> allgather(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      Extent recv, Bytes block,
                      const AllgatherOptions& options) {
  ProfileScope prof(self, "allgather", static_cast<Bytes>(recv.size()));
  const bool two_level = comm.uniform_ppn() && comm.nodes().size() >= 2 &&
                         comm.ranks_per_node() >= 2;
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        AllgatherOptions opts = options;
        opts.scheme = scheme;
        if (two_level) {
          co_await allgather_smp(self, comm, send, recv, block, opts);
        } else if (is_pow2(comm.size())) {
          co_await allgather_recursive_doubling(self, comm, send, recv,
                                                block);
        } else {
          co_await allgather_ring(self, comm, send, recv, block);
        }
      });
}

}  // namespace pacc::coll
