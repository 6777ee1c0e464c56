#include "coll/alltoall.hpp"

#include "coll/alltoall_power.hpp"
#include "coll/copy.hpp"
#include "coll/plan.hpp"
#include "coll/power_scheme.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

ConstExtent block_of(ConstExtent buf, int index, Bytes block) {
  return buf.subspan(static_cast<std::size_t>(index) *
                         static_cast<std::size_t>(block),
                     static_cast<std::size_t>(block));
}

Extent block_of(Extent buf, int index, Bytes block) {
  return buf.subspan(static_cast<std::size_t>(index) *
                         static_cast<std::size_t>(block),
                     static_cast<std::size_t>(block));
}

void check_buffers(const mpi::Comm& comm, ConstExtent send, Extent recv,
                   Bytes block) {
  PACC_EXPECTS(block >= 0);
  const auto expected = static_cast<std::size_t>(comm.size()) *
                        static_cast<std::size_t>(block);
  PACC_EXPECTS_MSG(send.size() == expected && recv.size() == expected,
                   "alltoall buffers must hold size() blocks");
}

}  // namespace

sim::Task<> alltoall_pairwise(mpi::Rank& self, mpi::Comm& comm,
                              ConstExtent send, Extent recv, Bytes block) {
  check_buffers(comm, send, recv, block);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS_MSG(me >= 0, "caller is not a member of this communicator");
  const int tag = comm.begin_collective(me);
  const PlanPtr plan = get_plan(comm, PlanKind::kAlltoallPairwise,
                                static_cast<Bytes>(send.size()));
  mpi::Rank::ActionScope action(self, plan->action);

  // Own block moves locally.
  copy_bytes(block_of(recv, me, block), block_of(send, me, block));

  const PlanView view(*plan, me, comm.size());
  for (const PairStep& step : plan->pair_steps[view.row()]) {
    const int dst = view.peer(step.dst);
    const int src = view.peer(step.src);
    if (plan->pairwise_sendrecv) {
      co_await self.sendrecv(comm.global_rank(dst), tag,
                             block_of(send, dst, block),
                             comm.global_rank(src), tag,
                             block_of(recv, src, block));
    } else {
      co_await self.send(comm.global_rank(dst), tag,
                         block_of(send, dst, block));
      co_await self.recv(comm.global_rank(src), tag,
                         block_of(recv, src, block));
    }
  }
}

sim::Task<> alltoall_bruck(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block) {
  check_buffers(comm, send, recv, block);
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto blk = static_cast<std::size_t>(block);
  const PlanPtr plan = get_plan(comm, PlanKind::kAlltoallBruck,
                                static_cast<Bytes>(send.size()));
  mpi::Rank::ActionScope action(self, plan->action);

  // Step 1 — local rotation: tmp[i] = block destined to rank (me + i) % P.
  Scratch tmp(self, static_cast<std::size_t>(P) * blk);
  auto slot = [&tmp, blk](std::size_t i) { return tmp.subspan(i * blk, blk); };
  for (int i = 0; i < P; ++i) {
    copy_bytes(slot(static_cast<std::size_t>(i)),
               block_of(send, (me + i) % P, block));
  }

  // Step 2 — log rounds. A block at index i still has to travel i hops
  // forward; in round k every block whose index has bit k set moves k hops.
  Scratch packed(self);
  Scratch incoming(self);
  int k = 1;
  for (const auto& indices : plan->bruck_rounds) {
    packed.resize(indices.size() * blk);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      copy_bytes(packed.subspan(j * blk, blk),
                 slot(static_cast<std::size_t>(indices[j])));
    }
    incoming.resize(packed.size());
    const int dst = (me + k) % P;
    const int src = (me - k + P) % P;
    co_await self.sendrecv(comm.global_rank(dst), tag, packed,
                           comm.global_rank(src), tag, incoming);
    for (std::size_t j = 0; j < indices.size(); ++j) {
      copy_bytes(slot(static_cast<std::size_t>(indices[j])),
                 incoming.subspan(j * blk, blk));
    }
    k <<= 1;
  }

  // Step 3 — inverse rotation: tmp[i] now holds the block from (me - i).
  for (int i = 0; i < P; ++i) {
    copy_bytes(block_of(recv, (me - i + P) % P, block),
               slot(static_cast<std::size_t>(i)));
  }
}

sim::Task<> alltoall(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                     Extent recv, Bytes block, const AlltoallOptions& options) {
  ProfileScope prof(self, "alltoall", static_cast<Bytes>(send.size()));
  const bool small = block <= options.bruck_threshold;
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        // The paper's re-design targets the large-message pair-wise path;
        // small messages get per-call DVFS over the default algorithm.
        if (scheme == PowerScheme::kProposed && !small &&
            power_aware_alltoall_applicable(comm)) {
          co_await alltoall_power_aware(self, comm, send, recv, block);
        } else if (small) {
          co_await alltoall_bruck(self, comm, send, recv, block);
        } else {
          co_await alltoall_pairwise(self, comm, send, recv, block);
        }
      });
}

}  // namespace pacc::coll
