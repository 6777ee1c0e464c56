#include "coll/alltoallv.hpp"

#include <numeric>
#include <vector>

#include "coll/alltoall_power.hpp"
#include "coll/copy.hpp"
#include "coll/plan.hpp"
#include "coll/power_scheme.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

std::vector<std::size_t> displacements(std::span<const Bytes> counts) {
  std::vector<std::size_t> displs(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    PACC_EXPECTS(counts[i] >= 0);
    displs[i + 1] = displs[i] + static_cast<std::size_t>(counts[i]);
  }
  return displs;
}

void check(const mpi::Comm& comm, ConstExtent send,
           std::span<const Bytes> send_counts, Extent recv,
           std::span<const Bytes> recv_counts) {
  const auto P = static_cast<std::size_t>(comm.size());
  PACC_EXPECTS(send_counts.size() == P && recv_counts.size() == P);
  PACC_EXPECTS(send.size() ==
               static_cast<std::size_t>(std::accumulate(
                   send_counts.begin(), send_counts.end(), Bytes{0})));
  PACC_EXPECTS(recv.size() ==
               static_cast<std::size_t>(std::accumulate(
                   recv_counts.begin(), recv_counts.end(), Bytes{0})));
}

/// The caller's own segment moves locally.
void copy_own_segment(ConstExtent send, const std::vector<std::size_t>& sdispl,
                      std::span<const Bytes> send_counts, Extent recv,
                      const std::vector<std::size_t>& rdispl, int me) {
  const auto m = static_cast<std::size_t>(me);
  const auto n = static_cast<std::size_t>(send_counts[m]);
  copy_bytes(recv.subspan(rdispl[m], n), send.subspan(sdispl[m], n));
}

}  // namespace

sim::Task<> alltoallv_pairwise(mpi::Rank& self, mpi::Comm& comm,
                               ConstExtent send,
                               std::span<const Bytes> send_counts, Extent recv,
                               std::span<const Bytes> recv_counts) {
  check(comm, send, send_counts, recv, recv_counts);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const PlanPtr plan = get_plan(comm, PlanKind::kAlltoallvPairwise,
                                static_cast<Bytes>(send.size()));
  mpi::Rank::ActionScope action(self, plan->action);
  const auto sdispl = displacements(send_counts);
  const auto rdispl = displacements(recv_counts);

  PACC_EXPECTS_MSG(send_counts[static_cast<std::size_t>(me)] ==
                       recv_counts[static_cast<std::size_t>(me)],
                   "self segment sizes must agree");
  copy_own_segment(send, sdispl, send_counts, recv, rdispl, me);

  const PlanView view(*plan, me, comm.size());
  for (const PairStep& step : plan->pair_steps[view.row()]) {
    const auto dst = static_cast<std::size_t>(view.peer(step.dst));
    const auto src = static_cast<std::size_t>(view.peer(step.src));
    co_await self.send(
        comm.global_rank(static_cast<int>(dst)), tag,
        send.subspan(sdispl[dst], static_cast<std::size_t>(send_counts[dst])));
    co_await self.recv(
        comm.global_rank(static_cast<int>(src)), tag,
        recv.subspan(rdispl[src], static_cast<std::size_t>(recv_counts[src])));
  }
}

sim::Task<> alltoallv_power_aware(mpi::Rank& self, mpi::Comm& comm,
                                  ConstExtent send,
                                  std::span<const Bytes> send_counts,
                                  Extent recv,
                                  std::span<const Bytes> recv_counts) {
  check(comm, send, send_counts, recv, recv_counts);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto sdispl = displacements(send_counts);
  const auto rdispl = displacements(recv_counts);

  copy_own_segment(send, sdispl, send_counts, recv, rdispl, me);

  ExchangeOps ops;
  ops.send_to = [&self, &comm, send, &sdispl, send_counts,
                 tag](int peer) -> sim::Task<> {
    const auto p = static_cast<std::size_t>(peer);
    co_await self.send(
        comm.global_rank(peer), tag,
        send.subspan(sdispl[p], static_cast<std::size_t>(send_counts[p])));
  };
  ops.recv_from = [&self, &comm, recv, &rdispl, recv_counts,
                   tag](int peer) -> sim::Task<> {
    const auto p = static_cast<std::size_t>(peer);
    co_await self.recv(
        comm.global_rank(peer), tag,
        recv.subspan(rdispl[p], static_cast<std::size_t>(recv_counts[p])));
  };
  co_await power_aware_exchange_schedule(self, comm, ops,
                                         static_cast<Bytes>(send.size()));
}

sim::Task<> alltoallv(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      std::span<const Bytes> send_counts, Extent recv,
                      std::span<const Bytes> recv_counts,
                      const AlltoallvOptions& options) {
  ProfileScope prof(self, "alltoallv", static_cast<Bytes>(send.size()));
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        if (scheme == PowerScheme::kProposed &&
            power_aware_alltoall_applicable(comm)) {
          co_await alltoallv_power_aware(self, comm, send, send_counts, recv,
                                         recv_counts);
        } else {
          co_await alltoallv_pairwise(self, comm, send, send_counts, recv,
                                      recv_counts);
        }
      });
}

}  // namespace pacc::coll
