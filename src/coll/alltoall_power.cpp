#include "coll/alltoall_power.hpp"

#include <optional>

#include "coll/copy.hpp"
#include "coll/plan.hpp"
#include "coll/power_scheme.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

constexpr int kSocketA = 0;
constexpr int kSocketB = 1;

/// Restores the caller's throttle to T0 only if it is currently throttled
/// (its socket may already have been restored by a socket-mate).
sim::Task<> ensure_unthrottled(mpi::Rank& self) {
  if (self.machine().throttle(self.core()) != hw::ThrottleLevel::kMin) {
    co_await unthrottle_self(self);
  }
}

}  // namespace

int tournament_rounds(int N) {
  PACC_EXPECTS(N >= 2);
  return (N % 2 == 0) ? N - 1 : N;
}

int tournament_peer(int i, int round, int N) {
  PACC_EXPECTS(N >= 2);
  PACC_EXPECTS(i >= 0 && i < N);
  PACC_EXPECTS(round >= 0 && round < tournament_rounds(N));
  // Circle method. For odd N add a ghost player; pairing with the ghost
  // means idling this round.
  const int players = (N % 2 == 0) ? N : N + 1;
  const int m = players - 1;
  int peer;
  if (i == players - 1) {
    peer = round;
  } else if (i == round) {
    peer = players - 1;
  } else {
    peer = (2 * round - i % m + 2 * m) % m;
  }
  return peer >= N ? -1 : peer;
}

bool power_aware_alltoall_applicable(const mpi::Comm& comm) {
  if (!comm.uniform_ppn()) return false;
  if (comm.nodes().size() < 2) return false;
  const auto& shape = comm.runtime().placement().shape;
  if (shape.sockets_per_node != 2) return false;
  // §V-C: the schedule depends on both per-node socket groups being
  // populated (e.g. 8-way bunch mapping). With one socket empty there is
  // nothing to alternate, so the caller falls back to per-call DVFS over
  // the default algorithm — consistent with Table I, where the proposed
  // scheme is indistinguishable from freq-scaling at 32 processes.
  for (const int node : comm.nodes()) {
    if (comm.socket_group(node, kSocketA).empty() ||
        comm.socket_group(node, kSocketB).empty()) {
      return false;
    }
  }
  return true;
}

sim::Task<> run_power_actions(mpi::Rank& self, mpi::Comm& comm,
                              const CollPlan& plan, const ExchangeOps& ops) {
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  auto& barrier = comm.node_barrier(comm.node_of(me));

  // Walk this rank's precomputed program (see build_power_exchange in
  // plan.cpp, which documents the §V schedule the actions encode). On a
  // compressed plan the program belongs to the rank's class representative
  // and only the kSend/kRecv peers need relabelling — every other action
  // is peer-free by construction. The phase span is emplaced/reset so its
  // open/close instants match the historical block-scoped CollPhase
  // objects exactly.
  const PlanView view(plan, me, comm.size());
  std::optional<CollPhase> phase;
  for (const PowerAction& action : plan.actions[view.row()]) {
    switch (action.kind) {
      case PowerAction::kSend:
        co_await ops.send_to(view.peer(action.arg));
        break;
      case PowerAction::kRecv:
        co_await ops.recv_from(view.peer(action.arg));
        break;
      case PowerAction::kBarrier:
        if (mpi::Governor* gov = self.wait_governor()) {
          gov->wait_begin(self, mpi::WaitSite::kBarrier);
          co_await barrier.arrive_and_wait();
          co_await gov->wait_end(self, mpi::WaitSite::kBarrier);
        } else {
          co_await barrier.arrive_and_wait();
        }
        break;
      case PowerAction::kThrottle:
        co_await throttle_self(self, action.arg);
        break;
      case PowerAction::kEnsureUnthrottled:
        co_await ensure_unthrottled(self);
        break;
      case PowerAction::kEnsureThrottledMax:
        if (self.machine().throttle(self.core()) == hw::ThrottleLevel::kMin) {
          co_await throttle_self(self, hw::ThrottleLevel::kMax);
        }
        break;
      case PowerAction::kPhaseBegin:
        phase.emplace(self, kPowerPhaseNames[action.arg]);
        break;
      case PowerAction::kPhaseEnd:
        phase.reset();
        break;
    }
  }
}

sim::Task<> power_aware_exchange_schedule(mpi::Rank& self, mpi::Comm& comm,
                                          const ExchangeOps& ops,
                                          Bytes bytes) {
  PACC_EXPECTS(power_aware_alltoall_applicable(comm));
  const PlanPtr plan = get_plan(comm, PlanKind::kPowerExchange, bytes);
  mpi::Rank::ActionScope action(self, plan->action);
  co_await run_power_actions(self, comm, *plan, ops);
}

sim::Task<> alltoall_power_aware(mpi::Rank& self, mpi::Comm& comm,
                                 ConstExtent send, Extent recv, Bytes block) {
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto blk = static_cast<std::size_t>(block);
  PACC_EXPECTS(send.size() ==
                   static_cast<std::size_t>(comm.size()) * blk &&
               recv.size() == send.size());

  copy_bytes(recv.subspan(static_cast<std::size_t>(me) * blk, blk),
             send.subspan(static_cast<std::size_t>(me) * blk, blk));

  ExchangeOps ops;
  ops.send_to = [&self, &comm, send, blk, tag](int peer) -> sim::Task<> {
    co_await self.send(comm.global_rank(peer), tag,
                       send.subspan(static_cast<std::size_t>(peer) * blk, blk));
  };
  ops.recv_from = [&self, &comm, recv, blk, tag](int peer) -> sim::Task<> {
    co_await self.recv(comm.global_rank(peer), tag,
                       recv.subspan(static_cast<std::size_t>(peer) * blk, blk));
  };
  co_await power_aware_exchange_schedule(self, comm, ops,
                                         static_cast<Bytes>(send.size()));
}

}  // namespace pacc::coll
