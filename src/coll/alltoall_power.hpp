// The paper's power-aware Alltoall (§V-A, Fig 3).
//
// The pair-wise exchange is re-scheduled over the two per-node socket
// groups A and B so that at any moment only one socket's processes per node
// drive the network, halving endpoint contention, while the other socket is
// throttled to T7:
//
//   Phase 1: intra-node exchanges (all local peers).
//   Phase 2: socket-A processes exchange with socket-A processes of every
//            other node; socket B is throttled to T7.
//   Phase 3: roles swap: B↔B inter-node exchanges, socket A at T7.
//   Phase 4: N-1 tournament rounds pairing nodes (i, j), i<j; within a
//            round, first A_i↔B_j run while B_i and A_j are throttled, then
//            B_i↔A_j run while A_i and B_j are throttled.
//
// The schedule is exposed generically (ExchangeOps) so MPI_Alltoallv reuses
// it with per-peer message sizes.
#pragma once

#include <functional>

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

/// Per-peer data movement callbacks supplied by the concrete collective.
struct ExchangeOps {
  /// Sends this rank's block destined to `peer` (a comm rank).
  std::function<sim::Task<>(int peer)> send_to;
  /// Receives `peer`'s block destined to this rank.
  std::function<sim::Task<>(int peer)> recv_from;
};

struct CollPlan;

/// True when the comm satisfies the algorithm's structural requirements:
/// uniform ranks-per-node, at least two nodes and a two-socket topology.
bool power_aware_alltoall_applicable(const mpi::Comm& comm);

/// Interprets this rank's PowerAction program from `plan`, dispatching data
/// movement through `ops`. This is the shared §V interpreter: the
/// power-aware exchange and the power-aware tree collectives all execute
/// through it, so throttle/barrier/phase semantics stay in one place.
sim::Task<> run_power_actions(mpi::Rank& self, mpi::Comm& comm,
                              const CollPlan& plan, const ExchangeOps& ops);

/// Runs the 4-phase power-aware exchange schedule; every peer pair is
/// exchanged exactly once. Caller is responsible for per-call DVFS.
/// `bytes` is the caller's total payload, used only as the plan-cache key
/// (the schedule itself is size-invariant).
sim::Task<> power_aware_exchange_schedule(mpi::Rank& self, mpi::Comm& comm,
                                          const ExchangeOps& ops,
                                          Bytes bytes = 0);

/// Power-aware MPI_Alltoall over contiguous blocks.
sim::Task<> alltoall_power_aware(mpi::Rank& self, mpi::Comm& comm,
                                 ConstExtent send, Extent recv, Bytes block);

/// Pairing of node-index `i` in tournament round `round` (0-based) among N
/// nodes; returns -1 when the node idles that round (odd N).
int tournament_peer(int i, int round, int N);

/// Number of tournament rounds needed for N nodes.
int tournament_rounds(int N);

}  // namespace pacc::coll
