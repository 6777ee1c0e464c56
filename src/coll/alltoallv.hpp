// MPI_Alltoallv: pair-wise exchange with per-peer message sizes, plus the
// power-aware variant reusing the §V-A socket schedule (the paper notes the
// Alltoallv results mirror Alltoall).
#pragma once

#include "coll/types.hpp"
#include "sim/task.hpp"

namespace pacc::coll {

struct AlltoallvOptions {
  PowerScheme scheme = PowerScheme::kNone;
};

/// send is partitioned into comm.size() segments of send_counts[i] bytes
/// (in comm-rank order); recv likewise with recv_counts. Displacements are
/// the prefix sums of the counts.
sim::Task<> alltoallv_pairwise(mpi::Rank& self, mpi::Comm& comm,
                               ConstExtent send,
                               std::span<const Bytes> send_counts, Extent recv,
                               std::span<const Bytes> recv_counts);

/// Power-aware Alltoallv over the §V-A schedule.
sim::Task<> alltoallv_power_aware(mpi::Rank& self, mpi::Comm& comm,
                                  ConstExtent send,
                                  std::span<const Bytes> send_counts,
                                  Extent recv,
                                  std::span<const Bytes> recv_counts);

/// Dispatcher applying the requested power scheme.
sim::Task<> alltoallv(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                      std::span<const Bytes> send_counts, Extent recv,
                      std::span<const Bytes> recv_counts,
                      const AlltoallvOptions& options = {});

}  // namespace pacc::coll
