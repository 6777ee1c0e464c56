// Phase-level application workload engine.
//
// The paper estimates application power by profiling how long applications
// spend in each collective and combining that with benchmark-derived power
// data (§VII-A). This engine mirrors that methodology: an application is a
// sequence of per-iteration phases (local compute + collectives with
// realistic message sizes); a subset of iterations is simulated and the
// totals are extrapolated by the real/simulated iteration ratio.
//
// Large transposes are exercised as `repeat` back-to-back collective calls
// over capped per-pair blocks, which keeps simulation memory bounded while
// driving the identical collective code paths.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "coll/algo.hpp"
#include "pacc/simulation.hpp"
#include "util/units.hpp"

namespace pacc::apps {

struct Phase {
  enum class Kind {
    kCompute,
    kAlltoall,
    kAlltoallv,
    kBcast,
    kReduce,
    kAllreduce,
    kAllgather,
  };
  Kind kind = Kind::kCompute;
  /// kCompute: per-rank work at fmax.
  Duration compute{};
  /// Collectives: per-block / per-segment message size in bytes.
  Bytes bytes = 0;
  /// Back-to-back calls of this phase per iteration.
  int repeat = 1;
  /// kCompute: fractional random imbalance across ranks/iterations (0..1);
  /// kAlltoallv: fractional spread of the per-peer segment sizes.
  double imbalance = 0.0;
};

struct WorkloadSpec {
  std::string name;
  int simulated_iterations = 10;
  /// Ratio of real iterations to simulated ones; reported totals are
  /// multiplied by this (1.0 = everything simulated).
  double extrapolation = 1.0;
  std::vector<Phase> phases;
  std::uint64_t seed = 1;
};

/// Application-level outcome (extrapolated totals).
struct AppReport {
  std::string workload;
  coll::PowerScheme scheme = coll::PowerScheme::kNone;
  int ranks = 0;
  /// Structured outcome of the underlying run (see pacc/status.hpp).
  RunStatus status;
  Duration total_time;
  Duration alltoall_time;  ///< time rank 0 spent in Alltoall(v) phases
  Duration comm_time;      ///< time rank 0 spent in all collective phases
  Joules energy = 0.0;
  Watts mean_power = 0.0;
  /// Per-operation profile (calls / bytes / rank-time), un-extrapolated.
  std::map<std::string, mpi::OpStats> profile;
  /// Mean power per node (only with ObsOptions::per_node_meter).
  std::vector<Watts> mean_node_power;
};

/// Runs the workload on a simulated cluster under the given power scheme.
AppReport run_workload(const ClusterConfig& config, const WorkloadSpec& spec,
                       coll::PowerScheme scheme);

}  // namespace pacc::apps
