// Offline racing driver for the collective autotuner (coll/tuner.hpp).
//
// tune_collective() races every registered candidate for (op, scheme) ×
// its segment-size ladder over a list of message sizes on one cluster
// config, and records each size's fastest candidate into the Tuner. Sizes
// the table already covers are skipped — re-running a tuning campaign
// against a persisted table races nothing and leaves the table
// byte-identical. Races fan out over Campaign::for_each, and the winner
// rule (min latency, candidate order breaking exact ties) depends only on
// the deterministic simulations, so the resulting table is identical at
// any --jobs. See docs/TUNING.md.
#pragma once

#include <string>
#include <vector>

#include "coll/algo.hpp"
#include "coll/tuner.hpp"
#include "pacc/simulation.hpp"

namespace pacc {

/// One tuning request: race candidates for `op` × `scheme` on `cluster`
/// at each message size.
struct TuneRequest {
  ClusterConfig cluster;
  coll::Op op = coll::Op::kBcast;
  coll::PowerScheme scheme = coll::PowerScheme::kNone;
  std::vector<Bytes> sizes;
  int iterations = 3;
  int warmup = 1;
  int root = 0;
};

/// One raced candidate's outcome.
struct TuneCandidateResult {
  std::string algo;
  Bytes seg = 0;
  RunStatus status{};
  Duration latency{};  ///< meaningful only when status.ok()
};

/// One message size's race.
struct TuneCellResult {
  Bytes message = 0;        ///< requested size (pre-rounding)
  Bytes tuned_bytes = 0;    ///< the TunedKey's rounded byte count
  bool skipped = false;     ///< table already had a decision
  coll::TunedDecision decision;  ///< the winner (or the existing decision)
  std::vector<TuneCandidateResult> candidates;  ///< empty when skipped
};

struct TuneReport {
  int raced_cells = 0;    ///< candidate runs actually simulated
  int skipped_cells = 0;  ///< sizes already covered by the table
  std::vector<TuneCellResult> cells;
};

/// The candidate list a race enumerates for (op, scheme): registered
/// algorithms of the op implementing the scheme, each at seg = 0 plus —
/// for segmented descriptors — the standard ladder {8K, 32K, 128K}
/// clipped to the descriptor's domain and to seg < message.
std::vector<TuneCandidateResult> tune_candidates(coll::Op op,
                                                 coll::PowerScheme scheme,
                                                 Bytes message);

/// Races all candidates for every size in `req` (skipping already-tuned
/// sizes) and records the winners into `tuner`.
TuneReport tune_collective(coll::Tuner& tuner, const TuneRequest& req,
                           int jobs = 1);

}  // namespace pacc
