// Multi-threaded sweep engine for the pacc:: facade.
//
// Every figure in the paper is a matrix of *independent* simulated runs —
// message sizes × power schemes × cluster shapes. A Campaign fans such a
// matrix (a declarative SweepSpec) out across a work-stealing worker pool:
// each cell builds its own single-threaded Simulation, so cells parallelise
// without sharing anything, and results are aggregated in cell order —
// byte-for-byte identical whether run on 1 or N threads.
//
//   pacc::SweepSpec sweep = pacc::SweepSpec::grid(clusters, specs);
//   auto results = pacc::Campaign(sweep, {.jobs = 8}).run();
//   pacc::write_campaign_json(file, sweep, results);   // "pacc-campaign-v1"
//
// Failure isolation: a deadlocked, timed-out or invalid cell yields a
// structured RunStatus at its slot; the sweep always completes. See
// docs/CAMPAIGN.md for the execution and determinism model.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "pacc/simulation.hpp"
#include "pacc/status.hpp"

namespace pacc {

class CellJournal;  // pacc/journal.hpp

/// One cell of a sweep: a cluster to stand up and a measurement to run on
/// it. `label` is free-form and lands in results and JSON artifacts.
struct SweepCell {
  std::string label;
  ClusterConfig cluster;
  CollectiveBenchSpec bench;
};

/// Declarative run matrix. Build cell-by-cell with add() or as a cartesian
/// grid; cell order defines result and artifact order.
struct SweepSpec {
  std::vector<SweepCell> cells;

  SweepSpec& add(const ClusterConfig& cluster, const CollectiveBenchSpec& bench,
                 std::string label = "");

  /// Cartesian product, cluster-major: for each cluster, every bench spec.
  /// Labels are "<cluster index>/<op>/<scheme>/<message>" unless the caller
  /// relabels afterwards.
  static SweepSpec grid(const std::vector<ClusterConfig>& clusters,
                        const std::vector<CollectiveBenchSpec>& benches);

  std::size_t size() const { return cells.size(); }
};

/// Where a cell's numbers came from. Deliberately NOT part of the JSON
/// artifact: a replayed cell must be byte-identical to a fresh run.
enum class CellSource {
  kRun,      ///< executed by this Campaign (inline or isolated worker)
  kJournal,  ///< replayed from CampaignOptions::journal under resume
  kCache,    ///< served by CampaignOptions::result_cache
};

/// Outcome of one cell, stored at the cell's index regardless of which
/// worker ran it or when it finished.
struct CellResult {
  std::size_t index = 0;
  std::string label;
  RunStatus status;
  /// Measurement payload; meaningful only when status.ok().
  CollectiveReport report;
  /// Provenance (fresh run / journal replay / cache hit).
  CellSource source = CellSource::kRun;
};

/// Argument of CampaignOptions::on_progress.
struct CampaignProgress {
  std::size_t finished = 0;        ///< cells done so far (including failed)
  std::size_t total = 0;
  const CellResult* last = nullptr;  ///< the cell that just finished
};

struct CampaignOptions {
  /// Worker threads; <= 0 means one per hardware thread. The aggregated
  /// results are byte-identical for every value.
  int jobs = 1;
  /// Overrides each cell's ClusterConfig::max_sim_time, so a deadlocked or
  /// runaway cell yields kTimeout quickly instead of simulating the
  /// default hour-long safety bound.
  std::optional<Duration> cell_timeout{};
  /// Called after every finished cell, serialized under an internal lock
  /// (safe to print or cancel() from). Completion order, not cell order.
  std::function<void(const CampaignProgress&)> on_progress{};
  /// Write-ahead cell journal (pacc/journal.hpp): every executed cell is
  /// durably appended before the sweep moves on, keyed by its canonical
  /// config hash. With `resume` also set, cells whose key the journal
  /// already holds are replayed instead of re-run — a SIGKILLed sweep
  /// restarted any number of times converges on the byte-identical
  /// artifact of an uninterrupted run, at any `jobs`. See
  /// docs/DURABILITY.md.
  std::shared_ptr<CellJournal> journal{};
  /// Skip cells already present in `journal` (their results are replayed
  /// from it). Without a journal this flag has no effect.
  bool resume = false;
  /// Cross-campaign content-addressed result cache — the same file format
  /// as the journal, but long-lived and shared across sweeps: any cell
  /// whose canonical hash is present is served from the cache, and fresh
  /// results are appended for future campaigns. Distinct from `journal`
  /// (which is per-sweep and consulted only under `resume`).
  std::shared_ptr<CellJournal> result_cache{};
  /// Execute each cell in a forked worker subprocess, so an abort, OOM
  /// kill or sanitizer trap inside one simulation is confined to that
  /// cell: the death is classified as RunStatus kCrashed (message = exit
  /// code / signal) after `crash_retries` bounded retries, and every other
  /// cell completes normally. POSIX only; elsewhere cells degrade to
  /// kError("process isolation unsupported"). Costs one fork + pipe per
  /// cell.
  bool isolate_cells = false;
  /// Extra attempts after a crashed worker before the cell is classified
  /// kCrashed (transient OOM kills deserve a second chance; deterministic
  /// aborts fail all attempts and classify identically every run).
  int crash_retries = 1;
  /// Real-time backoff before the first crash retry; doubles per retry.
  int crash_backoff_ms = 50;
  /// Test seam: runs at the start of every executed cell — inside the
  /// forked child when `isolate_cells` is set — with the cell index.
  /// Deliberately crashing here is how the crash-isolation paths are
  /// exercised (tests, paccbench --crash-cell, CI).
  std::function<void(std::size_t)> before_cell{};
};

class Campaign {
 public:
  explicit Campaign(SweepSpec spec, CampaignOptions options = {});

  /// Runs every cell to a result (blocking). Cell failures never throw and
  /// never abort the sweep — they come back as RunStatus entries.
  std::vector<CellResult> run();

  /// Thread-safe: cells already running finish normally; cells not yet
  /// started complete immediately as kError/"cancelled".
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  const SweepSpec& spec() const { return spec_; }
  const CampaignOptions& options() const { return options_; }

  /// Fans `count` arbitrary independent thunks over the same work-stealing
  /// pool (for sweeps that are not measure_collective cells — workload
  /// runs, custom simulation bodies). Exceptions thrown by `fn(i)` become
  /// kError statuses at index i; everything else is kOk.
  static std::vector<RunStatus> for_each(
      std::size_t count, int jobs, const std::function<void(std::size_t)>& fn);

 private:
  SweepSpec spec_;
  CampaignOptions options_;
  std::atomic<bool> cancelled_{false};
};

/// Writes results as a machine-readable artifact in the BENCH_micro.json
/// style: {"schema": "pacc-campaign-v1", "cells": [...]} with one entry
/// per cell in index order and fixed-precision number formatting, so the
/// bytes do not depend on CampaignOptions::jobs.
void write_campaign_json(std::ostream& out, const SweepSpec& spec,
                         const std::vector<CellResult>& results);

/// One parsed artifact cell — the subset of fields a consumer needs to
/// audit an artifact (plots re-read the raw JSON themselves).
struct LoadedCampaignCell {
  std::size_t index = 0;
  std::string label;
  RunStatus status;
  double latency_us = 0.0;
  double energy_per_op_j = 0.0;
  double mean_power_w = 0.0;
};

struct LoadedCampaign {
  std::vector<LoadedCampaignCell> cells;
};

/// Strict loader for "pacc-campaign-v1" artifacts (the exact format
/// write_campaign_json emits). Rejects — with a descriptive error —
/// anything a crash or corruption could produce: a missing or foreign
/// schema header, a malformed or out-of-order cell line, a truncated file
/// (missing footer), or trailing garbage. paccbench exposes it as
/// --verify-artifact.
std::optional<LoadedCampaign> load_campaign_json(std::istream& in,
                                                 std::string* error = nullptr);

}  // namespace pacc
