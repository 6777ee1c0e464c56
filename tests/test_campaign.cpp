// pacc::Campaign: determinism across thread counts, failure isolation,
// cancellation, timeouts, and the JSON artifact.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "pacc/campaign.hpp"
#include "test_support.hpp"

namespace pacc {
namespace {

/// Small sweep spanning ops, schemes and sizes — cheap enough to run under
/// several jobs values but wide enough to actually exercise the pool.
SweepSpec small_sweep() {
  std::vector<ClusterConfig> clusters = {test::small_cluster(2, 8, 4),
                                         test::small_cluster(2, 4, 2)};
  std::vector<CollectiveBenchSpec> benches;
  for (const coll::Op op :
       {coll::Op::kAlltoall, coll::Op::kBcast, coll::Op::kAllreduce}) {
    for (const coll::PowerScheme scheme : coll::kAllSchemes) {
      for (const Bytes message : {Bytes{4 * 1024}, Bytes{32 * 1024}}) {
        CollectiveBenchSpec spec;
        spec.op = op;
        spec.scheme = scheme;
        spec.message = message;
        spec.iterations = 2;
        spec.warmup = 1;
        benches.push_back(spec);
      }
    }
  }
  return SweepSpec::grid(clusters, benches);
}

std::string artifact(const SweepSpec& sweep,
                     const std::vector<CellResult>& results) {
  std::ostringstream out;
  write_campaign_json(out, sweep, results);
  return out.str();
}

TEST(Campaign, ResultsAreByteIdenticalAcrossJobCounts) {
  const SweepSpec sweep = small_sweep();
  Campaign serial(sweep, {.jobs = 1});
  Campaign pooled(sweep, {.jobs = 8});
  const auto a = serial.run();
  const auto b = pooled.run();
  ASSERT_EQ(a.size(), sweep.size());
  ASSERT_EQ(b.size(), sweep.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].status.ok()) << a[i].label << ": "
                                  << a[i].status.describe();
    EXPECT_EQ(a[i].report.latency.ns(), b[i].report.latency.ns()) << i;
    EXPECT_EQ(a[i].report.energy_per_op, b[i].report.energy_per_op) << i;
  }
  // The artifact is the real contract: identical bytes, any thread count.
  EXPECT_EQ(artifact(sweep, a), artifact(sweep, b));
}

TEST(Campaign, FaultedResultsAreByteIdenticalAcrossJobCounts) {
  // The stressed variant of the contract: fault draws must key off the
  // cell's index (derive_cell_seed), never the worker thread that happened
  // to pick the cell up, or --jobs would reshuffle every outcome.
  SweepSpec sweep = small_sweep();
  for (SweepCell& cell : sweep.cells) {
    cell.cluster.faults =
        *fault::FaultSpec::parse("seed=13,drop=0.01,flap=40,tfail=0.25");
  }
  Campaign serial(sweep, {.jobs = 1});
  Campaign pooled(sweep, {.jobs = 4});
  const auto a = serial.run();
  const auto b = pooled.run();
  ASSERT_EQ(a.size(), sweep.size());
  bool any_disturbed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].status.usable() ||
                a[i].status.outcome == RunOutcome::kUnreachable)
        << a[i].label << ": " << a[i].status.describe();
    EXPECT_EQ(a[i].status.outcome, b[i].status.outcome) << a[i].label;
    EXPECT_EQ(a[i].report.latency.ns(), b[i].report.latency.ns()) << i;
    EXPECT_EQ(a[i].report.faults.retransmits, b[i].report.faults.retransmits)
        << i;
    any_disturbed |= a[i].report.faults.disturbed();
  }
  EXPECT_TRUE(any_disturbed);  // the spec actually bit somewhere
  EXPECT_EQ(artifact(sweep, a), artifact(sweep, b));
}

TEST(Campaign, DeadlockedCellIsIsolatedAsTimeout) {
  SweepSpec sweep;
  CollectiveBenchSpec ok_spec;
  ok_spec.op = coll::Op::kBcast;
  ok_spec.message = 1024;
  ok_spec.iterations = 1;
  ok_spec.warmup = 0;

  // Middle cell can never finish: it gets a cluster whose max_sim_time is
  // far below one iteration's latency, so its engine runs out of budget.
  ClusterConfig tiny = test::small_cluster(2, 8, 4);
  ClusterConfig doomed = tiny;
  doomed.max_sim_time = Duration::nanos(100);
  sweep.add(tiny, ok_spec, "before");
  sweep.add(doomed, ok_spec, "doomed");
  sweep.add(tiny, ok_spec, "after");

  const auto results = Campaign(sweep, {.jobs = 2}).run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[1].status.outcome, RunOutcome::kTimeout)
      << results[1].status.describe();
  EXPECT_TRUE(results[2].status.ok());
}

TEST(Campaign, CellTimeoutOptionOverridesEveryCell) {
  SweepSpec sweep;
  CollectiveBenchSpec spec;
  spec.op = coll::Op::kAlltoall;
  spec.message = 64 * 1024;
  spec.iterations = 2;
  spec.warmup = 0;
  sweep.add(test::small_cluster(2, 8, 4), spec);

  CampaignOptions options;
  options.cell_timeout = Duration::nanos(100);
  const auto results = Campaign(sweep, options).run();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.outcome, RunOutcome::kTimeout);
}

TEST(Campaign, InvalidCellYieldsErrorNotAbort) {
  SweepSpec sweep;
  CollectiveBenchSpec good;
  good.op = coll::Op::kBcast;
  good.message = 1024;
  good.iterations = 1;
  good.warmup = 0;
  CollectiveBenchSpec bad = good;
  bad.iterations = 0;  // would trip measure_collective's contract check
  CollectiveBenchSpec unsupported = good;
  unsupported.op = coll::Op::kGather;
  unsupported.scheme = coll::PowerScheme::kProposed;

  ClusterConfig cluster = test::small_cluster(2, 4, 2);
  sweep.add(cluster, bad, "bad");
  sweep.add(cluster, unsupported, "unsupported");
  sweep.add(cluster, good, "good");

  const auto results = Campaign(sweep).run();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].status.outcome, RunOutcome::kError);
  EXPECT_EQ(results[1].status.outcome, RunOutcome::kError);
  EXPECT_TRUE(results[2].status.ok());
}

TEST(Campaign, RackLayerWithoutBandwidthYieldsError) {
  CollectiveBenchSpec bench;
  bench.op = coll::Op::kBcast;
  bench.message = 1024;
  bench.iterations = 1;
  bench.warmup = 0;
  ClusterConfig racked = test::small_cluster(2, 4, 2);
  racked.nodes_per_rack = 1;
  net::NetworkParams network = presets::paper_network();
  network.rack_bandwidth = 0.0;  // FlowNetwork would abort on this
  racked.network = network;
  ClusterConfig flat = test::small_cluster(2, 4, 2);
  flat.network = network;  // unused without racks

  SweepSpec sweep;
  sweep.add(racked, bench, "racked");
  sweep.add(flat, bench, "flat");
  const auto results = Campaign(sweep).run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status.outcome, RunOutcome::kError);
  EXPECT_EQ(results[0].status.message, "rack layer needs rack_bandwidth > 0");
  EXPECT_TRUE(results[1].status.ok()) << results[1].status.describe();
}

TEST(Campaign, ProgressIsOrderedAndCancelShortCircuits) {
  const SweepSpec sweep = small_sweep();
  Campaign* handle = nullptr;
  std::size_t calls = 0;
  CampaignOptions options;
  options.jobs = 1;  // serial order: cells run 0, 1, 2, ... deterministically
  options.on_progress = [&](const CampaignProgress& p) {
    ++calls;
    EXPECT_EQ(p.finished, calls);
    EXPECT_EQ(p.total, sweep.size());
    ASSERT_NE(p.last, nullptr);
    if (p.finished == 2) handle->cancel();
  };
  Campaign campaign(sweep, std::move(options));
  handle = &campaign;
  const auto results = campaign.run();
  EXPECT_EQ(calls, sweep.size());  // cancelled cells still report progress
  std::size_t cancelled = 0;
  for (const auto& r : results) {
    if (r.status.outcome == RunOutcome::kError &&
        r.status.message == "cancelled") {
      ++cancelled;
    }
  }
  EXPECT_EQ(cancelled, sweep.size() - 2);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_TRUE(results[1].status.ok());
}

TEST(Campaign, ForEachIsolatesExceptionsPerIndex) {
  std::atomic<int> ran{0};
  const auto statuses = Campaign::for_each(16, 4, [&](std::size_t i) {
    ran.fetch_add(1, std::memory_order_relaxed);
    if (i % 5 == 0) throw std::runtime_error("boom " + std::to_string(i));
  });
  ASSERT_EQ(statuses.size(), 16u);
  EXPECT_EQ(ran.load(), 16);
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (i % 5 == 0) {
      EXPECT_EQ(statuses[i].outcome, RunOutcome::kError);
      EXPECT_EQ(statuses[i].message, "boom " + std::to_string(i));
    } else {
      EXPECT_TRUE(statuses[i].ok());
    }
  }
}

TEST(Campaign, WorkStealingCoversEveryIndexExactlyOnce) {
  std::mutex mu;
  std::multiset<std::size_t> seen;
  const auto statuses = Campaign::for_each(97, 8, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(i);
  });
  EXPECT_EQ(statuses.size(), 97u);
  ASSERT_EQ(seen.size(), 97u);
  std::size_t expect = 0;
  for (const std::size_t i : seen) EXPECT_EQ(i, expect++);
}

TEST(Campaign, JsonArtifactIsWellFormedAndOrdered) {
  SweepSpec sweep;
  CollectiveBenchSpec spec;
  spec.op = coll::Op::kBcast;
  spec.message = 1024;
  spec.iterations = 1;
  spec.warmup = 0;
  sweep.add(test::small_cluster(2, 4, 2), spec, "quote\"and\\slash");
  const auto results = Campaign(sweep).run();
  const std::string json = artifact(sweep, results);
  EXPECT_NE(json.find("\"schema\": \"pacc-campaign-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"quote\\\"and\\\\slash\""),
            std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"op\": \"bcast\""), std::string::npos);
}

TEST(Campaign, GridIsClusterMajorWithDescriptiveLabels) {
  std::vector<ClusterConfig> clusters = {test::small_cluster(2, 4, 2),
                                         test::small_cluster(2, 8, 4)};
  CollectiveBenchSpec spec;
  spec.op = coll::Op::kAlltoall;
  spec.message = 4096;
  const SweepSpec sweep = SweepSpec::grid(clusters, {spec});
  ASSERT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep.cells[0].cluster.ranks, 4);
  EXPECT_EQ(sweep.cells[1].cluster.ranks, 8);
  EXPECT_EQ(sweep.cells[0].label, "0/alltoall/no-power/4K");
  EXPECT_EQ(sweep.cells[1].label, "1/alltoall/no-power/4K");
}

TEST(RunStatus, Describe) {
  RunStatus ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(to_string(ok.outcome), "ok");
  const RunStatus err = RunStatus::error("nope");
  EXPECT_FALSE(err);
  EXPECT_EQ(err.describe(), "error: nope");

  RunReport report;
  report.status.outcome = RunOutcome::kDeadlock;
  EXPECT_FALSE(report.status.ok());
}

}  // namespace
}  // namespace pacc
