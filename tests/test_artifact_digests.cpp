// Golden artifact digests: the simulator's outputs pinned to recorded bytes.
//
// The byte-identity suites compare two toggles of the same code, so a change
// to code both toggles share (the water-filling's flow order, say) passes
// them while it moves every artifact. These tests instead hash whole
// artifacts — campaign JSON, Chrome traces, exact energy buckets, latency
// and energy bit patterns — with FNV-1a-64 and compare the digests with
// tests/data/artifacts.golden, recorded before the flow network learned
// route classes. A mismatch prints the digest the code produced; the golden
// file changes only with an intended output change, and says which.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "pacc/campaign.hpp"
#include "pacc/presets.hpp"
#include "pacc/simulation.hpp"

namespace pacc {
namespace {

/// FNV-1a, 64-bit, fed field by field.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void bytes(std::string_view s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    u64(s.size());  // length-delimited, so field boundaries count
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void phases(const std::vector<obs::PhaseEnergy>& phases) {
    u64(phases.size());
    for (const obs::PhaseEnergy& p : phases) {
      bytes(p.name);
      f64(p.joules);
      i64(p.time.ns());
      u64(p.calls);
    }
  }
  void report(const CollectiveReport& r) {
    bytes(r.status.describe());
    i64(r.latency.ns());
    f64(r.energy_per_op);
    f64(r.mean_power);
    phases(r.energy_phases);
    bytes(r.trace_json);
    bytes(r.faults.summary());
    u64(r.collapse.representative_flows);
  }

  std::string hex() const {
    std::ostringstream out;
    out << std::hex;
    out.width(16);
    out.fill('0');
    out << h;
    return out.str();
  }
};

std::map<std::string, std::string> golden() {
  std::map<std::string, std::string> digests;
  std::ifstream in(PACC_ARTIFACTS_GOLDEN);
  EXPECT_TRUE(in) << "cannot open " << PACC_ARTIFACTS_GOLDEN;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, digest;
    fields >> name >> digest;
    digests[name] = digest;
  }
  return digests;
}

void expect_golden(const std::string& name, const Digest& d) {
  static const std::map<std::string, std::string> recorded = golden();
  const auto it = recorded.find(name);
  ASSERT_NE(it, recorded.end())
      << "no golden digest for " << name << "; produced " << d.hex();
  EXPECT_EQ(d.hex(), it->second) << name << " changed; produced " << d.hex();
}

/// The traced Fig-7 sweep: 64 ranks 1:1, every scheme, two sizes.
SweepSpec fig7_traced_sweep() {
  SweepSpec sweep;
  for (const Bytes message : {Bytes{16 * 1024}, Bytes{64 * 1024}}) {
    for (const auto scheme : coll::kAllSchemes) {
      ClusterConfig cfg;  // the paper's testbed: 8 nodes × 8 ranks
      cfg.obs.trace = true;
      CollectiveBenchSpec bench;
      bench.op = coll::Op::kAlltoall;
      bench.scheme = scheme;
      bench.message = message;
      bench.iterations = 2;
      bench.warmup = 1;
      sweep.add(cfg, bench,
                coll::to_string(scheme) + "/" + std::to_string(message));
    }
  }
  return sweep;
}

Digest sweep_digest(int jobs) {
  const SweepSpec sweep = fig7_traced_sweep();
  CampaignOptions opts;
  opts.jobs = jobs;
  const auto results = Campaign(sweep, opts).run();
  std::ostringstream json;
  write_campaign_json(json, sweep, results);
  Digest d;
  d.bytes(json.str());
  for (const CellResult& cell : results) {
    EXPECT_TRUE(cell.status.ok()) << cell.label << ": "
                                  << cell.status.describe();
    d.bytes(cell.label);
    d.report(cell.report);
  }
  return d;
}

TEST(ArtifactDigests, TracedFig7SweepSerial) {
  expect_golden("fig7_traced_sweep", sweep_digest(1));
}

TEST(ArtifactDigests, TracedFig7SweepOnFourWorkers) {
  // The artifact is the same at any job count, so one golden serves both.
  expect_golden("fig7_traced_sweep", sweep_digest(4));
}

TEST(ArtifactDigests, DropFlapStragglerProposedAlltoall) {
  ClusterConfig cfg;  // Fig-7 testbed
  cfg.obs.trace = true;
  cfg.faults = *fault::FaultSpec::parse(
      "seed=17,drop=0.02,flap=50,stragglers=1,slow=1.5");
  cfg.network = presets::paper_network();
  CollectiveBenchSpec bench;
  bench.op = coll::Op::kAlltoall;
  bench.scheme = coll::PowerScheme::kProposed;
  bench.message = 16 * 1024;
  bench.iterations = 2;
  bench.warmup = 1;
  const auto report = measure_collective(cfg, bench);
  ASSERT_TRUE(report.status.usable()) << report.status.describe();
  Digest d;
  d.report(report);
  d.u64(report.faults.drops);
  d.u64(report.faults.retransmits);
  d.u64(report.faults.link_flaps);
  d.u64(report.faults.flows_preempted);
  expect_golden("faulted_proposed_alltoall", d);
}

/// A racked, link-flapping Fig-7 testbed: 8 nodes × 8 ranks in racks of 3
/// (the last one ragged).
ClusterConfig flapping_racks(const char* faults) {
  ClusterConfig cfg;
  cfg.nodes_per_rack = 3;
  cfg.obs.trace = true;
  cfg.faults = *fault::FaultSpec::parse(faults);
  return cfg;
}

Digest flapped_digest(const CollectiveReport& report) {
  EXPECT_TRUE(report.status.usable()) << report.status.describe();
  EXPECT_GT(report.faults.link_flaps, 0u);
  EXPECT_GT(report.faults.flows_preempted, 0u);
  Digest d;
  d.report(report);
  d.u64(report.faults.retransmits);
  d.u64(report.faults.link_flaps);
  d.u64(report.faults.flows_preempted);
  return d;
}

TEST(ArtifactDigests, FlapFaultedRackedBcast) {
  CollectiveBenchSpec bench;
  bench.op = coll::Op::kBcast;
  bench.scheme = coll::PowerScheme::kProposed;
  bench.message = 1024 * 1024;
  bench.iterations = 3;
  bench.warmup = 0;
  expect_golden("flap_racked_bcast",
                flapped_digest(measure_collective(
                    flapping_racks("seed=7,flap=300,down-us=100"), bench)));
}

TEST(ArtifactDigests, FlapFaultedRackedAlltoall) {
  // A downed link carries many flows at once here, so the order in which
  // they are preempted — and their senders resumed to retransmit — reaches
  // the trace. (The Bcast above rarely preempts two flows at one instant;
  // reversing the victim order leaves its digest unchanged.)
  CollectiveBenchSpec bench;
  bench.op = coll::Op::kAlltoall;
  bench.scheme = coll::PowerScheme::kProposed;
  bench.message = 64 * 1024;
  bench.iterations = 3;
  bench.warmup = 0;
  expect_golden("flap_racked_alltoall",
                flapped_digest(measure_collective(
                    flapping_racks("seed=7,flap=300,down-us=100"), bench)));
}

/// A collapsed 1024-rank proposed Alltoall: 128 nodes × 8 in four 32-node
/// top-level groups, collapsed 4× to one group.
CollectiveReport collapsed_cell(bool dragonfly) {
  ClusterConfig cfg;
  cfg.nodes = 128;
  cfg.ranks = 1024;
  cfg.ranks_per_node = 8;
  if (dragonfly) {
    cfg.dragonfly.routers_per_group = 8;
    cfg.dragonfly.nodes_per_router = 4;
  } else {
    cfg.fabric = {{32, 2.0}};
  }
  cfg.collapse_multiplicity = 4;
  CollectiveBenchSpec bench;
  bench.op = coll::Op::kAlltoall;
  bench.scheme = coll::PowerScheme::kProposed;
  bench.message = 64 * 1024;
  bench.iterations = 1;
  bench.warmup = 0;
  return measure_collective(cfg, bench);
}

TEST(ArtifactDigests, Collapsed1024RankFatTreeProposedAlltoall) {
  const auto report = collapsed_cell(false);
  ASSERT_TRUE(report.status.ok()) << report.status.describe();
  ASSERT_EQ(report.collapse.multiplicity, 4) << report.collapse.reason;
  Digest d;
  d.report(report);
  expect_golden("collapsed1024_fattree_proposed", d);
}

TEST(ArtifactDigests, Collapsed1024RankDragonflyProposedAlltoall) {
  const auto report = collapsed_cell(true);
  ASSERT_TRUE(report.status.ok()) << report.status.describe();
  ASSERT_EQ(report.collapse.multiplicity, 4) << report.collapse.reason;
  Digest d;
  d.report(report);
  expect_golden("collapsed1024_dragonfly_proposed", d);
}

}  // namespace
}  // namespace pacc
