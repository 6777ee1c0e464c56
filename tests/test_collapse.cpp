// Fat-tree fabric and rank-symmetry collapse suite.
//
// Two contracts under test. The fabric: multi-level aggregation links get
// the bandwidth their oversubscription ratio dictates, flows climb exactly
// as many levels as the endpoints require, and per-group efficiency knobs
// degrade only the traffic that actually crosses the group. The collapse:
// a collapsed measurement is equivalent to the full 1:1 simulation —
// latency bit-exact, energy and power exact up to the multiplicity scaling
// (≤1e-9 relative, the scaled quotient sums in a different order) — and
// anything that breaks the symmetry (tracing, faults, the proposed
// scheme's tournament) degrades to a 1:1 run that is byte-identical to an
// explicitly uncollapsed one, with the affected class named.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "pacc/campaign.hpp"
#include "pacc/simulation.hpp"
#include "sym/collapse.hpp"

namespace pacc {
namespace {

// ------------------------------------------------------------ fabric ----

net::NetworkParams flat_params() {
  net::NetworkParams p;
  p.link_bandwidth = 1e9;  // 1 GB/s for round numbers
  p.shm_bandwidth = 2e9;
  p.contention_penalty = 0.0;
  return p;
}

hw::ClusterShape fabric_shape(int nodes,
                              std::vector<hw::FabricLevelSpec> fabric) {
  hw::ClusterShape shape;
  shape.nodes = nodes;
  shape.fabric = std::move(fabric);
  return shape;
}

struct Probe {
  TimePoint done;
  bool finished = false;
};

sim::Task<> transfer_probe(net::FlowNetwork& net, sim::Engine& e, int src,
                           int dst, Bytes bytes, Probe& probe,
                           bool via_top = false) {
  co_await net.transfer(src, dst, bytes, /*force_loopback=*/false,
                        /*wire_multiplier=*/1.0, via_top);
  probe.done = e.now();
  probe.finished = true;
}

TEST(FabricShape, ValidityAndDerivedBandwidth) {
  hw::ClusterShape shape = fabric_shape(8, {{4, 2.0}});
  EXPECT_TRUE(shape.valid());
  sim::Engine e;
  const net::FlowNetwork net(e, shape, flat_params());
  ASSERT_EQ(net.levels().size(), 1u);
  const net::Level& level = net.levels()[0];
  EXPECT_EQ(level.groups, 2);
  EXPECT_EQ(level.group_of(3), 0);
  EXPECT_EQ(level.group_of(4), 1);
  // 4 children × 1 GB/s at 2:1 oversubscription = 2 GB/s per direction.
  EXPECT_DOUBLE_EQ(level.bandwidth, 2e9);

  // Explicit bandwidth overrides the derivation.
  shape.fabric[0].bandwidth = 0.5e9;
  const net::FlowNetwork overridden(e, shape, flat_params());
  EXPECT_DOUBLE_EQ(overridden.levels()[0].bandwidth, 0.5e9);

  // Group sizes must divide the node count evenly…
  EXPECT_FALSE(fabric_shape(8, {{3, 1.0}}).valid());
  // …oversubscription below 1 is not a thing…
  EXPECT_FALSE(fabric_shape(8, {{4, 0.5}}).valid());
  // …and the fabric replaces the legacy rack layer.
  hw::ClusterShape racked = fabric_shape(8, {{4, 1.0}});
  racked.nodes_per_rack = 4;
  EXPECT_FALSE(racked.valid());

  // Multi-level: cumulative products must keep dividing.
  EXPECT_TRUE(fabric_shape(16, {{2, 1.0}, {4, 2.0}}).valid());
  EXPECT_FALSE(fabric_shape(16, {{2, 1.0}, {3, 2.0}}).valid());
}

TEST(FabricNetwork, OversubscriptionThrottlesCrossGroupTraffic) {
  sim::Engine e;
  net::FlowNetwork net(e, fabric_shape(8, {{4, 2.0}}), flat_params());
  // Four disjoint HCA pairs, all crossing the one 2 GB/s aggregation pair:
  // demand 4 GB/s → each flow gets 0.5 GB/s → 1 MB in 2 ms.
  std::vector<Probe> probes(4);
  for (int i = 0; i < 4; ++i) {
    e.spawn(transfer_probe(net, e, i, 4 + i, 1'000'000, probes[i]));
  }
  EXPECT_TRUE(e.run().all_tasks_finished);
  for (const Probe& p : probes) {
    EXPECT_NEAR(p.done.us(), 2000.0, 5.0);
  }
}

TEST(FabricNetwork, NonBlockingFabricAddsNoPenalty) {
  sim::Engine e;
  net::FlowNetwork net(e, fabric_shape(8, {{4, 1.0}}), flat_params());
  std::vector<Probe> probes(4);
  for (int i = 0; i < 4; ++i) {
    e.spawn(transfer_probe(net, e, i, 4 + i, 1'000'000, probes[i]));
  }
  e.run();
  // 4 GB/s of aggregation for 4 GB/s of demand: HCAs stay the bottleneck.
  for (const Probe& p : probes) {
    EXPECT_NEAR(p.done.us(), 1000.0, 1.0);
  }
}

TEST(FabricNetwork, FlowsClimbOnlyAsManyLevelsAsTheyNeed) {
  sim::Engine e;
  net::FlowNetwork net(e, fabric_shape(8, {{2, 1.0}, {2, 2.0}}),
                       flat_params());
  // Killing the TOP-level group 0 links must strand only traffic that has
  // to reach the core crossbar from nodes 0-3. Its fault unit follows the
  // 8 HCAs and the 4 level-0 groups.
  const int top_group0 = 8 + 4;
  net.set_unit_efficiency(top_group0, 0.0);
  EXPECT_TRUE(net.path_up(0, 1));   // same level-0 group: no fabric at all
  EXPECT_TRUE(net.path_up(0, 2));   // same level-1 group: stops at level 0
  EXPECT_FALSE(net.path_up(0, 4));  // crosses the dead top-level links
  EXPECT_FALSE(net.path_up(4, 0));  // ...in either direction
  // via_top forces the full climb even for local traffic — the collapse
  // runtime's stand-in for a cross-group flow.
  EXPECT_FALSE(net.path_up(0, 1, /*force_loopback=*/false, /*via_top=*/true));
  net.set_unit_efficiency(top_group0, 1.0);
  EXPECT_TRUE(net.path_up(0, 4));
  EXPECT_TRUE(net.path_up(0, 1, false, true));
}

sim::Task<> record_transfer(net::FlowNetwork& net, int src, int dst,
                            bool& landed) {
  landed = co_await net.transfer(src, dst, 1'000'000);
}

TEST(FabricNetwork, DownedAggregationUnitPreemptsOnlyCrossGroupFlows) {
  sim::Engine e;
  net::FlowNetwork net(e, fabric_shape(8, {{2, 1.0}, {2, 2.0}}),
                       flat_params());
  // 1 MB at 1 GB/s: every transfer is still in flight at 100 us.
  bool cross = true;
  bool local = false;
  bool elsewhere = false;
  e.spawn(record_transfer(net, 0, 4, cross));      // climbs both levels
  e.spawn(record_transfer(net, 1, 0, local));      // level-0 group 0
  e.spawn(record_transfer(net, 2, 6, elsewhere));  // from level-0 group 1
  // Level-0 group 0's unit follows the 8 HCAs.
  e.schedule(Duration::micros(100),
             [&net] { net.set_unit_efficiency(8, 0.0); });
  EXPECT_TRUE(e.run().all_tasks_finished);
  EXPECT_FALSE(cross);
  EXPECT_TRUE(local);
  EXPECT_TRUE(elsewhere);
  EXPECT_EQ(net.flows_preempted(), 1u);
}

// ------------------------------------------------------- decide() gate ----

ClusterConfig fat_tree_config() {
  ClusterConfig cfg;
  cfg.nodes = 32;
  cfg.ranks = 256;
  cfg.ranks_per_node = 8;
  cfg.fabric = {{4, 2.0}};  // 8 top-level groups of 4 nodes
  return cfg;
}

CollectiveBenchSpec quick_bench(coll::Op op, coll::PowerScheme scheme,
                                Bytes message) {
  CollectiveBenchSpec bench;
  bench.op = op;
  bench.scheme = scheme;
  bench.message = message;
  bench.iterations = 2;
  bench.warmup = 1;
  return bench;
}

TEST(CollapseDecide, CollapsesEligibleFatTreeRun) {
  const auto d = sym::decide(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16));
  EXPECT_EQ(d.multiplicity, 8);
  EXPECT_EQ(d.classes, 32);
  EXPECT_TRUE(d.reason.empty()) << d.reason;
}

TEST(CollapseDecide, FlatSwitchCollapsesPerNode) {
  ClusterConfig cfg;  // the paper's testbed: 8 nodes × 8 ranks, no fabric
  const auto d = sym::decide(
      cfg, quick_bench(coll::Op::kBarrier, coll::PowerScheme::kNone, 0));
  EXPECT_EQ(d.multiplicity, 8);
  EXPECT_EQ(d.classes, 8);
}

TEST(CollapseDecide, AsymmetricRunsStayFull) {
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16);

  ClusterConfig cfg = fat_tree_config();
  cfg.collapse_multiplicity = 1;  // forced off
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 1);

  cfg = fat_tree_config();
  cfg.collapse_multiplicity = 4;  // fabric's top level has 8 groups, not 4
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 1);

  cfg = fat_tree_config();
  cfg.obs.trace = true;
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 1);

  cfg = fat_tree_config();
  cfg.governor.enabled = true;
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 1);

  cfg = fat_tree_config();
  cfg.ranks = 128;  // half occupancy
  cfg.ranks_per_node = 4;
  cfg.ranks = cfg.nodes * cfg.ranks_per_node;
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 8)
      << "uniform half-filled nodes are still symmetric";
  cfg.ranks = 64;  // genuinely partial occupancy
  EXPECT_EQ(sym::decide(cfg, bench).multiplicity, 1);

  ClusterConfig racked;
  racked.nodes_per_rack = 4;
  EXPECT_EQ(sym::decide(racked, bench).multiplicity, 1);

  // On a flat switch the proposed scheme runs the circle tournament, which
  // is not translation-equivariant — stays 1:1. On a fat tree the §V
  // schedule switches to XOR rounds and collapses (see CollapseEquivalence).
  ClusterConfig flat;  // 8 nodes × 8 ranks, no fabric, ppn fills both sockets
  EXPECT_EQ(sym::decide(flat, quick_bench(coll::Op::kAlltoall,
                                          coll::PowerScheme::kProposed,
                                          1 << 16))
                .multiplicity,
            1);
  EXPECT_EQ(sym::decide(fat_tree_config(),
                        quick_bench(coll::Op::kAlltoall,
                                    coll::PowerScheme::kProposed, 1 << 16))
                .multiplicity,
            8);
  // Rooted collectives are not rank-equivariant.
  EXPECT_EQ(sym::decide(fat_tree_config(),
                        quick_bench(coll::Op::kBcast,
                                    coll::PowerScheme::kNone, 1 << 16))
                .multiplicity,
            1);
}

TEST(CollapseDecide, StragglerBlamesExactlyItsClass) {
  ClusterConfig cfg = fat_tree_config();
  cfg.faults = *fault::FaultSpec::parse("seed=17,stragglers=1,slow=1.5");
  const auto d = sym::decide(
      cfg, quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 4096));
  EXPECT_EQ(d.multiplicity, 1);
  EXPECT_FALSE(d.reason.empty());
  const auto nodes =
      fault::FaultInjector::straggler_nodes(cfg.faults, cfg.nodes);
  ASSERT_EQ(nodes.size(), 1u);
  ASSERT_EQ(d.broken_classes.size(), 1u);
  // Class = the straggler's position within its top-level group of 4.
  EXPECT_EQ(d.broken_classes[0], nodes[0] % 4);
}

// ------------------------------------------------- collapse equivalence ----

CollectiveReport run_with_multiplicity(ClusterConfig cfg,
                                       const CollectiveBenchSpec& bench,
                                       int multiplicity) {
  cfg.collapse_multiplicity = multiplicity;
  return measure_collective(cfg, bench);
}

void expect_equivalent(const ClusterConfig& cfg,
                       const CollectiveBenchSpec& bench, int expected_mult) {
  const CollectiveReport collapsed = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(collapsed.status.ok()) << collapsed.status.describe();
  ASSERT_TRUE(full.status.ok()) << full.status.describe();
  ASSERT_EQ(collapsed.collapse.multiplicity, expected_mult)
      << collapsed.collapse.reason;
  EXPECT_EQ(collapsed.collapse.simulated_ranks,
            cfg.ranks / expected_mult);
  EXPECT_EQ(full.collapse.multiplicity, 1);

  // Timing is the representative's window verbatim: bit-exact.
  EXPECT_EQ(collapsed.latency.ns(), full.latency.ns());
  // Energy integrals are scaled quotient sums — same addends, different
  // association — so exact up to 1e-9 relative.
  EXPECT_NEAR(collapsed.energy_per_op, full.energy_per_op,
              1e-9 * std::abs(full.energy_per_op));
  EXPECT_NEAR(collapsed.mean_power, full.mean_power,
              1e-9 * std::abs(full.mean_power));
  ASSERT_EQ(collapsed.power.samples().size(), full.power.samples().size());
  for (std::size_t i = 0; i < full.power.samples().size(); ++i) {
    EXPECT_EQ(collapsed.power.samples()[i].time.ns(),
              full.power.samples()[i].time.ns());
    EXPECT_NEAR(collapsed.power.samples()[i].watts,
                full.power.samples()[i].watts,
                1e-9 * std::abs(full.power.samples()[i].watts));
  }
}

TEST(CollapseEquivalence, PairwiseAlltoallOnFatTree) {
  // 256 ranks, power-of-two → XOR-equivariant combined sendrecv schedule.
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16), 8);
}

TEST(CollapseEquivalence, FreqScalingSchemeCollapsesToo) {
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kFreqScaling,
                  1 << 16),
      8);
}

TEST(CollapseEquivalence, ProposedSchemeOnFatTree) {
  // The §V power-aware exchange in its XOR form: socket-gated phases,
  // throttle transitions, node barriers, and the merged both-socket rounds
  // at translation-symmetric distances all collapse.
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kProposed, 1 << 16),
      8);
}

TEST(CollapseEquivalence, ProposedAlltoallvOnFatTree) {
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoallv, coll::PowerScheme::kProposed, 1 << 14),
      8);
}

TEST(CollapseEquivalence, ProposedFallsBackToDvfsWhenOneSocketEmpty) {
  // ppn 4 leaves socket B empty under the bunch mapping: the §V exchange is
  // not applicable, the run degrades to DVFS over pairwise, and that path
  // collapses like kFreqScaling.
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.ranks_per_node = 4;
  cfg.ranks = 64;
  cfg.fabric = {{4, 2.0}};
  expect_equivalent(
      cfg,
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kProposed, 1 << 16),
      4);
}

TEST(CollapseEquivalence, NonPowerOfTwoUsesTheCyclicAction) {
  ClusterConfig cfg;
  cfg.nodes = 12;
  cfg.ranks_per_node = 4;
  cfg.ranks = 48;  // not a power of two → split send/recv schedule
  cfg.fabric = {{3, 1.5}};
  expect_equivalent(
      cfg, quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16),
      4);
}

TEST(CollapseEquivalence, BruckSmallMessages) {
  ClusterConfig cfg;  // flat switch: every node is a top-level group
  expect_equivalent(
      cfg, quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 256),
      8);
}

TEST(CollapseEquivalence, AlltoallvOnFatTree) {
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kAlltoallv, coll::PowerScheme::kNone, 1 << 14),
      8);
}

TEST(CollapseEquivalence, DisseminationBarrier) {
  ClusterConfig cfg;
  expect_equivalent(
      cfg, quick_bench(coll::Op::kBarrier, coll::PowerScheme::kNone, 0), 8);
  expect_equivalent(
      fat_tree_config(),
      quick_bench(coll::Op::kBarrier, coll::PowerScheme::kNone, 0), 8);
}

TEST(CollapseEquivalence, MultiLevelFabric) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.ranks_per_node = 2;
  cfg.ranks = 32;
  cfg.fabric = {{2, 1.0}, {4, 2.0}};  // 2 top-level groups of 8 nodes
  expect_equivalent(
      cfg, quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16),
      2);
}

TEST(CollapseEquivalence, CoalescedRecomputesAreByteIdentical) {
  ClusterConfig cfg = fat_tree_config();
  cfg.network = presets::paper_network();
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16);
  ClusterConfig serial = cfg;
  serial.network->coalesce_rate_recomputes = false;
  const CollectiveReport coalesced = measure_collective(cfg, bench);
  const CollectiveReport eager = measure_collective(serial, bench);
  ASSERT_TRUE(coalesced.status.ok());
  EXPECT_EQ(coalesced.collapse.multiplicity, 8);
  EXPECT_EQ(coalesced.collapse.multiplicity, eager.collapse.multiplicity);
  // Deferring the water-filling to a zero-delay flush must not move a
  // single rate: both runs are the same simulation, bit for bit.
  EXPECT_EQ(coalesced.latency.ns(), eager.latency.ns());
  EXPECT_EQ(coalesced.energy_per_op, eager.energy_per_op);
}

// ----------------------------------------------- symmetry-breaking runs ----

TEST(CollapseDegradation, TracedRunIsByteIdenticalToUncollapsed) {
  ClusterConfig cfg = fat_tree_config();
  cfg.obs.trace = true;
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 14);
  const CollectiveReport traced = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(traced.status.ok()) << traced.status.describe();
  EXPECT_EQ(traced.collapse.multiplicity, 1);
  EXPECT_FALSE(traced.collapse.reason.empty());
  // Both ran 1:1: every artifact must be byte-identical, traces included.
  EXPECT_EQ(traced.latency.ns(), full.latency.ns());
  EXPECT_EQ(traced.energy_per_op, full.energy_per_op);
  ASSERT_FALSE(traced.trace_json.empty());
  EXPECT_EQ(traced.trace_json, full.trace_json);
}

TEST(CollapseDegradation, StragglerDecollapsesWithExactBlame) {
  ClusterConfig cfg = fat_tree_config();
  cfg.faults = *fault::FaultSpec::parse("seed=17,stragglers=1,slow=1.5");
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 14);
  const CollectiveReport faulted = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(faulted.status.usable()) << faulted.status.describe();
  EXPECT_EQ(faulted.collapse.multiplicity, 1);
  const auto nodes =
      fault::FaultInjector::straggler_nodes(cfg.faults, cfg.nodes);
  ASSERT_EQ(faulted.collapse.broken_classes.size(), 1u);
  EXPECT_EQ(faulted.collapse.broken_classes[0], nodes[0] % 4);
  EXPECT_EQ(faulted.latency.ns(), full.latency.ns());
  EXPECT_EQ(faulted.energy_per_op, full.energy_per_op);
}

TEST(CollapseDegradation, LinkFlapDecollapsesByteIdentically) {
  ClusterConfig cfg = fat_tree_config();
  cfg.faults = *fault::FaultSpec::parse("seed=7,drop=0.01,flap=50");
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 14);
  const CollectiveReport faulted = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(faulted.status.usable()) << faulted.status.describe();
  EXPECT_EQ(faulted.collapse.multiplicity, 1);
  EXPECT_FALSE(faulted.collapse.reason.empty());
  EXPECT_EQ(faulted.latency.ns(), full.latency.ns());
  EXPECT_EQ(faulted.energy_per_op, full.energy_per_op);
  EXPECT_EQ(faulted.faults.drops, full.faults.drops);
  EXPECT_EQ(faulted.faults.link_flaps, full.faults.link_flaps);
}

// ------------------------------------------------------ campaign sweeps ----

TEST(CollapseCampaign, ArtifactsAreJobsInvariantAndRecordMultiplicity) {
  SweepSpec sweep;
  for (const coll::PowerScheme scheme :
       {coll::PowerScheme::kNone, coll::PowerScheme::kFreqScaling}) {
    sweep.add(fat_tree_config(),
              quick_bench(coll::Op::kAlltoall, scheme, 1 << 14),
              "fat-tree/" + coll::to_string(scheme));
    ClusterConfig flat;
    sweep.add(flat, quick_bench(coll::Op::kBarrier, scheme, 0),
              "flat/" + coll::to_string(scheme));
  }
  CampaignOptions serial;
  serial.jobs = 1;
  CampaignOptions threaded;
  threaded.jobs = 3;
  const auto a = Campaign(sweep, serial).run();
  const auto b = Campaign(sweep, threaded).run();
  std::ostringstream a_json, b_json;
  write_campaign_json(a_json, sweep, a);
  write_campaign_json(b_json, sweep, b);
  EXPECT_EQ(a_json.str(), b_json.str());
  EXPECT_NE(a_json.str().find("\"collapse_multiplicity\": 8"),
            std::string::npos);
  for (const CellResult& cell : a) {
    EXPECT_TRUE(cell.status.ok()) << cell.label;
    EXPECT_EQ(cell.report.collapse.multiplicity, 8) << cell.label;
  }
}

}  // namespace
}  // namespace pacc
