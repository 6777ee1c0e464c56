// Dragonfly fabric suite.
//
// Contracts under test. The shape: group/router arithmetic, derived link
// bandwidths, and the mutual exclusion with fat-tree fabrics and the rack
// layer. The network: flows take exactly the dragonfly path their
// endpoints dictate — HCA-only on a shared router, one router-mesh hop
// inside a group, global up/down across groups, a deterministic Valiant
// detour under adaptive routing — and per-router / per-global-link
// efficiency knobs strand only the traffic that crosses them. The
// collapse: minimal-routed dragonfly groups are translation classes
// (collapsed runs byte-identical to 1:1 across pairwise, Bruck, proposed
// and barrier), while adaptive routing de-collapses with a named reason.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "fault/fault.hpp"
#include "net/network.hpp"
#include "pacc/simulation.hpp"
#include "sym/collapse.hpp"

namespace pacc {
namespace {

// ------------------------------------------------------------- shape ----

hw::ClusterShape df_shape(int nodes, int routers_per_group,
                          int nodes_per_router, bool adaptive = false) {
  hw::ClusterShape shape;
  shape.nodes = nodes;
  shape.dragonfly.routers_per_group = routers_per_group;
  shape.dragonfly.nodes_per_router = nodes_per_router;
  shape.dragonfly.adaptive = adaptive;
  return shape;
}

net::NetworkParams flat_params() {
  net::NetworkParams p;
  p.link_bandwidth = 1e9;
  p.shm_bandwidth = 2e9;
  p.contention_penalty = 0.0;
  return p;
}

TEST(DragonflyShape, ValidityAndDerivedStructure) {
  hw::ClusterShape shape = df_shape(16, 2, 2);  // 4 groups of 4 nodes
  EXPECT_TRUE(shape.valid());
  EXPECT_TRUE(shape.dragonfly.enabled());
  EXPECT_EQ(shape.translation_group_nodes(), 4);

  // The network's level table: level 0 = routers, level 1 = groups.
  sim::Engine e;
  const net::FlowNetwork net(e, shape, flat_params());
  ASSERT_EQ(net.levels().size(), 2u);
  const net::Level& routers = net.levels()[0];
  const net::Level& groups = net.levels()[1];
  EXPECT_EQ(groups.nodes_per_group, 4);
  EXPECT_EQ(groups.groups, 4);
  EXPECT_EQ(routers.groups, 8);
  EXPECT_EQ(routers.group_of(0), 0);
  EXPECT_EQ(routers.group_of(3), 1);
  EXPECT_EQ(routers.group_of(5), 2);
  EXPECT_EQ(groups.group_of(3), 0);
  EXPECT_EQ(groups.group_of(4), 1);
  EXPECT_EQ(groups.group_of(15), 3);

  // Derived bandwidths: router = node_bw × nodes per router, global =
  // node_bw × nodes per group; explicit overrides win.
  EXPECT_DOUBLE_EQ(routers.bandwidth, 2e9);
  EXPECT_DOUBLE_EQ(groups.bandwidth, 4e9);
  shape.dragonfly.local_bandwidth = 0.5e9;
  shape.dragonfly.global_bandwidth = 1.5e9;
  const net::FlowNetwork overridden(e, shape, flat_params());
  EXPECT_DOUBLE_EQ(overridden.levels()[0].bandwidth, 0.5e9);
  EXPECT_DOUBLE_EQ(overridden.levels()[1].bandwidth, 1.5e9);
}

TEST(DragonflyShape, RejectsIllFormedAndMixedTopologies) {
  // Group size must divide the node count.
  EXPECT_FALSE(df_shape(10, 2, 2).valid());
  // routers_per_group == 0 disables the dragonfly entirely (the shape is
  // a plain flat cluster); nodes_per_router == 0 is ill-formed.
  EXPECT_FALSE(df_shape(16, 0, 2).dragonfly.enabled());
  EXPECT_TRUE(df_shape(16, 0, 2).valid());
  EXPECT_FALSE(df_shape(16, 2, 0).valid());
  // A dragonfly replaces both the fat-tree fabric and the rack layer.
  hw::ClusterShape mixed = df_shape(16, 2, 2);
  mixed.fabric = {{4, 1.0}};
  EXPECT_FALSE(mixed.valid());
  hw::ClusterShape racked = df_shape(16, 2, 2);
  racked.nodes_per_rack = 4;
  EXPECT_FALSE(racked.valid());
}

// ----------------------------------------------------------- routing ----

/// Expected link ids for the 16-node / 2-router / 2-node shape: HCA
/// up = node, down = 16 + node, shm = 32 + node; the dragonfly levels
/// follow at 48: router up = 48 + r, router down = 56 + r, global up =
/// 64 + g, global down = 68 + g.
constexpr int kUpBase = 0, kDownBase = 16, kRouterUp = 48, kRouterDown = 56,
              kGlobalUp = 64, kGlobalDown = 68;

/// Fault units of the same shape: 16 HCAs, then 8 routers, then 4 groups.
constexpr int kRouterUnit = 16, kGlobalUnit = 24;

std::vector<int> flow_links(net::FlowNetwork& net, int src, int dst,
                            bool via_top = false) {
  const auto handle =
      net.start_flow(src, dst, 1024, /*force_loopback=*/false,
                     /*wire_multiplier=*/1.0, /*on_delivered=*/{}, via_top);
  (void)handle;
  const auto flows = net.snapshot_flows();
  EXPECT_EQ(flows.size(), 1u);
  return flows.empty() ? std::vector<int>{} : flows.front().links;
}

TEST(DragonflyNetwork, SameRouterPairsUseOnlyHcaLinks) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2), flat_params());
  EXPECT_EQ(flow_links(net, 0, 1),
            (std::vector<int>{kUpBase + 0, kDownBase + 1}));
}

TEST(DragonflyNetwork, GroupLocalPairsCrossTheRouterMesh) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2), flat_params());
  // Nodes 0 (router 0) and 2 (router 1) share group 0.
  EXPECT_EQ(flow_links(net, 0, 2),
            (std::vector<int>{kUpBase + 0, kDownBase + 2, kRouterUp + 0,
                              kRouterDown + 1}));
}

TEST(DragonflyNetwork, CrossGroupMinimalPathUsesOneGlobalHop) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2), flat_params());
  // Node 1 (router 0, group 0) → node 6 (router 3, group 1).
  EXPECT_EQ(flow_links(net, 1, 6),
            (std::vector<int>{kUpBase + 1, kDownBase + 6, kRouterUp + 0,
                              kGlobalUp + 0, kGlobalDown + 1,
                              kRouterDown + 3}));
}

TEST(DragonflyNetwork, AdaptiveRoutingDetoursThroughValiantGroup) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2, /*adaptive=*/true),
                       flat_params());
  // Group 0 → group 1: the deterministic intermediate is group 2 (first
  // group after the source that is neither endpoint).
  EXPECT_EQ(flow_links(net, 1, 6),
            (std::vector<int>{kUpBase + 1, kDownBase + 6, kRouterUp + 0,
                              kGlobalUp + 0, kGlobalDown + 2, kGlobalUp + 2,
                              kGlobalDown + 1, kRouterDown + 3}));
  // Group-local traffic never detours (fresh net: flow_links expects a
  // quiescent network).
  sim::Engine e2;
  net::FlowNetwork net2(e2, df_shape(16, 2, 2, /*adaptive=*/true),
                        flat_params());
  EXPECT_EQ(flow_links(net2, 0, 2).size(), 4u);
}

TEST(DragonflyNetwork, ViaTopForcesTheMinimalCrossGroupPath) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2, /*adaptive=*/true),
                       flat_params());
  // The collapse runtime's representative path: full climb with distinct
  // link ids even for a same-router (here same-node) pair, and never the
  // Valiant detour.
  EXPECT_EQ(flow_links(net, 0, 0, /*via_top=*/true),
            (std::vector<int>{kUpBase + 0, kDownBase + 0, kRouterUp + 0,
                              kGlobalUp + 0, kGlobalDown + 0,
                              kRouterDown + 0}));
}

TEST(DragonflyNetwork, EfficiencyKnobsStrandOnlyCrossingTraffic) {
  sim::Engine e;
  net::FlowNetwork net(e, df_shape(16, 2, 2), flat_params());
  // Kill group 1's global link: group-local and other-group traffic keep
  // flowing, anything entering or leaving group 1 is stranded.
  net.set_unit_efficiency(kGlobalUnit + 1, 0.0);
  EXPECT_TRUE(net.path_up(0, 2));    // group-local
  EXPECT_TRUE(net.path_up(0, 12));   // group 0 → group 3
  EXPECT_FALSE(net.path_up(0, 6));   // into group 1
  EXPECT_FALSE(net.path_up(6, 0));   // out of group 1
  net.set_unit_efficiency(kGlobalUnit + 1, 1.0);
  EXPECT_TRUE(net.path_up(0, 6));

  // Kill router 1 (group 0): its mesh hop dies, same-router traffic and
  // other routers' paths survive.
  net.set_unit_efficiency(kRouterUnit + 1, 0.0);
  EXPECT_TRUE(net.path_up(0, 1));    // same router, HCA only
  EXPECT_FALSE(net.path_up(0, 2));   // crosses router 1's downlink
  EXPECT_TRUE(net.path_up(4, 6));    // group 1 is untouched
  net.set_unit_efficiency(kRouterUnit + 1, 1.0);
  EXPECT_TRUE(net.path_up(0, 2));
}

// ------------------------------------------------------- decide() gate ----

ClusterConfig df_config(bool adaptive = false) {
  ClusterConfig cfg;
  cfg.nodes = 32;
  cfg.ranks = 256;
  cfg.ranks_per_node = 8;
  cfg.dragonfly.routers_per_group = 2;
  cfg.dragonfly.nodes_per_router = 2;  // 8 groups of 4 nodes
  cfg.dragonfly.adaptive = adaptive;
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

TEST(DragonflyCollapseDecide, GroupsAreTranslationClasses) {
  const auto d = sym::decide(
      df_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16));
  EXPECT_EQ(d.multiplicity, 8);
  EXPECT_EQ(d.classes, 32);
  EXPECT_TRUE(d.reason.empty()) << d.reason;
  // The §V exchange takes its XOR form on a dragonfly too.
  EXPECT_EQ(sym::decide(df_config(),
                        quick_bench(coll::Op::kAlltoall,
                                    coll::PowerScheme::kProposed, 1 << 16))
                .multiplicity,
            8);
}

TEST(DragonflyCollapseDecide, AdaptiveRoutingDecollapsesWithReason) {
  const auto d = sym::decide(
      df_config(/*adaptive=*/true),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16));
  EXPECT_EQ(d.multiplicity, 1);
  EXPECT_NE(d.reason.find("adaptive"), std::string::npos) << d.reason;
}

TEST(DragonflyCollapseDecide, SingleGroupHasNoClassesToMerge) {
  ClusterConfig cfg = df_config();
  cfg.nodes = 4;
  cfg.ranks = 32;  // one group of 4 nodes
  const auto d = sym::decide(
      cfg, quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 4096));
  EXPECT_EQ(d.multiplicity, 1);
  EXPECT_FALSE(d.reason.empty());
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
  EXPECT_EQ(full.collapse.multiplicity, 1);
  EXPECT_EQ(collapsed.latency.ns(), full.latency.ns());
  EXPECT_NEAR(collapsed.energy_per_op, full.energy_per_op,
              1e-9 * std::abs(full.energy_per_op));
  EXPECT_NEAR(collapsed.mean_power, full.mean_power,
              1e-9 * std::abs(full.mean_power));
}

TEST(DragonflyCollapseEquivalence, PairwiseAlltoall) {
  expect_equivalent(
      df_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 16), 8);
}

TEST(DragonflyCollapseEquivalence, BruckSmallMessages) {
  expect_equivalent(
      df_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 256), 8);
}

TEST(DragonflyCollapseEquivalence, ProposedScheme) {
  expect_equivalent(
      df_config(),
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kProposed, 1 << 16),
      8);
}

TEST(DragonflyCollapseEquivalence, DisseminationBarrier) {
  expect_equivalent(
      df_config(),
      quick_bench(coll::Op::kBarrier, coll::PowerScheme::kNone, 0), 8);
}

TEST(DragonflyCollapseEquivalence, AdaptiveRunsFullButClean) {
  // Adaptive routing refuses the quotient; the 1:1 run must still work,
  // and the automatic decision must match a forced full run byte for byte.
  ClusterConfig cfg = df_config(/*adaptive=*/true);
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 14);
  const CollectiveReport automatic = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(automatic.status.ok()) << automatic.status.describe();
  EXPECT_EQ(automatic.collapse.multiplicity, 1);
  EXPECT_EQ(automatic.latency.ns(), full.latency.ns());
  EXPECT_EQ(automatic.energy_per_op, full.energy_per_op);
}

// ---------------------------------------------------------- fault units ----

TEST(DragonflyFaults, LinkFlapsDecollapseByteIdentically) {
  // Flap faults now draw router and global-link outages too; the faulted
  // run de-collapses and must match the forced 1:1 run exactly.
  ClusterConfig cfg = df_config();
  cfg.faults = *fault::FaultSpec::parse("seed=7,drop=0.01,flap=50");
  const auto bench =
      quick_bench(coll::Op::kAlltoall, coll::PowerScheme::kNone, 1 << 14);
  const CollectiveReport faulted = run_with_multiplicity(cfg, bench, 0);
  const CollectiveReport full = run_with_multiplicity(cfg, bench, 1);
  ASSERT_TRUE(faulted.status.usable()) << faulted.status.describe();
  EXPECT_EQ(faulted.collapse.multiplicity, 1);
  EXPECT_EQ(faulted.latency.ns(), full.latency.ns());
  EXPECT_EQ(faulted.energy_per_op, full.energy_per_op);
  EXPECT_EQ(faulted.faults.drops, full.faults.drops);
  EXPECT_EQ(faulted.faults.link_flaps, full.faults.link_flaps);
}

}  // namespace
}  // namespace pacc
