// One topology model: routes, link layout and fault units.
//
// Contracts under test. Routes: every (src, dst) route on a flat switch, a
// ragged rack layer, one- and two-level fat trees and minimal and adaptive
// dragonflies, in all three modes (plain, force_loopback, via_top), equals
// the route recorded in tests/data/routes.golden — link for link and in
// order, since the order fixes the water-filling's visit order and with it
// every event sequence number. Layout: a rack-less shape allocates no rack
// links. Fault units: HCAs first, then every level's groups, level-major,
// each with its trace label and span name. Rack bandwidth: a racked shape
// without one is rejected.

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/engine.hpp"

namespace pacc {
namespace {

std::map<std::string, hw::ClusterShape> golden_shapes() {
  std::map<std::string, hw::ClusterShape> shapes;
  hw::ClusterShape s;
  s.nodes = 4;
  shapes["flat4"] = s;

  s = {};
  s.nodes = 7;
  s.nodes_per_rack = 3;
  shapes["racks7x3"] = s;

  s = {};
  s.nodes = 8;
  s.fabric = {{4, 2.0}};
  shapes["fat1_8"] = s;

  s = {};
  s.nodes = 8;
  s.fabric = {{2, 1.0}, {2, 2.0}};
  shapes["fat2_8"] = s;

  s = {};
  s.nodes = 8;
  s.dragonfly.routers_per_group = 2;
  s.dragonfly.nodes_per_router = 2;
  shapes["dfmin8"] = s;

  s = {};
  s.nodes = 12;
  s.dragonfly.routers_per_group = 2;
  s.dragonfly.nodes_per_router = 2;
  s.dragonfly.adaptive = true;
  shapes["dfada12"] = s;
  return shapes;
}

/// The links of a lone flow src→dst, as the network reports them.
std::vector<int> route_of(const hw::ClusterShape& shape, int src, int dst,
                          bool force_loopback, bool via_top) {
  sim::Engine e;
  net::FlowNetwork net(e, shape, net::NetworkParams{});
  net.start_flow(src, dst, 1024, force_loopback, 1.0, {}, via_top);
  const auto flows = net.snapshot_flows();
  return flows.size() == 1 ? flows.front().links : std::vector<int>{};
}

TEST(RouteGolden, EveryRouteMatchesTheRecordedRouter) {
  const auto shapes = golden_shapes();
  std::ifstream in(PACC_ROUTES_GOLDEN);
  ASSERT_TRUE(in) << "cannot open " << PACC_ROUTES_GOLDEN;
  std::map<std::string, int> routes_per_shape;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string mode;
    int src = 0;
    int dst = 0;
    fields >> name >> mode >> src >> dst;
    const auto it = shapes.find(name);
    ASSERT_NE(it, shapes.end()) << line;
    const hw::ClusterShape& shape = it->second;
    std::vector<int> want;
    for (int id = 0; fields >> id;) {
      // The recorded router's unused rack pair at 3N, 3N+1 (see the file
      // header) is the only difference.
      if (!shape.has_racks() && id >= 3 * shape.nodes) id -= 2;
      want.push_back(id);
    }
    ASSERT_TRUE(mode == "plain" || mode == "loopback" || mode == "via_top")
        << line;
    EXPECT_EQ(route_of(shape, src, dst, mode == "loopback", mode == "via_top"),
              want)
        << line;
    ++routes_per_shape[name];
  }
  // Every (src, dst) pair in every mode, for every shape.
  ASSERT_EQ(routes_per_shape.size(), shapes.size());
  for (const auto& [name, shape] : shapes) {
    EXPECT_EQ(routes_per_shape[name], 3 * shape.nodes * shape.nodes) << name;
  }
}

TEST(LinkLayout, RacklessShapesAllocateNoRackLinks) {
  sim::Engine e;
  hw::ClusterShape flat;
  flat.nodes = 16;
  const net::FlowNetwork flat_net(e, flat, net::NetworkParams{});
  EXPECT_TRUE(flat_net.levels().empty());
  EXPECT_EQ(flat_net.link_count(), 48u);  // HCA up, HCA down, shm

  hw::ClusterShape fat = flat;
  fat.fabric = {{4, 1.0}};
  const net::FlowNetwork fat_net(e, fat, net::NetworkParams{});
  ASSERT_EQ(fat_net.levels().size(), 1u);
  EXPECT_EQ(fat_net.levels()[0].first_link, 48);
  EXPECT_EQ(fat_net.link_count(), 48u + 2 * 4);

  hw::ClusterShape racked = flat;
  racked.nodes_per_rack = 5;  // 4 racks, the last holding one node
  const net::FlowNetwork rack_net(e, racked, net::NetworkParams{});
  ASSERT_EQ(rack_net.levels().size(), 1u);
  EXPECT_EQ(rack_net.levels()[0].groups, 4);
  EXPECT_EQ(rack_net.levels()[0].group_of(15), 3);
  EXPECT_EQ(rack_net.link_count(), 48u + 2 * 4);
}

TEST(LinkLayout, RackedShapeNeedsRackBandwidth) {
  hw::ClusterShape racked;
  racked.nodes = 8;
  racked.nodes_per_rack = 4;
  net::NetworkParams params;
  params.rack_bandwidth = 0.0;
  sim::Engine e;
  EXPECT_DEATH(net::FlowNetwork(e, racked, params), "rack_bandwidth");
  // Without racks the value is unused.
  hw::ClusterShape flat = racked;
  flat.nodes_per_rack = 0;
  const net::FlowNetwork net(e, flat, params);
  EXPECT_TRUE(net.levels().empty());
}

struct UnitRow {
  std::string label;
  std::string span;
  int index;
  int uplink;
  int downlink;
};

std::vector<UnitRow> units_of(const hw::ClusterShape& shape) {
  sim::Engine e;
  const net::FlowNetwork net(e, shape, net::NetworkParams{});
  std::vector<UnitRow> rows;
  for (int u = 0; u < net.fault_units(); ++u) {
    const net::FaultUnit unit = net.fault_unit(u);
    rows.push_back({unit.label, unit.span, unit.index, unit.uplink,
                    unit.downlink});
  }
  return rows;
}

TEST(FaultUnits, HcasFirstThenEveryLevelsGroupsLevelMajor) {
  hw::ClusterShape flat;
  flat.nodes = 4;
  const auto flat_units = units_of(flat);
  ASSERT_EQ(flat_units.size(), 4u);
  for (int n = 0; n < 4; ++n) {
    const UnitRow& row = flat_units[static_cast<std::size_t>(n)];
    EXPECT_EQ(row.label, "hca node");
    EXPECT_EQ(row.span, "hca_down");
    EXPECT_EQ(row.index, n);
    EXPECT_EQ(row.uplink, n);
    EXPECT_EQ(row.downlink, 4 + n);
  }

  hw::ClusterShape racked;
  racked.nodes = 7;
  racked.nodes_per_rack = 3;
  const auto rack_units = units_of(racked);
  ASSERT_EQ(rack_units.size(), 7u + 3u);
  for (int r = 0; r < 3; ++r) {
    const UnitRow& row = rack_units[static_cast<std::size_t>(7 + r)];
    EXPECT_EQ(row.label, "rack link");
    EXPECT_EQ(row.span, "rack_down");
    EXPECT_EQ(row.index, r);
    EXPECT_EQ(row.uplink, 21 + r);
    EXPECT_EQ(row.downlink, 24 + r);
  }

  // 16 nodes, 2 routers per group, 2 nodes per router: 8 routers, 4 groups.
  hw::ClusterShape df;
  df.nodes = 16;
  df.dragonfly.routers_per_group = 2;
  df.dragonfly.nodes_per_router = 2;
  const auto df_units = units_of(df);
  ASSERT_EQ(df_units.size(), 16u + 8u + 4u);
  EXPECT_EQ(df_units[15].label, "hca node");
  for (int r = 0; r < 8; ++r) {
    const UnitRow& row = df_units[static_cast<std::size_t>(16 + r)];
    EXPECT_EQ(row.label, "df router");
    EXPECT_EQ(row.span, "df_router_down");
    EXPECT_EQ(row.index, r);
    EXPECT_EQ(row.uplink, 48 + r);
  }
  for (int g = 0; g < 4; ++g) {
    const UnitRow& row = df_units[static_cast<std::size_t>(24 + g)];
    EXPECT_EQ(row.label, "df global");
    EXPECT_EQ(row.span, "df_global_down");
    EXPECT_EQ(row.index, g);
    EXPECT_EQ(row.uplink, 64 + g);
    EXPECT_EQ(row.downlink, 68 + g);
  }

  // Fat-tree aggregation groups are fault units too, after the HCAs.
  hw::ClusterShape fat;
  fat.nodes = 8;
  fat.fabric = {{2, 1.0}, {2, 2.0}};
  const auto fat_units = units_of(fat);
  ASSERT_EQ(fat_units.size(), 8u + 4u + 2u);
  EXPECT_EQ(fat_units[8].label, "fabric l0 link");
  EXPECT_EQ(fat_units[8].span, "fabric_l0_down");
  EXPECT_EQ(fat_units[11].index, 3);
  EXPECT_EQ(fat_units[12].label, "fabric l1 link");
  EXPECT_EQ(fat_units[12].span, "fabric_l1_down");
  EXPECT_EQ(fat_units[13].index, 1);
  EXPECT_EQ(fat_units[13].uplink, 24 + 8 + 1);
}

}  // namespace
}  // namespace pacc
