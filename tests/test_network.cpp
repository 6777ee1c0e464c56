#include "net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace pacc::net {
namespace {

const hw::ClusterShape kShape{4, 2, 4};

NetworkParams clean_params() {
  NetworkParams p;
  p.link_bandwidth = 1e9;  // 1 GB/s for round numbers
  p.shm_bandwidth = 2e9;
  p.contention_penalty = 0.0;
  return p;
}

struct Probe {
  TimePoint done;
  bool finished = false;
};

sim::Task<> transfer_probe(FlowNetwork& net, sim::Engine& e, int src, int dst,
                           Bytes bytes, Probe& probe, double mult = 1.0) {
  co_await net.transfer(src, dst, bytes, /*force_loopback=*/false, mult);
  probe.done = e.now();
  probe.finished = true;
}

TEST(FlowNetwork, SingleFlowRunsAtLinkRate) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe probe;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, probe));
  EXPECT_TRUE(e.run().all_tasks_finished);
  ASSERT_TRUE(probe.finished);
  // 1 MB at 1 GB/s = 1 ms.
  EXPECT_NEAR(probe.done.us(), 1000.0, 1.0);
  EXPECT_EQ(net.bytes_delivered(), 1'000'000u);
}

TEST(FlowNetwork, TwoFlowsShareTheUplink) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 0, 2, 1'000'000, b));
  e.run();
  // Both share node 0's uplink: each effectively gets 0.5 GB/s → 2 ms.
  EXPECT_NEAR(a.done.us(), 2000.0, 5.0);
  EXPECT_NEAR(b.done.us(), 2000.0, 5.0);
}

TEST(FlowNetwork, DisjointPathsDoNotInterfere) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 2, 3, 1'000'000, b));
  e.run();
  EXPECT_NEAR(a.done.us(), 1000.0, 1.0);
  EXPECT_NEAR(b.done.us(), 1000.0, 1.0);
}

TEST(FlowNetwork, ShortFlowFreesBandwidthForLongFlow) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe small, large;
  e.spawn(transfer_probe(net, e, 0, 1, 500'000, small));
  e.spawn(transfer_probe(net, e, 0, 2, 1'500'000, large));
  e.run();
  // Shared until the small flow finishes at 1 ms (0.5 MB at 0.5 GB/s),
  // then the large one runs alone: 0.5 MB done + 1.0 MB at full rate.
  EXPECT_NEAR(small.done.us(), 1000.0, 5.0);
  EXPECT_NEAR(large.done.us(), 2000.0, 5.0);
}

TEST(FlowNetwork, DownlinkIsAlsoABottleneck) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 3, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 1, 3, 1'000'000, b));
  e.run();
  EXPECT_NEAR(a.done.us(), 2000.0, 5.0);
  EXPECT_NEAR(b.done.us(), 2000.0, 5.0);
}

TEST(FlowNetwork, MaxMinFairnessAcrossMixedBottlenecks) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  // Flows: A 0→1, B 0→2, C 3→2. A and B share uplink(0); B and C share
  // downlink(2). Max-min: A = B = 0.5; C = 0.5 (its bottleneck leaves
  // headroom but fair share on downlink(2) is 0.5 each).
  Probe a, b, c;
  e.spawn(transfer_probe(net, e, 0, 1, 500'000, a));
  e.spawn(transfer_probe(net, e, 0, 2, 500'000, b));
  e.spawn(transfer_probe(net, e, 3, 2, 500'000, c));
  e.run();
  EXPECT_NEAR(a.done.us(), 1000.0, 10.0);
  EXPECT_NEAR(b.done.us(), 1000.0, 10.0);
  EXPECT_NEAR(c.done.us(), 1000.0, 10.0);
}

TEST(FlowNetwork, IntraNodeUsesSharedMemoryChannel) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe probe;
  e.spawn(transfer_probe(net, e, 1, 1, 1'000'000, probe));
  e.run();
  // 1 MB at 2 GB/s = 0.5 ms; the HCA links are untouched.
  EXPECT_NEAR(probe.done.us(), 500.0, 1.0);
}

sim::Task<> loopback_probe(FlowNetwork& net, sim::Engine& e, Probe& probe) {
  co_await net.transfer(1, 1, 1'000'000, /*force_loopback=*/true);
  probe.done = e.now();
  probe.finished = true;
}

TEST(FlowNetwork, LoopbackRoutesThroughHca) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe probe;
  e.spawn(loopback_probe(net, e, probe));
  e.run();
  // Blocking-mode fallback: 1 MB at the 1 GB/s HCA rate, not 2 GB/s shm.
  EXPECT_NEAR(probe.done.us(), 1000.0, 1.0);
}

TEST(FlowNetwork, ContentionPenaltyDegradesSharedLink) {
  sim::Engine e;
  NetworkParams params = clean_params();
  params.contention_penalty = 0.25;
  FlowNetwork net(e, kShape, params);
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 0, 2, 1'000'000, b));
  e.run();
  // Two flows: effective bw = 1/(1+0.25) GB/s shared by 2 → 2.5 ms each.
  EXPECT_NEAR(a.done.us(), 2500.0, 10.0);
  EXPECT_NEAR(b.done.us(), 2500.0, 10.0);
}

TEST(FlowNetwork, WireMultiplierStretchesTransfers) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe probe;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, probe, 1.2));
  e.run();
  EXPECT_NEAR(probe.done.us(), 1200.0, 2.0);
}

TEST(FlowNetwork, WireMultiplierFormula) {
  NetworkParams p;
  p.freq_wire_penalty = 0.2;
  p.throttle_wire_weight = 0.25;
  // Both endpoints at full speed.
  EXPECT_DOUBLE_EQ(p.wire_multiplier(1.0, 1.0, 1.0, 1.0), 1.0);
  // fmin endpoint (slowdown 1.5): 1 + 0.2·0.5 = 1.10.
  EXPECT_NEAR(p.wire_multiplier(1.5, 1.0, 1.0, 1.0), 1.10, 1e-12);
  // fmin + T4 leader (throttle slowdown 2): 1 + 0.2·0.5 + 0.05·1 = 1.15.
  EXPECT_NEAR(p.wire_multiplier(1.5, 2.0, 1.0, 1.0), 1.15, 1e-12);
  // The slower endpoint dominates.
  EXPECT_NEAR(p.wire_multiplier(1.0, 1.0, 1.5, 2.0), 1.15, 1e-12);
}

TEST(FlowNetwork, ShmPerFlowCapLimitsASingleCopy) {
  sim::Engine e;
  NetworkParams params = clean_params();
  params.shm_bandwidth = 8e9;
  params.shm_per_flow_bandwidth = 2e9;  // one core cannot use the channel
  FlowNetwork net(e, kShape, params);
  Probe probe;
  e.spawn(transfer_probe(net, e, 1, 1, 1'000'000, probe));
  e.run();
  // Capped at 2 GB/s even though 8 GB/s aggregate is free: 0.5 ms.
  EXPECT_NEAR(probe.done.us(), 500.0, 2.0);
}

TEST(FlowNetwork, ShmAggregateStillBindsManyFlows) {
  sim::Engine e;
  NetworkParams params = clean_params();
  params.shm_bandwidth = 4e9;
  params.shm_per_flow_bandwidth = 2e9;
  FlowNetwork net(e, kShape, params);
  std::vector<Probe> probes(4);
  for (int i = 0; i < 4; ++i) {
    e.spawn(transfer_probe(net, e, 1, 1, 1'000'000, probes[i]));
  }
  e.run();
  // Four concurrent copies share the 4 GB/s aggregate: 1 GB/s each → 1 ms
  // (the 2 GB/s per-flow cap is not the binding constraint).
  for (const auto& p : probes) EXPECT_NEAR(p.done.us(), 1000.0, 5.0);
}

TEST(FlowNetwork, ShmChannelExemptFromContentionPenalty) {
  sim::Engine e;
  NetworkParams params = clean_params();
  params.contention_penalty = 0.5;  // harsh on HCA links…
  params.shm_bandwidth = 2e9;
  params.shm_per_flow_bandwidth = 2e9;
  FlowNetwork net(e, kShape, params);
  Probe a, b;
  e.spawn(transfer_probe(net, e, 1, 1, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 1, 1, 1'000'000, b));
  e.run();
  // …but two 1 MB shm copies just split 2 GB/s fairly: 1 GB/s each → 1 ms.
  // With the penalty (wrongly) applied they would take 1.5 ms.
  EXPECT_NEAR(a.done.us(), 1000.0, 10.0);
  EXPECT_NEAR(b.done.us(), 1000.0, 10.0);
}

TEST(FlowNetwork, ZeroByteTransferCompletesInstantly) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe probe;
  e.spawn(transfer_probe(net, e, 0, 1, 0, probe));
  e.run();
  EXPECT_TRUE(probe.finished);
  EXPECT_EQ(probe.done.ns(), 0);
  EXPECT_EQ(net.active_flows(), 0u);
}

// ------------------------------------------------------------------------
// Property: the incremental, component-restricted water-filling must agree
// with an independent full global recompute at every instant. The reference
// below re-derives every active flow's max–min rate from scratch using only
// the public snapshot (links traversed, per-flow cap) and NetworkParams.

/// Full-network reference water-filler: progressive filling with two-phase
/// freeze rounds, per-flow caps applied after filling — the model the
/// incremental path must reproduce. Link bandwidths come from the network's
/// own layout: HCA links [0, 2N), shared-memory channels [2N, 3N), then
/// every switch level's up and down links.
std::vector<double> reference_global_rates(
    const std::vector<FlowNetwork::FlowView>& flows, const FlowNetwork& net,
    int nodes, const NetworkParams& p) {
  const std::size_t nlinks = net.link_count();
  std::vector<double> bandwidth(nlinks, 0.0);
  for (std::size_t l = 0; l < nlinks; ++l) {
    bandwidth[l] = l < 2 * static_cast<std::size_t>(nodes) ? p.link_bandwidth
                                                           : p.shm_bandwidth;
  }
  for (const Level& level : net.levels()) {
    for (int g = 0; g < 2 * level.groups; ++g) {
      bandwidth[static_cast<std::size_t>(level.first_link + g)] =
          level.bandwidth;
    }
  }
  std::vector<int> count(nlinks, 0);
  for (const auto& f : flows) {
    for (const int l : f.links) ++count[static_cast<std::size_t>(l)];
  }
  std::vector<double> residual(nlinks, 0.0);
  std::vector<int> unfrozen(nlinks, 0);
  for (std::size_t li = 0; li < nlinks; ++li) {
    if (count[li] == 0) continue;
    double bw = bandwidth[li];
    // Only HCA endpoint links pay the contention penalty; the shm channel
    // and every switch link (which model a switch fabric) are exempt.
    if (li < 2 * static_cast<std::size_t>(nodes) && count[li] > 1) {
      bw /= 1.0 + p.contention_penalty * (count[li] - 1);
    }
    residual[li] = bw;
    unfrozen[li] = count[li];
  }
  std::vector<double> wf(flows.size(), 0.0);
  std::vector<bool> frozen(flows.size(), false);
  std::size_t remaining = flows.size();
  while (remaining > 0) {
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t li = 0; li < nlinks; ++li) {
      if (unfrozen[li] > 0) best = std::min(best, residual[li] / unfrozen[li]);
    }
    std::vector<std::size_t> to_freeze;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (frozen[i]) continue;
      for (const int l : flows[i].links) {
        const auto li = static_cast<std::size_t>(l);
        if (residual[li] / unfrozen[li] <= best * (1.0 + 1e-12)) {
          to_freeze.push_back(i);
          break;
        }
      }
    }
    if (to_freeze.empty()) {
      ADD_FAILURE() << "water-filling failed to progress";
      return wf;
    }
    for (const std::size_t i : to_freeze) {
      frozen[i] = true;
      wf[i] = best;
      for (const int l : flows[i].links) {
        residual[static_cast<std::size_t>(l)] -= best;
        --unfrozen[static_cast<std::size_t>(l)];
      }
    }
    remaining -= to_freeze.size();
  }
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (flows[i].rate_cap > 0.0) wf[i] = std::min(wf[i], flows[i].rate_cap);
  }
  return wf;
}

/// The shapes the incremental filling is checked on: one of every level
/// kind, each oversubscribed so switch links bind too.
std::vector<std::pair<const char*, hw::ClusterShape>> churn_shapes() {
  std::vector<std::pair<const char*, hw::ClusterShape>> shapes;
  hw::ClusterShape racks{8, 2, 4, /*nodes_per_rack=*/4};
  shapes.emplace_back("two racks", racks);
  hw::ClusterShape fat{8, 2, 4};
  fat.fabric = {{2, 2.0}, {2, 2.0}};
  shapes.emplace_back("two-level fat tree", fat);
  hw::ClusterShape df{12, 2, 4};
  df.dragonfly.routers_per_group = 2;
  df.dragonfly.nodes_per_router = 2;
  df.dragonfly.local_bandwidth = 1.5e9;
  df.dragonfly.global_bandwidth = 2.5e9;
  shapes.emplace_back("minimal dragonfly", df);
  df.dragonfly.adaptive = true;
  shapes.emplace_back("adaptive dragonfly", df);
  return shapes;
}

TEST(FlowNetwork, IncrementalRatesMatchFullRecompute) {
  // Randomized arrival/departure churn, checkpointed at fixed simulated
  // times, over an oversubscribed two-rack cluster, a two-level fat tree
  // and minimal and adaptive dragonflies, with the contention penalty and
  // shm caps active: every active flow's incremental rate must match the
  // from-scratch global recompute to 1e-12 (relative). The flows mix plain,
  // force_loopback and via_top routes, and a third of them repeat an
  // earlier (src, dst, mode), so route classes hold many flows at once.
  for (const auto& [name, shape] : churn_shapes()) {
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      SCOPED_TRACE(testing::Message() << name << ", seed " << seed);
      sim::Engine e;
      NetworkParams params = clean_params();
      params.contention_penalty = 0.07;
      params.shm_per_flow_bandwidth = 0.9e9;
      params.rack_bandwidth = 1.5e9;  // 4 nodes/rack × 1 GB/s over 1.5 GB/s
      FlowNetwork net(e, shape, params);
      Rng rng(seed);
      struct Route {
        int src, dst;
        bool loopback, via_top;
      };
      std::vector<Route> routes;
      for (int i = 0; i < 120; ++i) {
        Route r;
        if (!routes.empty() && rng.next_below(3) == 0) {
          r = routes[rng.next_below(routes.size())];
        } else {
          const auto nodes = static_cast<std::uint64_t>(shape.nodes);
          r.src = static_cast<int>(rng.next_below(nodes));
          r.dst = static_cast<int>(rng.next_below(nodes));  // == src: shm
          const auto mode = rng.next_below(4);
          r.loopback = mode == 1;
          r.via_top = mode == 2;
          routes.push_back(r);
        }
        const Bytes bytes =
            20'000 + static_cast<Bytes>(rng.next_below(400'000));
        const double mult = 1.0 + 0.3 * rng.next_double();
        const auto start =
            Duration::micros(static_cast<double>(rng.next_below(3000)));
        e.schedule(start, [&net, r, bytes, mult] {
          net.start_flow(r.src, r.dst, bytes, r.loopback, mult, [] {},
                         r.via_top);
        });
      }
      int flows_checked = 0;
      const auto checkpoint = [&net, &params, &flows_checked, &shape] {
        const auto flows = net.snapshot_flows();
        const auto ref =
            reference_global_rates(flows, net, shape.nodes, params);
        for (std::size_t i = 0; i < flows.size(); ++i) {
          const double tol = 1e-12 * std::max(1.0, std::abs(ref[i]));
          EXPECT_NEAR(flows[i].rate, ref[i], tol) << "flow " << i;
          ++flows_checked;
        }
      };
      // Prime-ish stride so checkpoints land between, not on, arrival
      // ticks.
      for (int t = 13; t < 6000; t += 37) {
        e.schedule(Duration::micros(static_cast<double>(t)), checkpoint);
      }
      e.run();
      EXPECT_EQ(net.active_flows(), 0u);
      EXPECT_GT(flows_checked, 200) << "churn did not overlap the checkpoints";
    }
  }
}

/// Transfers `bytes` src→dst and appends `id` to `log` when the transfer
/// returns, with its verdict.
sim::Task<> logged_transfer(FlowNetwork& net, int src, int dst, Bytes bytes,
                            int id, std::vector<std::pair<int, bool>>& log) {
  const bool landed = co_await net.transfer(src, dst, bytes);
  log.emplace_back(id, landed);
}

TEST(FlowNetwork, SameInstantCompletionsAndPreemptionsFollowLinkOrder) {
  // Three route classes interleaved on node 0's uplink: A = 0→1, B = 0→2,
  // C = 0→3. Flows that complete at one instant complete — and flows a
  // downed link kills are killed — in the order a walk over the uplink's
  // flows, newest first, meets them: by start order, newest first, across
  // classes. The order reaches every trace and every later event.
  const auto run = [](bool preempt) {
    sim::Engine e;
    FlowNetwork net(e, kShape, clean_params());
    std::vector<std::pair<int, bool>> log;
    // Start order: A1 B1 A2 C1 B2 C2 A3. The 1 MB flows share the uplink
    // and finish together; A3 is short and leaves first, so class A's
    // newest member departs while its others stay.
    const int dst[] = {1, 2, 1, 3, 2, 3, 1};
    for (int i = 0; i < 7; ++i) {
      e.spawn(logged_transfer(net, 0, dst[i], i == 6 ? 10'000 : 1'000'000, i,
                              log));
    }
    if (preempt) {
      e.schedule(Duration::micros(500),
                 [&net] { net.set_unit_efficiency(0, 0.0); });
    }
    e.run();
    return log;
  };

  // A3 first; then the rest at one instant, newest first.
  const std::vector<std::pair<int, bool>> completed = {
      {6, true}, {5, true}, {4, true}, {3, true},
      {2, true}, {1, true}, {0, true}};
  EXPECT_EQ(run(false), completed);
  // Downing node 0's HCA at 500 µs kills the six long flows, newest first.
  const std::vector<std::pair<int, bool>> preempted = {
      {6, true},  {5, false}, {4, false}, {3, false},
      {2, false}, {1, false}, {0, false}};
  EXPECT_EQ(run(true), preempted);
}

TEST(FlowNetwork, SparselyStampedClassesMergeInLinkOrder) {
  // Two route classes on node 0's uplink, X = 0→1 and Y = 0→2, whose
  // stamps lie far apart: 100 flows 2→3 start between X's first flow and
  // the rest, so the merge of X and Y spans 104 stamps for 4 flows and
  // sorts instead of placing them densely. The order is the same rule's:
  // newest first across classes, at a same-instant completion and at a
  // preemption alike.
  const auto run = [](bool preempt) {
    sim::Engine e;
    FlowNetwork net(e, kShape, clean_params());
    std::vector<std::pair<int, bool>> log;
    std::vector<std::pair<int, bool>> spacers;
    e.spawn(logged_transfer(net, 0, 1, 1'000'000, 0, log));  // X1
    for (int i = 0; i < 100; ++i) {
      e.spawn(logged_transfer(net, 2, 3, 10'000, i, spacers));
    }
    e.spawn(logged_transfer(net, 0, 2, 1'000'000, 1, log));  // Y1
    e.spawn(logged_transfer(net, 0, 1, 1'000'000, 2, log));  // X2
    e.spawn(logged_transfer(net, 0, 2, 1'000'000, 3, log));  // Y2
    if (preempt) {
      e.schedule(Duration::micros(500),
                 [&net] { net.set_unit_efficiency(0, 0.0); });
    }
    e.run();
    EXPECT_EQ(spacers.size(), 100u);
    return log;
  };

  const std::vector<std::pair<int, bool>> completed = {
      {3, true}, {2, true}, {1, true}, {0, true}};
  EXPECT_EQ(run(false), completed);
  const std::vector<std::pair<int, bool>> preempted = {
      {3, false}, {2, false}, {1, false}, {0, false}};
  EXPECT_EQ(run(true), preempted);
}

/// Delivery order of a random churn: 80 flows of 10–40 KB between any two
/// of 8 nodes (a quarter via_top), started on a 5 µs grid so arrivals and
/// completions pile up on shared instants, on racks, a two-level fat tree
/// or a minimal dragonfly by `seed` % 3. Returns an FNV-1a hash of the flow
/// ids in delivery order.
std::uint64_t churn_delivery_order(std::uint64_t seed) {
  hw::ClusterShape shape{8, 2, 4};
  switch (seed % 3) {
    case 0:
      shape.nodes_per_rack = 4;
      break;
    case 1:
      shape.fabric = {{2, 2.0}, {2, 2.0}};
      break;
    default:
      shape.dragonfly.routers_per_group = 2;
      shape.dragonfly.nodes_per_router = 2;
  }
  sim::Engine e;
  NetworkParams params = clean_params();
  params.rack_bandwidth = 1.5e9;
  FlowNetwork net(e, shape, params);
  Rng rng(seed);
  std::vector<int> log;
  for (int i = 0; i < 80; ++i) {
    const int src = static_cast<int>(rng.next_below(8));
    const int dst = static_cast<int>(rng.next_below(8));
    const bool via_top = rng.next_below(4) == 0;
    const Bytes bytes = 10'000 * static_cast<Bytes>(1 + rng.next_below(4));
    const auto start =
        Duration::micros(static_cast<double>(5 * rng.next_below(20)));
    e.schedule(start, [&net, &log, src, dst, bytes, i, via_top] {
      net.start_flow(
          src, dst, bytes, false, 1.0, [&log, i] { log.push_back(i); },
          via_top);
    });
  }
  e.run();
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const int id : log) {
    h ^= static_cast<std::uint64_t>(id);
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(FlowNetwork, ChurnDeliversInTheRecordedOrder) {
  // Recorded with the per-flow network, which walked each link's flows
  // newest first. Seeds 832, 1191 and 1254 need the component walk to
  // order a link's newly reached route classes by their newest member: a
  // class whose newest member left keeps its list position, and walking it
  // there reorders the links the walk appends, and with them the flows.
  const std::pair<std::uint64_t, std::uint64_t> recorded[] = {
      {1, 0x0610e444d57b5117ull}, {2, 0xf34a10db15fdf703ull},
      {3, 0xf1e3ad14ff7602a1ull}, {832, 0x5cdd74831bde30ddull},
      {1191, 0xa46d1327d34e1f5full}, {1254, 0xb2eae572dfe4591full}};
  for (const auto& [seed, order] : recorded) {
    EXPECT_EQ(churn_delivery_order(seed), order) << "seed " << seed;
  }
}

TEST(FlowNetwork, SnapshotFlowsReportsLinksAndRates) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 1, 1'000'000, a));
  e.spawn(transfer_probe(net, e, 0, 2, 1'000'000, b));
  e.run_until(TimePoint{} + Duration::micros(100));
  const auto flows = net.snapshot_flows();
  ASSERT_EQ(flows.size(), 2u);
  for (const auto& f : flows) {
    ASSERT_EQ(f.links.size(), 2u);  // uplink + downlink, no rack layer
    EXPECT_EQ(f.links[0], 0);       // both leave node 0
    EXPECT_NEAR(f.rate, 0.5e9, 1.0);
    EXPECT_GT(f.remaining, 0.0);
  }
  e.run();
}

TEST(FlowNetwork, StartFlowDeliversViaCallback) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  TimePoint delivered_at;
  bool delivered = false;
  const auto h = net.start_flow(0, 1, 1'000'000, /*force_loopback=*/false,
                                1.0, [&] {
                                  delivered = true;
                                  delivered_at = e.now();
                                });
  EXPECT_TRUE(net.flow_active(h));
  e.run();
  EXPECT_TRUE(delivered);
  EXPECT_NEAR(delivered_at.us(), 1000.0, 1.0);
  EXPECT_FALSE(net.flow_active(h));
  EXPECT_EQ(net.bytes_delivered(), 1'000'000u);
}

TEST(FlowNetwork, StaleFlowHandleIsInactiveAfterSlotReuse) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  const auto first = net.start_flow(0, 1, 1'000, false, 1.0, [] {});
  e.run();
  EXPECT_FALSE(net.flow_active(first));
  const auto second = net.start_flow(0, 1, 1'000, false, 1.0, [] {});
  EXPECT_EQ(second.slot, first.slot);  // slab reuses the freed slot…
  EXPECT_NE(second.gen, first.gen);    // …under a fresh generation
  EXPECT_FALSE(net.flow_active(first));
  EXPECT_TRUE(net.flow_active(second));
  e.run();
}

TEST(FlowNetwork, ReschedulesOnlyFlowsWhoseRateChanged) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  // Two disjoint-path flows plus a short one that contends with the first:
  // starting and finishing the third must never touch the second flow's
  // completion event — its component is disjoint.
  Probe a, b;
  e.spawn(transfer_probe(net, e, 0, 1, 4'000'000, a));
  e.spawn(transfer_probe(net, e, 2, 3, 4'000'000, b));
  std::uint64_t before = 0, after_arrival = 0, after_departure = 0;
  e.schedule(Duration::micros(99),
             [&] { before = net.completion_reschedules(); });
  // c shares both of a's links; at max–min 0.5 GB/s its 100 KB take 200 µs.
  e.schedule(Duration::micros(100), [&] {
    net.start_flow(0, 1, 100'000, /*force_loopback=*/false, 1.0, [] {});
  });
  e.schedule(Duration::micros(150),
             [&] { after_arrival = net.completion_reschedules(); });
  e.schedule(Duration::micros(350),
             [&] { after_departure = net.completion_reschedules(); });
  e.run();
  EXPECT_EQ(after_arrival - before, 2u);    // c scheduled + a repriced
  EXPECT_EQ(after_departure - after_arrival, 1u);  // a repriced; b untouched
  EXPECT_TRUE(a.finished);
  EXPECT_TRUE(b.finished);
}

TEST(FlowNetwork, ManyConcurrentFlowsAllComplete) {
  sim::Engine e;
  FlowNetwork net(e, kShape, clean_params());
  std::vector<Probe> probes(32);
  for (int i = 0; i < 32; ++i) {
    e.spawn(transfer_probe(net, e, i % 4, (i + 1) % 4, 100'000, probes[i]));
  }
  EXPECT_TRUE(e.run().all_tasks_finished);
  for (const auto& p : probes) EXPECT_TRUE(p.finished);
  EXPECT_EQ(net.active_flows(), 0u);
}

}  // namespace
}  // namespace pacc::net
