// Fault-injection subsystem: spec parsing, deterministic draws, recovery
// (retransmit / unreachable / watchdog), graceful power-scheme degradation,
// and the zero-rate byte-identity property (an inactive FaultSpec must not
// change one byte of any artifact).
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <set>
#include <sstream>
#include <vector>

#include "pacc/campaign.hpp"
#include "pacc/simulation.hpp"
#include "coll/registry.hpp"

namespace pacc {
namespace {

using fault::FaultSpec;

TEST(FaultSpec, ParsesKeyValueList) {
  std::string error;
  const auto spec = FaultSpec::parse(
      "seed=9,drop=0.25,delay=0.5,delay-us=80,flap=12.5,down-us=300,"
      "degrade=0.1,stragglers=2,slow=3,tfail=0.4,tstretch=0.2,stretch-max=6,"
      "ack-us=25,backoff=1.5,retries=4",
      &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->seed, 9u);
  EXPECT_DOUBLE_EQ(spec->drop_rate, 0.25);
  EXPECT_DOUBLE_EQ(spec->delay_rate, 0.5);
  EXPECT_DOUBLE_EQ(spec->delay_max.us(), 80.0);
  EXPECT_DOUBLE_EQ(spec->flap_rate_hz, 12.5);
  EXPECT_DOUBLE_EQ(spec->down_mean.us(), 300.0);
  EXPECT_DOUBLE_EQ(spec->degrade_factor, 0.1);
  EXPECT_EQ(spec->stragglers, 2);
  EXPECT_DOUBLE_EQ(spec->straggler_slowdown, 3.0);
  EXPECT_DOUBLE_EQ(spec->transition_fail_rate, 0.4);
  EXPECT_DOUBLE_EQ(spec->transition_stretch_rate, 0.2);
  EXPECT_DOUBLE_EQ(spec->transition_stretch_max, 6.0);
  EXPECT_DOUBLE_EQ(spec->ack_timeout.us(), 25.0);
  EXPECT_DOUBLE_EQ(spec->backoff_factor, 1.5);
  EXPECT_EQ(spec->retry_budget, 4);
  EXPECT_TRUE(spec->active());
}

TEST(FaultSpec, RejectsBadInput) {
  std::string error;
  EXPECT_FALSE(FaultSpec::parse("bogus=1", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultSpec::parse("drop=1.5", &error));  // probability > 1
  EXPECT_FALSE(FaultSpec::parse("drop", &error));      // missing value
  EXPECT_FALSE(FaultSpec::parse("drop=abc", &error));
  EXPECT_FALSE(FaultSpec::parse("retries=-1", &error));
}

TEST(FaultSpec, DefaultIsInactive) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.active());
  EXPECT_FALSE(spec.message_faults());
  // Stragglers with no slowdown change nothing.
  FaultSpec s2;
  s2.stragglers = 3;
  EXPECT_FALSE(s2.active());
}

TEST(FaultSpec, DeriveCellSeedIsIndexKeyedAndDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 100; ++i) {
    seeds.insert(fault::derive_cell_seed(7, i));
  }
  EXPECT_EQ(seeds.size(), 100u);
  EXPECT_EQ(fault::derive_cell_seed(7, 42), fault::derive_cell_seed(7, 42));
  EXPECT_NE(fault::derive_cell_seed(7, 42), fault::derive_cell_seed(8, 42));
}

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.nodes = 2;
  cfg.ranks = 8;
  cfg.ranks_per_node = 4;
  return cfg;
}

CollectiveBenchSpec alltoall_spec(coll::PowerScheme scheme = {}) {
  CollectiveBenchSpec spec;
  spec.op = coll::Op::kAlltoall;
  spec.message = 16 * 1024;
  spec.scheme = scheme;
  spec.iterations = 2;
  spec.warmup = 1;
  return spec;
}

TEST(FaultRecovery, DroppedMessagesAreRetransmittedAndValidated) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=3,drop=0.05");
  Simulation sim(cfg);
  int wrong_bytes = 0;
  const auto report = sim.run([&](mpi::Rank& r) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();
    const int P = world.size();
    const std::size_t blk = 2048;
    std::vector<std::byte> send(static_cast<std::size_t>(P) * blk);
    std::vector<std::byte> recv(send.size());
    for (int peer = 0; peer < P; ++peer) {
      for (std::size_t b = 0; b < blk; ++b) {
        send[static_cast<std::size_t>(peer) * blk + b] =
            static_cast<std::byte>((r.id() * 31 + peer * 7 + b) & 0xff);
      }
    }
    co_await coll::alltoall(r, world, send, recv, blk, {});
    for (int peer = 0; peer < P; ++peer) {
      for (std::size_t b = 0; b < blk; ++b) {
        const auto expect =
            static_cast<std::byte>((peer * 31 + r.id() * 7 + b) & 0xff);
        if (recv[static_cast<std::size_t>(peer) * blk + b] != expect) {
          ++wrong_bytes;
        }
      }
    }
  });
  EXPECT_EQ(wrong_bytes, 0);
  ASSERT_EQ(report.status.outcome, RunOutcome::kFaulted)
      << report.status.describe();
  EXPECT_TRUE(report.status.usable());
  EXPECT_GT(report.faults.drops, 0u);
  EXPECT_GT(report.faults.retransmits, 0u);
  EXPECT_EQ(report.faults.messages_abandoned, 0u);
}

TEST(FaultRecovery, TotalLossExhaustsRetryBudgetAsUnreachable) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=3,drop=1,ack-us=5,retries=3");
  const auto report = measure_collective(cfg, alltoall_spec());
  EXPECT_EQ(report.status.outcome, RunOutcome::kUnreachable);
  EXPECT_FALSE(report.status.usable());
  EXPECT_NE(report.status.message.find("unreachable"), std::string::npos)
      << report.status.message;
  EXPECT_GT(report.faults.messages_abandoned, 0u);
}

TEST(FaultRecovery, WatchdogCallsTrueDeadlockDespiteLiveFlapTimers) {
  ClusterConfig cfg = small_cluster();
  // Flap timers keep the event queue non-empty forever, so the engine's
  // "queue drained" deadlock signal can never fire; without the watchdog
  // this run would burn simulated time to max_sim_time (an hour).
  cfg.faults = *FaultSpec::parse("seed=3,flap=5");
  Simulation sim(cfg);
  const auto report = sim.run([](mpi::Rank& r) -> sim::Task<> {
    std::array<std::byte, 8> buf{};
    if (r.id() == 0) co_await r.recv(1, 99, buf);  // never sent
  });
  EXPECT_EQ(report.status.outcome, RunOutcome::kDeadlock);
  EXPECT_NE(report.status.message.find("watchdog"), std::string::npos)
      << report.status.message;
  // Caught within the stall window, not at the hour-long safety bound.
  EXPECT_LT(report.elapsed.sec(), 1.0);
}

TEST(FaultRecovery, LinkFlapsPreemptFlowsAndRecover) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=5,flap=2000,down-us=100");
  const auto report = measure_collective(cfg, alltoall_spec());
  ASSERT_TRUE(report.status.usable()) << report.status.describe();
  EXPECT_EQ(report.status.outcome, RunOutcome::kFaulted);
  EXPECT_GT(report.faults.link_flaps, 0u);
}

/// Repeats `bytes`-sized transfers src→dst until `end`, calling `on_fail`
/// at the instant one is refused or preempted.
sim::Task<> transfer_loop(net::FlowNetwork& net, sim::Engine& e, int src,
                          int dst, TimePoint end,
                          std::function<void()> on_fail) {
  while (e.now() < end) {
    const bool landed = co_await net.transfer(src, dst, 64 * 1024);
    if (!landed) {
      on_fail();
      co_await e.delay(Duration::micros(10));  // refusals take no time
    }
  }
}

TEST(FaultInjection, FlapsDownFatTreeAggregationUnits) {
  // A flap-heavy two-level fat tree: 8 nodes in four level-0 pairs under
  // two level-1 halves. Its aggregation groups are fault units after the 8
  // HCAs (level-0 groups 8-11, level-1 groups 12-13), so outages land on
  // them: node 0 → node 7 traffic, which climbs both levels, is preempted
  // while only aggregation units on its route are down, and node 2 → node
  // 3 traffic, inside one level-0 group, fails only with one of its HCAs.
  hw::MachineParams mp = presets::paper_machine(8);
  mp.shape.fabric = {{2, 1.0}, {2, 2.0}};
  sim::Engine e;
  hw::Machine machine(e, mp);
  net::FlowNetwork net(e, mp.shape, presets::paper_network());
  ASSERT_EQ(net.fault_units(), 8 + 4 + 2);
  fault::FaultInjector injector(*FaultSpec::parse("seed=4,flap=2000"), e,
                                machine, net);
  injector.arm();

  auto down = [&net](int unit) { return net.unit_efficiency(unit) == 0.0; };
  int cross_failures = 0;
  int cross_failures_aggregation_only = 0;
  int local_failures = 0;
  int local_failures_without_hca = 0;
  const TimePoint end = e.now() + Duration::millis(20);
  e.spawn(transfer_loop(net, e, 0, 7, end, [&] {
    ++cross_failures;
    if (!down(0) && !down(7) &&
        (down(8) || down(11) || down(12) || down(13))) {
      ++cross_failures_aggregation_only;
    }
  }));
  e.spawn(transfer_loop(net, e, 2, 3, end, [&] {
    ++local_failures;
    if (!down(2) && !down(3)) ++local_failures_without_hca;
  }));
  e.schedule_at(end, [&injector] { injector.stop(); });
  EXPECT_TRUE(e.run().all_tasks_finished);

  EXPECT_GT(cross_failures_aggregation_only, 0) << cross_failures;
  EXPECT_GT(local_failures, 0);  // its HCAs flap too
  EXPECT_EQ(local_failures_without_hca, 0);
  EXPECT_GT(injector.stats().flows_preempted, 0u);
}

TEST(FaultDegradation, DoomedTransitionsFallBackSymmetrically) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=3,tfail=1");
  const auto spec = alltoall_spec(coll::PowerScheme::kProposed);
  const auto report = measure_collective(cfg, spec);
  ASSERT_TRUE(report.status.usable()) << report.status.describe();
  // Every power-seeking call (warmup + timed) degraded; the interposed
  // barriers request kNone and never draw. With the fallback active no
  // machine transition is ever attempted, so only the fallback counter
  // moves.
  EXPECT_EQ(report.faults.scheme_fallbacks,
            static_cast<std::uint64_t>(spec.warmup + spec.iterations));
}

TEST(FaultDegradation, FallbackRunMatchesDefaultSchemeShape) {
  // With every transition doomed, 'proposed' must behave like the default
  // algorithm plus one wasted O_dvfs per call: slower than a plain
  // no-power run, but faster than a healthy fmin run of 'proposed' (whose
  // collective executes with stretched CPU costs and pays O_dvfs twice).
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=3,tfail=1");
  const auto doomed =
      measure_collective(cfg, alltoall_spec(coll::PowerScheme::kProposed));
  const auto none =
      measure_collective(small_cluster(), alltoall_spec());
  const auto healthy =
      measure_collective(small_cluster(),
                         alltoall_spec(coll::PowerScheme::kProposed));
  ASSERT_TRUE(doomed.status.usable());
  ASSERT_TRUE(none.status.ok());
  ASSERT_TRUE(healthy.status.ok());
  EXPECT_GT(doomed.latency.us(), none.latency.us());
  EXPECT_LT(doomed.latency.us(), healthy.latency.us());
}

TEST(FaultInjection, StragglersSlowTheRunDown) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=3,stragglers=1,slow=2");
  Simulation sim(cfg);
  // Pure compute: the run ends when the last rank finishes, and ranks on
  // the straggler node take slowdown × the work.
  const auto report = sim.run([](mpi::Rank& r) -> sim::Task<> {
    co_await r.compute(Duration::millis(1.0));
  });
  ASSERT_TRUE(report.status.usable()) << report.status.describe();
  EXPECT_NEAR(report.elapsed.ms(), 2.0, 0.01);
}

TEST(FaultInjection, SameSeedReproducesByteIdenticalArtifacts) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = *FaultSpec::parse("seed=17,drop=0.02,flap=50,tfail=0.3");
  cfg.obs.trace = true;
  const auto a = measure_collective(cfg, alltoall_spec());
  const auto b = measure_collective(cfg, alltoall_spec());
  ASSERT_TRUE(a.status.usable()) << a.status.describe();
  EXPECT_EQ(a.status.outcome, b.status.outcome);
  EXPECT_EQ(a.latency.ns(), b.latency.ns());
  EXPECT_EQ(a.faults.drops, b.faults.drops);
  EXPECT_EQ(a.faults.retransmits, b.faults.retransmits);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

// --- the zero-rate property: an all-zero-rate FaultSpec is indistinguishable
// --- from no FaultSpec at all, byte for byte, across the Fig-7 op × scheme
// --- sweep (tables, traces and campaign JSON).

SweepSpec fig7_sweep(bool zero_rate_spec) {
  // Fig-7 configuration (64 ranks, 8 per node), one small size per op ×
  // scheme so the full grid stays test-sized.
  SweepSpec sweep;
  for (const coll::Op op :
       {coll::Op::kAlltoall, coll::Op::kBcast, coll::Op::kAllreduce}) {
    for (const coll::PowerScheme scheme :
         {coll::PowerScheme::kNone, coll::PowerScheme::kFreqScaling,
          coll::PowerScheme::kProposed}) {
      ClusterConfig cfg;  // defaults: 64 ranks, 8 ppn — the Fig-7 testbed
      if (zero_rate_spec) {
        // Non-rate knobs set, every rate zero: must inject nothing.
        cfg.faults.seed = 99;
        cfg.faults.delay_max = Duration::micros(10.0);
        cfg.faults.retry_budget = 2;
        cfg.faults.stragglers = 4;  // slowdown stays 1.0: inactive
      }
      CollectiveBenchSpec bench;
      bench.op = op;
      bench.scheme = scheme;
      bench.message = 16 * 1024;
      bench.iterations = 1;
      bench.warmup = 0;
      sweep.add(cfg, bench,
                coll::to_string(op) + "/" + coll::to_string(scheme));
    }
  }
  return sweep;
}

TEST(FaultZeroRate, ByteIdenticalCampaignJsonAcrossFig7Sweep) {
  const SweepSpec plain = fig7_sweep(false);
  const SweepSpec zeroed = fig7_sweep(true);
  CampaignOptions opts;
  opts.jobs = 0;
  const auto plain_results = Campaign(plain, opts).run();
  const auto zeroed_results = Campaign(zeroed, opts).run();
  std::ostringstream plain_json, zeroed_json;
  write_campaign_json(plain_json, plain, plain_results);
  write_campaign_json(zeroed_json, zeroed, zeroed_results);
  EXPECT_EQ(plain_json.str(), zeroed_json.str());
  for (const CellResult& r : plain_results) {
    EXPECT_TRUE(r.status.ok()) << r.label << ": " << r.status.describe();
  }
}

TEST(FaultZeroRate, ByteIdenticalChromeTrace) {
  ClusterConfig plain;  // Fig-7 testbed
  plain.obs.trace = true;
  ClusterConfig zeroed = plain;
  zeroed.faults.seed = 1234;       // differs, but no rate is set
  zeroed.faults.retry_budget = 1;  // recovery knobs alone are inert
  const auto spec = alltoall_spec(coll::PowerScheme::kProposed);
  const auto a = measure_collective(plain, spec);
  const auto b = measure_collective(zeroed, spec);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.latency.ns(), b.latency.ns());
  EXPECT_EQ(a.energy_per_op, b.energy_per_op);
}

}  // namespace
}  // namespace pacc
