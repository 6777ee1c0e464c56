#include "hw/machine.hpp"

#include <gtest/gtest.h>

#include "pacc/presets.hpp"

namespace pacc::hw {
namespace {

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(engine_, presets::paper_machine(2)) {}

  sim::Engine engine_;
  Machine machine_;
};

TEST_F(MachineTest, InitialStateIsFmaxT0Busy) {
  const CoreId c{0, 0, 0};
  EXPECT_EQ(machine_.frequency(c), machine_.params().fmax);
  EXPECT_EQ(machine_.throttle(c), 0);
  EXPECT_EQ(machine_.activity(c), Activity::kBusy);
  EXPECT_DOUBLE_EQ(machine_.cpu_slowdown(c), 1.0);
}

TEST_F(MachineTest, SystemPowerIsSumOfParts) {
  const auto& p = machine_.params().power;
  const Watts expected =
      p.node_base * 2 + p.socket_uncore * 4 +
      16 * p.core_power(machine_.params().fmax, machine_.params().fmax, 0,
                        Activity::kBusy);
  EXPECT_NEAR(machine_.system_power(), expected, 1e-9);
  EXPECT_NEAR(machine_.node_power(0) + machine_.node_power(1),
              machine_.system_power(), 1e-9);
}

TEST_F(MachineTest, DvfsChangesSlowdownAndPower) {
  const CoreId c{0, 0, 0};
  const Watts before = machine_.system_power();
  machine_.set_frequency(c, machine_.params().fmin);
  EXPECT_LT(machine_.system_power(), before);
  EXPECT_NEAR(machine_.cpu_slowdown(c), 2.4 / 1.6, 1e-12);
}

TEST_F(MachineTest, SocketThrottleHitsAllFourCores) {
  machine_.set_socket_throttle(0, 1, 7);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(machine_.throttle(CoreId{0, 1, k}), 7);
  }
  // Socket A untouched.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(machine_.throttle(CoreId{0, 0, k}), 0);
  }
}

TEST_F(MachineTest, ThrottleSlowdownIsInverseActivity) {
  const CoreId c{0, 0, 1};
  machine_.set_core_throttle(c, 4);
  EXPECT_NEAR(machine_.throttle_slowdown(c), 2.0, 1e-12);  // c4 = 0.5
  EXPECT_NEAR(machine_.cpu_slowdown(c), 2.0, 1e-12);
}

TEST_F(MachineTest, EnergyIntegratesPowerOverTime) {
  engine_.schedule(Duration::seconds(2.0), [] {});
  engine_.run();
  const Joules e = machine_.total_energy();
  EXPECT_NEAR(e, machine_.system_power() * 2.0, 1e-6);
}

TEST_F(MachineTest, EnergyAccountsForStateChanges) {
  const Watts p_full = machine_.system_power();
  // After 1 s, drop every core on node 0 to idle for 1 s.
  engine_.schedule(Duration::seconds(1.0), [&] {
    for (int s = 0; s < 2; ++s) {
      for (int k = 0; k < 4; ++k) {
        machine_.set_activity(CoreId{0, s, k}, Activity::kIdle);
      }
    }
  });
  engine_.schedule(Duration::seconds(2.0), [] {});
  engine_.run();
  const Watts p_idle_node0 = machine_.system_power();
  EXPECT_LT(p_idle_node0, p_full);
  EXPECT_NEAR(machine_.total_energy(), p_full * 1.0 + p_idle_node0 * 1.0,
              1e-6);
}

TEST_F(MachineTest, DvfsTransitionChargesOverhead) {
  bool done = false;
  auto task = [](Machine& m, sim::Engine& e, bool& flag) -> sim::Task<> {
    const TimePoint before = e.now();
    co_await m.dvfs_transition(CoreId{0, 0, 0}, m.params().fmin);
    flag = (e.now() - before) == m.params().dvfs_overhead;
  }(machine_, engine_, done);
  engine_.spawn(std::move(task));
  engine_.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine_.frequency(CoreId{0, 0, 0}), machine_.params().fmin);
}

TEST_F(MachineTest, TransitionChargesOldPowerDuringOverheadWindow) {
  // Regression: the P-state used to flip at request time, charging the NEW
  // state's power across the O_dvfs window. The PLL is still relocking
  // during that window, so the OLD state's power must be integrated until
  // the transition completes.
  const Watts p_fmax = machine_.system_power();
  Joules mid_energy = 0.0;
  auto task = [](Machine& m, sim::Engine& e, Joules& mid) -> sim::Task<> {
    co_await m.dvfs_transition(CoreId{0, 0, 0}, m.params().fmin);
    mid = m.total_energy();
    co_await e.delay(m.params().dvfs_overhead);  // equal window after
  }(machine_, engine_, mid_energy);
  engine_.spawn(std::move(task));
  engine_.run();
  const double w = machine_.params().dvfs_overhead.sec();
  EXPECT_NEAR(mid_energy, p_fmax * w, 1e-9);
  const Watts p_after = machine_.system_power();
  EXPECT_LT(p_after, p_fmax);
  EXPECT_NEAR(machine_.total_energy() - mid_energy, p_after * w, 1e-9);
}

TEST_F(MachineTest, TransitionFaultHookRejectsAndStretches) {
  machine_.set_transition_fault_hook([](const CoreId&, TransitionKind) {
    return TransitionOutcome{.apply = false, .latency_scale = 3.0};
  });
  bool applied = true;
  Duration paid;
  auto task = [](Machine& m, sim::Engine& e, bool& ok,
                 Duration& cost) -> sim::Task<> {
    const TimePoint t0 = e.now();
    ok = co_await m.dvfs_transition(CoreId{0, 0, 0}, m.params().fmin);
    cost = e.now() - t0;
  }(machine_, engine_, applied, paid);
  engine_.spawn(std::move(task));
  engine_.run();
  EXPECT_FALSE(applied);
  // Rejected AND stretched: the frequency is unchanged but the (tripled)
  // overhead was still paid.
  EXPECT_EQ(machine_.frequency(CoreId{0, 0, 0}), machine_.params().fmax);
  EXPECT_EQ(paid.ns(), machine_.params().dvfs_overhead.ns() * 3);
}

TEST_F(MachineTest, NodeSlowdownMultipliesCpuSlowdown) {
  machine_.set_node_slowdown(1, 2.5);
  EXPECT_DOUBLE_EQ(machine_.cpu_slowdown(CoreId{0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(machine_.cpu_slowdown(CoreId{1, 0, 0}), 2.5);
  machine_.set_core_throttle(CoreId{1, 0, 0}, 4);  // c4 = 0.5 → ×2
  EXPECT_DOUBLE_EQ(machine_.cpu_slowdown(CoreId{1, 0, 0}), 5.0);
}

TEST_F(MachineTest, ThrottleTransitionGranularityFollowsParams) {
  auto task = [](Machine& m) -> sim::Task<> {
    co_await m.throttle_transition(CoreId{0, 0, 0}, 7);
  }(machine_);
  engine_.spawn(std::move(task));
  engine_.run();
  // Socket-granular by default: the whole socket is at T7.
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(machine_.throttle(CoreId{0, 0, k}), 7);
  }
}

TEST(MachineCoreLevel, CoreGranularThrottleTouchesOneCore) {
  sim::Engine engine;
  auto params = presets::paper_machine(1);
  params.core_level_throttling = true;
  Machine machine(engine, params);
  auto task = [](Machine& m) -> sim::Task<> {
    co_await m.throttle_transition(CoreId{0, 0, 0}, 7);
  }(machine);
  engine.spawn(std::move(task));
  engine.run();
  EXPECT_EQ(machine.throttle(CoreId{0, 0, 0}), 7);
  for (int k = 1; k < 4; ++k) {
    EXPECT_EQ(machine.throttle(CoreId{0, 0, k}), 0);
  }
}

TEST_F(MachineTest, CoreStatsTrackBusyIdleThrottled) {
  const CoreId c{0, 0, 2};
  engine_.schedule(Duration::seconds(1.0), [&] {
    machine_.set_activity(c, Activity::kIdle);
    machine_.set_core_throttle(c, 5);
  });
  engine_.schedule(Duration::seconds(3.0), [] {});
  engine_.run();
  const CoreStats stats = machine_.core_stats(c);
  EXPECT_EQ(stats.busy_time, Duration::seconds(1.0));
  EXPECT_EQ(stats.idle_time, Duration::seconds(2.0));
  EXPECT_EQ(stats.throttled_time, Duration::seconds(2.0));
  EXPECT_GT(stats.energy, 0.0);
}

// The machine caches each core's fmax/f and 1/c_t; every read must equal
// the uncached formulas bit for bit, in the product order freq · throttle ·
// node, whatever path last changed the core.
class SlowdownCacheTest : public MachineTest {
 protected:
  void expect_formulas(const CoreId& c) {
    const MachineParams& p = machine_.params();
    const double freq = p.fmax.hz() / machine_.frequency(c).hz();
    const double throttle =
        1.0 / ThrottleLevel::activity_factor(machine_.throttle(c));
    EXPECT_EQ(machine_.freq_slowdown(c), freq);
    EXPECT_EQ(machine_.throttle_slowdown(c), throttle);
    EXPECT_EQ(machine_.cpu_slowdown(c),
              freq * throttle * machine_.node_slowdown(c.node));
  }

  void expect_all() {
    for (int node = 0; node < 2; ++node) {
      for (int socket = 0; socket < 2; ++socket) {
        for (int k = 0; k < 4; ++k) expect_formulas(CoreId{node, socket, k});
      }
    }
  }
};

TEST_F(SlowdownCacheTest, InitialStateMatchesFormulas) { expect_all(); }

TEST_F(SlowdownCacheTest, FrequencyChangesMatchFormulas) {
  const CoreId c{1, 0, 3};
  const MachineParams& p = machine_.params();
  for (const Frequency f :
       {p.fmin, Frequency::ghz(1.7), Frequency::ghz(2.0), Frequency::ghz(2.3),
        p.fmax, p.fmin}) {
    machine_.set_frequency(c, f);
    expect_all();
  }
  EXPECT_EQ(machine_.freq_slowdown(c), p.fmax.hz() / p.fmin.hz());
}

TEST_F(SlowdownCacheTest, ThrottleChangesMatchFormulas) {
  const CoreId c{0, 1, 2};
  for (int t = ThrottleLevel::kMin; t <= ThrottleLevel::kMax; ++t) {
    machine_.set_core_throttle(c, t);
    expect_all();
    machine_.set_socket_throttle(1, 0, ThrottleLevel::kMax - t);
    expect_all();
  }
  EXPECT_EQ(machine_.throttle_slowdown(c), 1.0 / 0.125);  // T7
  machine_.set_core_throttle(c, ThrottleLevel::kMin);
  EXPECT_EQ(machine_.throttle_slowdown(c), 1.0);
}

TEST_F(SlowdownCacheTest, CornersAndNodeSlowdownMatchFormulas) {
  const MachineParams& p = machine_.params();
  const CoreId c{1, 1, 0};
  machine_.set_node_slowdown(1, 1.37);
  expect_all();
  machine_.set_frequency(c, p.fmin);
  machine_.set_core_throttle(c, ThrottleLevel::kMax);
  expect_all();  // fmin at T7 on a straggler node
  machine_.set_node_slowdown(1, 3.0);
  machine_.set_activity(c, Activity::kIdle);
  expect_all();
  machine_.set_frequency(c, p.fmax);
  machine_.set_socket_throttle(1, 1, ThrottleLevel::kMin);
  machine_.set_node_slowdown(1, 1.0);
  expect_all();
  EXPECT_EQ(machine_.cpu_slowdown(c), 1.0);
}

}  // namespace
}  // namespace pacc::hw
