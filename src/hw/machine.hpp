// Mutable hardware state for a whole cluster, with exact energy accounting.
//
// Machine holds each core's (frequency, T-state, activity). Power is a
// piecewise-constant function of that state (hw::PowerParams), so energy is
// integrated exactly: every state change first flushes `power · Δt` into the
// per-core and system accumulators. DVFS and throttle transitions are
// exposed as awaitable tasks that charge the paper's O_dvfs / O_throttle
// latencies to the issuing core.
#pragma once

#include <functional>
#include <vector>

#include "hw/power.hpp"
#include "hw/topology.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace pacc::hw {

struct MachineParams {
  ClusterShape shape;
  Frequency fmin = Frequency::ghz(1.6);
  Frequency fmax = Frequency::ghz(2.4);
  PowerParams power;
  Duration dvfs_overhead = Duration::micros(12.0);      ///< O_dvfs (10–15 µs)
  Duration throttle_overhead = Duration::micros(10.0);  ///< O_throttle

  /// Paper §V-B "future architectures": allow per-core T-states instead of
  /// the Nehalem's socket-granular throttling.
  bool core_level_throttling = false;
};

/// Which architectural transition a fault hook is consulted about.
enum class TransitionKind { kDvfs, kThrottle };

/// Verdict of a transition fault hook. `apply == false` models a rejected
/// request (PLL / PCU error): the P/T state is left unchanged but the
/// architectural latency is still paid. `latency_scale` stretches that
/// latency (relock taking longer than nominal).
struct TransitionOutcome {
  bool apply = true;
  double latency_scale = 1.0;
};

/// Consulted before every dvfs/throttle transition when installed; null
/// (the default) means every transition succeeds at nominal cost.
using TransitionFaultHook =
    std::function<TransitionOutcome(const CoreId&, TransitionKind)>;

/// Lifetime statistics for one core.
struct CoreStats {
  Duration busy_time;       ///< computing or polling
  Duration idle_time;       ///< sleeping in blocking waits
  Duration throttled_time;  ///< time spent at T-state > T0
  Joules energy = 0.0;
};

class Machine {
 public:
  Machine(sim::Engine& engine, MachineParams params);
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineParams& params() const { return params_; }
  const ClusterShape& shape() const { return params_.shape; }
  sim::Engine& engine() { return engine_; }

  // --- instantaneous state changes (energy is flushed first) ---
  void set_frequency(const CoreId& core, Frequency f);
  void set_activity(const CoreId& core, Activity a);
  void set_core_throttle(const CoreId& core, int tstate);
  void set_socket_throttle(int node, int socket, int tstate);

  // --- transitions that charge the architectural overhead to the caller ---
  //
  // The new P/T state takes effect at the END of the latency window (the
  // PLL relocks only then), so the old state's power is charged during the
  // transition — the energy integral reflects the in-transition interval.
  // Both return whether the state was applied: an installed fault hook may
  // reject the request or stretch its latency.

  /// Changes the core's P-state, stalling the caller for O_dvfs.
  sim::Task<bool> dvfs_transition(CoreId core, Frequency target);

  /// Throttles at the architecture's granularity: the issuing core's whole
  /// socket on Nehalem-style machines, just the core when
  /// core_level_throttling is enabled. Stalls the caller for O_throttle.
  sim::Task<bool> throttle_transition(CoreId issuer, int tstate);

  /// Installs (or clears, with null) the fault hook consulted before every
  /// transition.
  void set_transition_fault_hook(TransitionFaultHook hook) {
    fault_hook_ = std::move(hook);
  }

  // --- straggler model ---

  /// Multiplies cpu_slowdown for every core of `node` (compute and message
  /// start-up costs stretch; the P/T state and its power are untouched).
  void set_node_slowdown(int node, double factor);
  double node_slowdown(int node) const;

  // --- per-node power caps (RAPL-like budget bookkeeping) ---
  //
  // The machine only records the budget; the mpi::PowerCapGovernor enforces
  // it by allocating core frequencies through the helpers below, which
  // invert the §VI-B power model.

  /// Sets a node's watt budget (0, the default, means uncapped).
  void set_node_power_cap(int node, Watts cap);
  Watts node_power_cap(int node) const;

  /// The cap's dynamic headroom: the budget minus the node's static draw
  /// (node base + uncore + every core's idle power). Negative for an
  /// infeasible cap — frequency_for_dynamic_budget then clamps to fmin.
  Watts node_dynamic_budget(int node) const;

  /// Dynamic power of one busy, unthrottled core at frequency f:
  /// P_dyn,max · (f/fmax)^k.
  Watts core_dynamic_power(Frequency f) const;

  /// Inverts the model: the highest frequency in [fmin, fmax] at which
  /// `cores` busy T0 cores spend at most `dynamic_budget` watts in total.
  Frequency frequency_for_dynamic_budget(Watts dynamic_budget,
                                         int cores) const;

  // --- queries ---
  Frequency frequency(const CoreId& core) const;
  int throttle(const CoreId& core) const;
  Activity activity(const CoreId& core) const;

  /// Multiplier on CPU work (message start-up costs, local compute) caused
  /// by running below fmax and/or throttled: (fmax/f) · (1/c_t).
  double cpu_slowdown(const CoreId& core) const;

  /// The DVFS component of cpu_slowdown: fmax / f.
  double freq_slowdown(const CoreId& core) const;

  /// The throttling component of cpu_slowdown: 1 / c_t.
  double throttle_slowdown(const CoreId& core) const;

  Watts system_power() const { return system_power_; }
  Watts node_power(int node) const;

  /// Total system energy consumed up to the current simulated time.
  Joules total_energy();

  /// Energy of one node up to now: its cores' integrals plus the node's
  /// static share (node base + uncore) × elapsed time.
  Joules node_energy(int node);

  /// Energy of one socket up to now: its cores' integrals plus the socket's
  /// uncore × elapsed time. The node-base power is not divisible between
  /// sockets and is excluded (so node_energy ≠ Σ socket_energy in general).
  Joules socket_energy(int node, int socket);

  /// Per-core statistics up to the current simulated time.
  CoreStats core_stats(const CoreId& core);

 private:
  struct CoreState {
    Frequency freq;
    int tstate = ThrottleLevel::kMin;
    Activity activity = Activity::kBusy;
    Watts power = 0.0;  ///< cached instantaneous power
    double freq_slow = 1.0;      ///< cached fmax / freq
    double throttle_slow = 1.0;  ///< cached 1 / activity_factor(tstate)
    CoreStats stats;
  };

  CoreState& state(const CoreId& core) {
    return cores_[static_cast<std::size_t>(linear_core(params_.shape, core))];
  }
  const CoreState& state(const CoreId& core) const {
    return cores_[static_cast<std::size_t>(linear_core(params_.shape, core))];
  }

  /// Integrates energy/time stats from last_flush_ to now for all cores.
  void flush();

  /// Recomputes one core's cached power and slowdowns and the system total.
  /// Every frequency, T-state and activity change goes through here.
  void refresh_power(CoreState& cs);

  sim::Engine& engine_;
  MachineParams params_;
  TransitionFaultHook fault_hook_;
  std::vector<double> node_slowdown_;  ///< straggler factor per node
  std::vector<Watts> node_power_cap_;  ///< RAPL-like budget; 0 = uncapped
  std::vector<CoreState> cores_;
  Watts static_power_ = 0.0;  ///< node base + uncore, never varies
  Watts system_power_ = 0.0;
  Joules energy_ = 0.0;
  TimePoint created_;  ///< for apportioning static power in node/socket energy
  TimePoint last_flush_;
};

}  // namespace pacc::hw
