// Deterministic, seeded fault injection for the whole simulated cluster.
//
// A FaultSpec describes what can go wrong — dropped or delayed inter-node
// messages, HCA/switch links that flap down for bounded intervals, straggler
// nodes, P/T-state transitions that fail or stretch — plus the recovery
// parameters (ack timeout, exponential backoff, retry budget) the runtime's
// IB-RC-style retransmit layer uses to survive it. A FaultInjector owns the
// run's fault state: it arms the machine's transition hook, slows straggler
// nodes, drives the link-flap timers, and answers the per-message and
// per-collective fault draws.
//
// Determinism: every draw comes from a counter-free or per-entity-counter
// hash stream keyed on (seed, category, entity, draw index) — SplitMix64
// finalizers, no shared RNG state — so a decision depends only on *which*
// entity is asking for its *n*-th verdict, never on how events interleaved
// to get there. Same seed ⇒ same faults, byte-identical artifacts, at any
// campaign --jobs value. An all-zero-rate spec is inactive: no injector is
// created and the run is bit-for-bit the fault-free baseline.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hw/machine.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace pacc::fault {

/// What can go wrong, and how hard the runtime tries to recover.
struct FaultSpec {
  std::uint64_t seed = 1;

  // --- message faults (inter-node / HCA-loopback traffic only; the
  // --- shared-memory channel is exempt) ---
  double drop_rate = 0.0;   ///< P(a transmission attempt is lost on the wire)
  double delay_rate = 0.0;  ///< P(a delivery is late)
  Duration delay_max = Duration::micros(50.0);  ///< extra latency ∈ (0, max]

  // --- link faults ---
  double flap_rate_hz = 0.0;  ///< mean outages/second per fault unit
  Duration down_mean = Duration::micros(200.0);  ///< outage ∈ [0.5, 1.5]×mean
  double degrade_factor = 0.0;  ///< outage efficiency: 0 = hard down

  // --- straggler nodes ---
  int stragglers = 0;               ///< nodes whose cores run slow
  double straggler_slowdown = 1.0;  ///< cpu_slowdown multiplier on them

  // --- P/T-state transition faults ---
  double transition_fail_rate = 0.0;     ///< P(request rejected)
  double transition_stretch_rate = 0.0;  ///< P(latency stretched)
  double transition_stretch_max = 4.0;   ///< stretch ∈ (1, max]

  // --- recovery (IB-RC-style retransmit in mpi::Runtime) ---
  Duration ack_timeout = Duration::micros(40.0);  ///< first retry wait
  double backoff_factor = 2.0;  ///< wait grows by this per attempt
  int retry_budget = 6;         ///< retransmits before kUnreachable

  /// Whether messages must take the reliable (retransmit-capable) path.
  bool message_faults() const {
    return drop_rate > 0.0 || delay_rate > 0.0 || flap_rate_hz > 0.0;
  }

  /// Whether the spec injects anything at all. Inactive specs must not
  /// change a single byte of any artifact.
  bool active() const {
    return message_faults() || (stragglers > 0 && straggler_slowdown > 1.0) ||
           transition_fail_rate > 0.0 || transition_stretch_rate > 0.0;
  }

  /// Parses "key=value,key=value" (e.g. "seed=7,drop=0.02,flap=50,
  /// tfail=0.3"). Keys: seed, drop, delay, delay-us, flap, down-us,
  /// degrade, stragglers, slow, tfail, tstretch, stretch-max, ack-us,
  /// backoff, retries. Returns nullopt (and fills *error) on bad input.
  static std::optional<FaultSpec> parse(std::string_view text,
                                        std::string* error = nullptr);
};

/// What the injector (and the recovery layers reporting back to it) did to
/// one run. `disturbed()` is the kOk→kFaulted test.
struct FaultStats {
  std::uint64_t drops = 0;             ///< transmission attempts lost
  std::uint64_t delays = 0;            ///< deliveries made late
  std::uint64_t retransmits = 0;       ///< backoff waits entered
  std::uint64_t messages_abandoned = 0;  ///< retry budget exhausted
  std::uint64_t link_flaps = 0;        ///< outages begun
  std::uint64_t flows_preempted = 0;   ///< transfers killed by link-down
  std::uint64_t transition_failures = 0;
  std::uint64_t transition_stretches = 0;
  std::uint64_t scheme_fallbacks = 0;  ///< collectives degraded to default

  /// Whether any fault actually landed on the run.
  bool disturbed() const {
    return drops > 0 || delays > 0 || retransmits > 0 ||
           messages_abandoned > 0 || link_flaps > 0 || flows_preempted > 0 ||
           transition_failures > 0 || transition_stretches > 0 ||
           scheme_fallbacks > 0;
  }

  /// "drops=3 retransmits=5 …" — non-zero fields only; "" when clean.
  std::string summary() const;
};

/// Per-cell seed for campaign sweeps: derived from the cell's index in the
/// sweep (not the worker that happened to run it), so results are
/// byte-identical for any --jobs value.
std::uint64_t derive_cell_seed(std::uint64_t campaign_seed,
                               std::size_t cell_index);

class FaultInjector {
 public:
  FaultInjector(const FaultSpec& spec, sim::Engine& engine,
                hw::Machine& machine, net::FlowNetwork& network);
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs the machine's transition hook, slows the straggler nodes and
  /// starts the link-flap timers. Call once, before the run.
  void arm();

  /// Cancels every pending injector timer. Call before classifying the
  /// run's outcome: a live flap event would read as pending progress.
  void stop();

  const FaultSpec& spec() const { return spec_; }
  FaultStats& stats() { return stats_; }
  const FaultStats& stats() const { return stats_; }
  bool message_faults() const { return spec_.message_faults(); }

  /// One transmission attempt's verdict for the (src, dst) rank pair.
  struct MessageDraw {
    bool drop = false;
    Duration extra_delay;  ///< zero unless the delivery is delayed
  };
  MessageDraw next_message_draw(int src_rank, int dst_rank);

  /// Collective-consistent degradation verdict: would this call's power
  /// transition fail? Keyed on (context id, call sequence) — state every
  /// member rank shares — so all ranks of a matched call agree and the
  /// fallback algorithm stays symmetric. Pure hash; drawing is idempotent.
  bool scheme_entry_doomed(int context_id, int call_seq) const;

  /// Moves whenever a transmission attempt is made — feeds the quiescence
  /// watchdog's progress probe (an actively retrying run is not deadlocked).
  std::uint64_t attempt_count() const { return attempts_; }

  /// Fresh tid for a retransmit span track (pid = kRetryTrackPid): each
  /// reliable transmission gets its own track so overlapping retries keep
  /// the Chrome-trace per-track stack discipline.
  int next_transmission_track() { return transmission_tracks_++; }

  /// Trace track pids for fault machinery (negative: no node uses them).
  static constexpr std::int32_t kFabricTrackPid = -1;  ///< per-link flaps
  static constexpr std::int32_t kRetryTrackPid = -2;   ///< per-transmission

  /// The straggler node set `spec` selects on an `nodes`-node cluster — a
  /// pure function of (spec.seed, nodes), exactly the nodes arm() slows.
  /// Lets the symmetry-collapse gate name the classes a spec would break
  /// without standing up an injector. Empty when the spec has no effective
  /// stragglers.
  static std::vector<int> straggler_nodes(const FaultSpec& spec, int nodes);

 private:
  hw::TransitionOutcome on_transition(const hw::CoreId& core,
                                      hw::TransitionKind kind);
  void schedule_flap(int unit);
  void begin_outage(int unit);
  void end_outage(int unit, TimePoint began);
  double u01(std::uint64_t category, std::uint64_t entity,
             std::uint64_t draw) const;

  FaultSpec spec_;
  sim::Engine& engine_;
  hw::Machine& machine_;
  net::FlowNetwork& network_;
  FaultStats stats_;

  std::vector<sim::EventId> flap_event_;    ///< pending timer per unit
  std::vector<std::uint32_t> flap_count_;   ///< draw index per unit
  std::unordered_map<std::uint64_t, std::uint32_t> pair_counter_;
  std::vector<std::uint32_t> transition_counter_;  ///< per linear core
  std::uint64_t attempts_ = 0;
  int transmission_tracks_ = 0;
  std::uint64_t preempted_baseline_ = 0;
  bool armed_ = false;
};

}  // namespace pacc::fault
