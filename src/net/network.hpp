// InfiniBand-like fabric model: fluid flows with max–min fair sharing.
//
// The leaf switch is non-blocking (as the paper's Mellanox QDR switch is
// for this scale), so at the paper's scale contention arises only at the
// endpoints: every node has one HCA uplink and one downlink of fixed
// bandwidth, and one intra-node shared-memory channel. Beyond that scale
// the shape may add switch levels — a rack layer, a multi-level fat tree or
// a dragonfly — which the network holds as one table (see Level): each
// level groups nodes behind a shared pair of up/down links, and a flow
// additionally traverses the links of every level below its endpoints'
// lowest common group. Each in-flight message is a fluid flow
// across the links it traverses; rates are recomputed by max–min
// water-filling whenever a flow starts or ends, and completion events are
// rescheduled accordingly.
//
// Hot-path structure (see docs/PERF.md): flows live in a slab
// (std::vector + free list, stable slot indices) threaded onto intrusive
// per-link lists. A flow arrival/departure recomputes rates only for the
// connected component of links it can actually affect — discovered by
// dirty-set propagation over the flow/link incidence — and reschedules only
// the completion events whose rate changed under an exact equality check.
// Rates outside the component are provably unchanged (their constraint set
// is untouched), so the incremental result is identical to a full global
// recompute.
//
// This is what makes the paper's observations emerge organically:
//  - Fig 2(a): 8 ranks/node sharing one uplink are slower than 4 ranks/node.
//  - §V-A:     scheduling only one socket's ranks onto the network at a time
//              halves endpoint contention for the power-aware Alltoall.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "hw/topology.hpp"
#include "sim/callback.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace pacc::net {

struct NetworkParams {
  /// Per-direction HCA link bandwidth. IB QDR signals 40 Gbit/s; after
  /// 8b/10b coding and protocol overhead ~3.2 GB/s is achievable.
  double link_bandwidth = 3.2e9;  ///< bytes/second

  /// Aggregate intra-node memory-system copy bandwidth (all cores of a
  /// node together). Nehalem-era nodes stream well above a single core's
  /// copy rate thanks to two on-die memory controllers.
  double shm_bandwidth = 16.0e9;  ///< bytes/second

  /// A single core's shared-memory copy rate: each shm flow is capped at
  /// this even when the aggregate channel has headroom.
  double shm_per_flow_bandwidth = 5.0e9;  ///< bytes/second

  /// Per-direction bandwidth of a rack's aggregation uplink (topology-aware
  /// extension, §VIII). Inter-rack traffic of all of a rack's nodes shares
  /// this; with nodes_per_rack·link_bandwidth greater than this, the fabric
  /// is oversubscribed, as production rack switches are. Must be positive
  /// on a racked shape; unused otherwise (fat-tree and dragonfly levels
  /// derive their bandwidths from link_bandwidth and the shape).
  double rack_bandwidth = 6.4e9;  ///< bytes/second

  /// Per-message CPU start-up cost for an inter-node send at fmax/T0
  /// (the MPI layer stretches it by the issuing core's cpu_slowdown).
  Duration inter_startup = Duration::micros(2.0);

  /// Per-message CPU start-up cost for an intra-node (shared memory) send.
  Duration intra_startup = Duration::micros(0.4);

  /// HCA interrupt generation + service time (blocking mode only).
  Duration interrupt_latency = Duration::micros(4.0);

  /// OS re-scheduling delay after an interrupt wake-up (blocking mode only).
  Duration reschedule_latency = Duration::micros(6.0);

  /// Messages at or below this size complete at the sender as soon as they
  /// are injected (eager); larger ones hold the sender until delivery
  /// (rendezvous), like MVAPICH2.
  Bytes eager_threshold = 8 * 1024;

  /// HCA link efficiency loss per extra concurrent flow: a link carrying n
  /// flows delivers bw / (1 + contention_penalty·(n-1)). Models packet
  /// interleaving / HoL blocking losses that make 8 ranks per HCA slower
  /// than 4 (Fig 2a) and that the proposed Alltoall halves (§V-A). Only
  /// HCA links pay it: memory controllers interleave concurrent streams on
  /// the shared-memory channel without this loss, and switch links model
  /// a switch fabric, not an endpoint.
  double contention_penalty = 0.04;

  /// Wire-efficiency loss when an endpoint core runs below fmax: the
  /// protocol engine leaves gaps on the wire. A transfer whose endpoint has
  /// frequency slowdown s_f and throttle slowdown s_t occupies the wire as
  /// if it were (1 + freq_wire_penalty·(s_f−1) +
  /// freq_wire_penalty·throttle_wire_weight·(s_t−1)) times larger.
  double freq_wire_penalty = 0.2;
  double throttle_wire_weight = 0.1;

  /// Steady-state fast-forward: between rate recomputes the flow set and
  /// every rate are constant, so when one water-filling pass reschedules
  /// several flows to the same completion instant (the common case in a
  /// symmetric collective phase, where a whole socket group drains in
  /// lockstep), those completions share a single engine event instead of
  /// one heap entry each — O(flows) heap traffic per quiescent interval
  /// collapses to O(1). The shared event pops at exactly the position the
  /// first per-flow event would have (the per-flow events would have held
  /// consecutive sequence numbers, so nothing can schedule between them)
  /// and completes the members in order; any event that re-rates a member
  /// before then — a new arrival, a fault, a flap — detaches it from the
  /// batch (the epoch break), so timestamps, energy integrals and traces
  /// stay byte-identical to the per-flow path. Off = one event per
  /// completion, kept for the equivalence suite.
  bool steady_state_fast_forward = true;

  /// Coalesce same-instant rate recomputes: a flow arrival or departure
  /// only records its links as dirty seeds and schedules one zero-delay
  /// flush; the water-filling pass runs once per simulated instant over the
  /// union of dirty components instead of once per flow event. A wave of n
  /// simultaneous arrivals (a socket group released from a barrier, a
  /// completion batch draining) costs one O(component) pass instead of n.
  /// Rates and completion instants are unchanged — every deferred pass runs
  /// at the same timestamp the eager passes would have, over the same final
  /// flow set, and max–min water-filling depends only on that set — so all
  /// simulated times are identical; only the interleaving of same-instant
  /// bookkeeping events differs. Off = recompute on every event, kept for
  /// the equivalence suite.
  bool coalesce_rate_recomputes = true;

  /// Wire-occupancy multiplier for a transfer between endpoints with the
  /// given CPU slowdown factors (1.0 = full speed).
  double wire_multiplier(double sender_freq_slowdown,
                         double sender_throttle_slowdown,
                         double receiver_freq_slowdown,
                         double receiver_throttle_slowdown) const;
};

/// One level of switches above the node HCAs. Every topology a
/// ClusterShape describes is a stack of these, bottom-up: the rack layer is
/// one level, a fat tree has one per FabricLevelSpec, and a dragonfly has
/// two, its routers and then its groups (a minimal-routed dragonfly is,
/// link for link, a two-level fat tree). Nodes are grouped consecutively:
/// node n sits in group n / nodes_per_group, and the last group may be
/// ragged (racks). Each group owns one up and one down link of `bandwidth`
/// bytes/second per direction; the up links are [first_link, first_link +
/// groups) and the down links follow. That link pair is also the group's
/// fault unit.
struct Level {
  int nodes_per_group = 1;
  int groups = 1;
  double bandwidth = 0.0;
  int first_link = 0;
  const char* unit_label = "";  ///< fault-unit trace label, e.g. "rack link"
  const char* unit_span = "";   ///< outage span name, e.g. "rack_down"

  int group_of(int node) const { return node / nodes_per_group; }
  int uplink(int group) const { return first_link + group; }
  int downlink(int group) const { return first_link + groups + group; }
};

/// One fault unit: a node's HCA or one switch group's up/down link pair.
struct FaultUnit {
  const char* label;  ///< trace label, e.g. "hca node" or "df global"
  const char* span;   ///< outage span name, e.g. "hca_down"
  int index;          ///< the node, or the group within its level
  int uplink;
  int downlink;
};

/// Fluid-flow network over a cluster.
class FlowNetwork {
 public:
  /// Stable reference to an in-flight flow: slab slot + generation. The
  /// generation disambiguates slot reuse, so a stale handle is simply
  /// "no longer active". A default-constructed handle is never active.
  struct FlowHandle {
    std::uint32_t slot = 0;
    std::uint32_t gen = 0;
  };

  FlowNetwork(sim::Engine& engine, hw::ClusterShape shape,
              NetworkParams params);
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  const NetworkParams& params() const { return params_; }

  /// Moves `bytes` from src_node to dst_node (across the node's shared
  /// memory when src_node == dst_node); resumes the caller on delivery.
  /// With `force_loopback`, an intra-node transfer is routed out and back
  /// through the HCA instead of shared memory — the paper's blocking-mode
  /// fallback (§II-B). `wire_multiplier` inflates the transfer's wire
  /// occupancy (see NetworkParams::wire_multiplier). With `via_top` the
  /// flow climbs the whole fabric hierarchy to the core crossbar and back
  /// down regardless of where the endpoints actually sit — the
  /// symmetry-collapse runtime uses this to route a representative of a
  /// cross-group flow over the links its original would have loaded.
  /// Returns whether the payload landed: false when the path crosses a
  /// downed link, either at start or mid-flight (the flow is preempted).
  /// On a healthy fabric the result is always true.
  sim::Task<bool> transfer(int src_node, int dst_node, Bytes bytes,
                           bool force_loopback = false,
                           double wire_multiplier = 1.0,
                           bool via_top = false);

  /// Fire-and-forget variant for hot paths (e.g. eager sends): starts the
  /// flow immediately — no coroutine frame — and runs `on_delivered` from
  /// the engine once the payload lands. A zero-byte flow schedules the
  /// callback at now() and returns an inactive handle.
  FlowHandle start_flow(int src_node, int dst_node, Bytes bytes,
                        bool force_loopback, double wire_multiplier,
                        sim::Callback on_delivered, bool via_top = false);

  /// Whether the flow behind `h` is still in flight.
  bool flow_active(FlowHandle h) const {
    return h.slot < flows_.size() && flows_[h.slot].gen == h.gen &&
           flows_[h.slot].active;
  }

  /// The switch levels above the HCAs, bottom-up; empty on a flat switch.
  const std::vector<Level>& levels() const { return levels_; }

  /// Link ids in use: HCA up links [0, N), HCA down links [N, 2N), the
  /// shared-memory channels [2N, 3N), then every level's links.
  std::size_t link_count() const { return link_bandwidth_.size(); }

  // --- link state (fault layer) ---
  //
  // Fault units, in id order: every node's HCA (unit n = node n), then
  // every level's groups, level-major. A unit's efficiency covers both of
  // its links: 1 = healthy, in (0,1) = degraded bandwidth, 0 = down.
  // Taking a unit down preempts every flow crossing it — their transfer()
  // awaiters resume with false — and new flows across a down link are
  // refused by transfer() before any bandwidth is allocated. Only the
  // reliability layer may own flows on a fault-capable fabric:
  // fire-and-forget flows (start_flow) must not cross flapping links.

  int fault_units() const { return fault_units_; }
  FaultUnit fault_unit(int unit) const;
  void set_unit_efficiency(int unit, double efficiency);
  double unit_efficiency(int unit) const;

  /// Whether every link of the path src→dst currently has bandwidth. The
  /// shared-memory channel never faults, so intra-node paths (unless forced
  /// through the HCA loopback) are always up.
  bool path_up(int src_node, int dst_node, bool force_loopback = false,
               bool via_top = false) const;

  /// Flows killed mid-flight by a link going down.
  std::uint64_t flows_preempted() const { return preempted_; }

  /// Flows started over the network's lifetime (shared-memory and fabric
  /// alike). Under rank-symmetry collapse each flow stands for
  /// `multiplicity` logical flows, so this is the representative count.
  std::uint64_t flows_started() const { return flows_started_; }

  /// Number of flows currently in flight (for tests / instrumentation).
  std::size_t active_flows() const { return active_count_; }

  /// Total bytes fully delivered so far.
  std::uint64_t bytes_delivered() const { return bytes_delivered_; }

  /// Incremental rate recomputations performed (one per flow add/remove).
  std::uint64_t rate_recomputes() const { return recomputes_; }

  /// Completion events actually rescheduled — flows whose rate survived the
  /// exact-equality check are left untouched, so this is typically far
  /// below (recomputes × active flows).
  std::uint64_t completion_reschedules() const { return reschedules_; }

  /// Shared events that completed two or more same-instant flows in one
  /// heap pop (steady-state fast-forward; 0 while the toggle is off).
  std::uint64_t completion_batches() const { return completion_batches_; }

  /// Completions delivered through a shared event beyond the first member
  /// — i.e. heap events the fast-forward elided.
  std::uint64_t batched_completions() const { return batched_completions_; }

  /// Recomputes that changed no flow's rate and skipped the reschedule
  /// pass entirely (the heap is never touched).
  std::uint64_t noop_recomputes() const { return noop_recomputes_; }

  /// Deferred-recompute flushes run (coalesce_rate_recomputes on): one per
  /// simulated instant with flow churn, regardless of how many arrivals
  /// and departures that instant saw.
  std::uint64_t recompute_flushes() const { return flushes_; }

  /// Flow add/remove events whose rate recompute was folded into a flush
  /// instead of running eagerly.
  std::uint64_t coalesced_recomputes() const { return coalesced_; }

  /// Introspection snapshot of the active flows (tests / tools): links
  /// traversed, current max–min rate, and the per-flow ceiling. Settles any
  /// recompute deferred to the pending zero-delay flush first, so the rates
  /// observed are the ones the current flow set will actually run at.
  struct FlowView {
    std::vector<int> links;
    double rate = 0.0;
    double rate_cap = 0.0;
    double remaining = 0.0;
  };
  std::vector<FlowView> snapshot_flows();

 private:
  /// HCA up + down, plus an up + down pair at every switch level.
  static constexpr int kMaxLevels = 3;
  static constexpr int kMaxLinks = 2 + 2 * kMaxLevels;
  static constexpr std::uint32_t kNoBatch = 0xffffffffu;

  /// A per-link list hook names one membership — flow slot `slot`, listed
  /// on its k-th link — packed as slot << kHookBits | k, so a list walk
  /// reaches the neighbour's prev/next entry without searching its links[].
  static constexpr int kHookBits = 3;
  static_assert(kMaxLinks <= 1 << kHookBits);
  static constexpr std::uint32_t kNullHook = 0xffffffffu;
  static std::uint32_t hook(std::uint32_t slot, int k) {
    return slot << kHookBits | static_cast<std::uint32_t>(k);
  }
  static std::uint32_t hook_slot(std::uint32_t h) { return h >> kHookBits; }
  static int hook_index(std::uint32_t h) {
    return static_cast<int>(h & ((1u << kHookBits) - 1));
  }

  /// Slab-allocated flow. Intrusive per-link list hooks (prev/next per
  /// traversed link) give O(1) unlink without touching a hash map, and the
  /// slot index stays stable for the flow's lifetime.
  struct Flow {
    double remaining = 0.0;  ///< bytes (wire-multiplied)
    double rate = 0.0;       ///< bytes/second
    double rate_cap = 0.0;   ///< per-flow ceiling; 0 = unlimited
    double wf_rate = 0.0;    ///< water-filling scratch (uncapped share)
    TimePoint last_update;   ///< when `remaining` was last advanced
    Bytes payload = 0;       ///< un-multiplied bytes, credited on delivery
    sim::EventId completion = 0;
    std::uint32_t batch = kNoBatch;  ///< shared completion event, if any
    std::coroutine_handle<> waiter;
    bool* failed_flag = nullptr;  ///< awaiter-owned; set on preemption
    sim::Callback on_delivered;
    std::uint32_t gen = 1;
    std::uint8_t nlinks = 0;
    bool active = false;
    std::int32_t links[kMaxLinks] = {};
    std::uint32_t prev[kMaxLinks] = {};  ///< list hooks, per links[i]
    std::uint32_t next[kMaxLinks] = {};
  };

  /// The failure verdict lives in the awaiter (the caller's coroutine
  /// frame), not the flow: by the time the waiter resumes, the flow slot
  /// has already been recycled.
  struct FlowAwaiter {
    FlowNetwork& net;
    FlowHandle h;
    bool failed = false;
    bool await_ready() const noexcept { return !net.flow_active(h); }
    void await_suspend(std::coroutine_handle<> handle) {
      Flow& flow = net.flows_[h.slot];
      flow.waiter = handle;
      flow.failed_flag = &failed;
    }
    bool await_resume() const noexcept { return !failed; }
  };

  int uplink(int node) const { return node; }
  int downlink(int node) const { return shape_.nodes + node; }
  int shm_link(int node) const { return 2 * shape_.nodes + node; }

  /// The one route walker: writes the links of the path src→dst, in the
  /// order the water-filling visits them, to `links` (room for kMaxLinks)
  /// and returns how many. Intra-node traffic takes the shared-memory
  /// channel — the only one-link route — unless `force_loopback` or
  /// `via_top` sends it out through the HCA. Otherwise the path is both
  /// HCAs plus, for every level the endpoints do not share a group at
  /// (every level under `via_top`), the source group's up link and the
  /// destination group's down link. Fat trees and racks list those pairs
  /// level by level (up0 down0 up1 down1); a dragonfly nests them (up0 up1
  /// down1 down0), and its adaptive routing inserts a Valiant detour
  /// through a deterministic intermediate group's global links at the top,
  /// never under via_top.
  int route(int src_node, int dst_node, bool force_loopback, bool via_top,
            std::int32_t* links) const;
  bool links_up(const std::int32_t* links, int nlinks) const;

  /// Routes src→dst once; returns false, starting nothing, when a link on
  /// the path is down. Otherwise starts the flow (none for zero bytes)
  /// and stores its handle in `h`.
  bool open_flow(int src_node, int dst_node, Bytes bytes, bool force_loopback,
                 double wire_multiplier, sim::Callback on_delivered,
                 bool via_top, FlowHandle& h);

  /// Runs — or, with coalesce_rate_recomputes, defers to a zero-delay
  /// flush — the water-filling pass for an arrival/departure touching
  /// `seeds`.
  void note_dirty(const std::int32_t* seeds, int nseeds);

  /// Processes every deferred seed now (the scheduled flush, and fault
  /// entry points that need rates current before they act).
  void flush_dirty();

  void preempt_link_flows(std::int32_t link,
                          std::vector<std::int32_t>& seeds);

  std::uint32_t alloc_flow();
  void link_flow(std::uint32_t slot);
  void unlink_flow(std::uint32_t slot);

  /// Max–min water-filling restricted to the connected component of links
  /// reachable from `seeds`; reschedules completions whose rate changed.
  void recompute_component(const std::int32_t* seeds, int nseeds);

  void on_complete(std::uint32_t slot, std::uint32_t gen);

  // --- steady-state fast-forward (shared completion events) ---

  /// One engine event standing in for the per-flow completion events of
  /// every member, in the order the per-flow path would have scheduled
  /// (and therefore popped) them.
  struct CompletionBatch {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> members;  // slot,gen
  };

  /// Removes the flow's pending completion: cancels its private event or
  /// detaches it from its shared one (remaining members are unaffected).
  void detach_completion(Flow& flow);

  /// (Re)schedules a completion `delay` from now, joining the shared event
  /// of an earlier flow in the same recompute pass when the target instant
  /// matches (fast-forward on), else as a private event.
  void schedule_completion(std::uint32_t slot, Duration delay);

  /// Completes the still-attached members of a shared event, in order.
  void run_batch(std::uint32_t b);

  std::uint32_t alloc_batch();

  sim::Engine& engine_;
  hw::ClusterShape shape_;
  NetworkParams params_;

  /// The switch levels, built once from the shape and params.
  std::vector<Level> levels_;
  /// Route order, a property of the topology kind: a dragonfly nests its
  /// levels' links (see route()); racks and fat trees interleave them.
  bool nested_routes_ = false;
  /// Adaptive dragonfly: cross-group routes take a Valiant detour.
  bool valiant_ = false;
  int fault_units_ = 0;

  // Deferred-recompute state (coalesce_rate_recomputes).
  std::vector<std::int32_t> dirty_seeds_;
  bool flush_scheduled_ = false;

  // Per-link state, indexed by link id.
  std::vector<double> link_bandwidth_;
  std::vector<double> link_efficiency_;     ///< fault layer; 1 = healthy
  std::vector<std::uint32_t> link_head_;    ///< intrusive list head (hook)
  std::vector<std::uint32_t> link_nflows_;  ///< active flows crossing link

  // Flow slab.
  std::vector<Flow> flows_;
  std::vector<std::uint32_t> free_flows_;
  std::size_t active_count_ = 0;

  // Reusable recompute scratch (no allocation in steady state). Epoch
  // stamps mark visited links/flows without per-call clearing.
  std::vector<double> residual_;
  std::vector<std::int32_t> wf_active_;
  std::vector<std::uint32_t> link_epoch_;
  std::vector<std::uint32_t> flow_epoch_;
  std::uint32_t epoch_ = 0;
  std::vector<std::int32_t> comp_links_;
  std::vector<std::uint32_t> comp_flows_;
  std::vector<std::uint32_t> unfrozen_;
  std::vector<unsigned char> frozen_mark_;

  // Shared-completion-event slab (steady-state fast-forward), recycled via
  // a free list; the per-pass scratch maps a reschedule target instant to
  // the batch already opened for it in the current apply pass.
  std::vector<CompletionBatch> batches_;
  std::vector<std::uint32_t> free_batches_;
  std::vector<std::int64_t> pass_batch_when_;
  std::vector<std::uint32_t> pass_batch_ids_;

  std::uint64_t bytes_delivered_ = 0;
  std::uint64_t recomputes_ = 0;
  std::uint64_t reschedules_ = 0;
  std::uint64_t preempted_ = 0;
  std::uint64_t flows_started_ = 0;
  std::uint64_t completion_batches_ = 0;
  std::uint64_t batched_completions_ = 0;
  std::uint64_t noop_recomputes_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t coalesced_ = 0;
};

}  // namespace pacc::net
