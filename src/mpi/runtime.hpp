// Simulated MPI runtime: ranks as coroutines over the machine + network.
//
// Each rank is pinned to a core (hw::RankPlacement) and owns a mailbox.
// Point-to-point transfers charge the sender's and receiver's CPU start-up
// costs — stretched by the core's current DVFS/throttle slowdown — and move
// payload bytes through the fluid network. Two progression modes match the
// paper's §II-B:
//   - polling:  a waiting core stays Busy (full power) until the message is
//               matched;
//   - blocking: the core spins briefly, then sleeps (Idle power); arrival
//               costs an HCA interrupt plus an OS reschedule, and intra-node
//               traffic falls back to network loopback instead of shared
//               memory.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/machine.hpp"
#include "hw/topology.hpp"
#include "mpi/comm.hpp"
#include "mpi/extent.hpp"
#include "mpi/governor.hpp"
#include "mpi/mailbox.hpp"
#include "mpi/profiler.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/watchdog.hpp"
#include "sym/collapse.hpp"
#include "util/expect.hpp"

namespace pacc::fault {
class FaultInjector;
}  // namespace pacc::fault

namespace pacc::coll {
class PlanCache;
class Tuner;
}  // namespace pacc::coll

namespace pacc::mpi {

enum class ProgressMode { kPolling, kBlocking };

std::string to_string(ProgressMode m);

/// One point-to-point message, as recorded by the optional trace.
struct MessageTraceEntry {
  TimePoint time;  ///< injection time at the sender
  int src = 0;
  int dst = 0;
  int tag = 0;
  Bytes bytes = 0;
  bool intra_node = false;
};

struct RuntimeParams {
  ProgressMode mode = ProgressMode::kPolling;
  /// Blocking mode: how long a receiver spins before yielding the CPU.
  Duration blocking_spin = Duration::micros(20.0);
  /// Runtime power governor (mpi/governor.hpp). Requires polling mode:
  /// blocking waits already sleep at frequency-independent idle power, so
  /// the Runtime constructor refuses enabled + kBlocking outright.
  GovernorParams governor;
  /// Size-only payloads: messages carry byte counts, not bytes. Sends skip
  /// the payload copy, receives leave the posted buffer untouched, and the
  /// collectives' scratch buffers become size-only extents
  /// (mpi/extent.hpp), so their pack, unpack and reduce_bytes steps touch
  /// no memory. Every simulated quantity (timing, energy, traces, fault
  /// draws) depends only on sizes, so results are identical; a harness
  /// that also passes size-only extents (measure_collective) allocates no
  /// payload memory at all. Leave off for programs that read what they
  /// receive.
  bool synthetic_payloads = false;
  /// Rank-symmetry collapse (see src/sym/collapse.hpp). The placement
  /// still describes the FULL logical cluster, but only the first
  /// `ranks / collapse_multiplicity` ranks — the representatives, which
  /// occupy the machine's (quotient) nodes — are instantiated. A send to a
  /// logical rank beyond the representatives is relabelled through the
  /// executing plan's group action and lands on the representative of the
  /// destination's class, over the fabric links the original would have
  /// loaded. 1 = the normal 1:1 runtime.
  int collapse_multiplicity = 1;
  /// Build collective plans with the historical rank-indexed tables
  /// instead of class-compressed schedule templates (coll/plan.hpp). The
  /// two layouts execute byte-identically; the materialized one exists for
  /// the equivalence suite and costs O(ranks) memory per plan.
  bool materialized_plans = false;
  /// Quiescence-watchdog thresholds (sim/watchdog.hpp). The Runtime does
  /// not build the watchdog itself — the Simulation does, for faulted runs
  /// only — but the thresholds travel with the runtime parameters so every
  /// embedder configures them the same way.
  sim::Watchdog::Params watchdog;
};

class Runtime;

/// Execution context of one simulated MPI process.
class Rank {
 public:
  Rank(Runtime& rt, int id, hw::CoreId core);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const { return id_; }
  const hw::CoreId& core() const { return core_; }
  int node() const { return core_.node; }
  int socket() const { return core_.socket; }

  Runtime& runtime() { return rt_; }
  Mailbox& mailbox() { return mailbox_; }
  hw::Machine& machine();
  sim::Engine& engine();

  // --- point-to-point (dst/src are global ranks) ---

  /// Sends `data` to `dst`. Small messages are eager (the sender resumes
  /// after injection); large ones hold the sender until delivery.
  sim::Task<> send(int dst, int tag, ConstExtent data);

  /// Receives a message from `src` with `tag` into `out`; the payload size
  /// must equal out.size() (collectives always know sizes).
  sim::Task<> recv(int src, int tag, Extent out);

  /// send() then recv() — the usual exchange step of pair-wise algorithms.
  sim::Task<> sendrecv(int dst, int send_tag, ConstExtent data, int src,
                       int recv_tag, Extent out);

  // --- non-blocking point-to-point ---
  //
  // MPI_Isend/Irecv-style: the operation proceeds in the background while
  // the rank keeps working; completion is awaited through the Request.
  // isend copies `data` up front (no buffer-stability requirement); the
  // irecv target buffer MUST stay alive and untouched until the request
  // completes, as in MPI.

  /// Completion handle for a non-blocking operation.
  class Request {
   public:
    Request() = default;

    bool valid() const { return latch_ != nullptr; }
    bool done() const { return valid() && latch_->fired(); }

    /// Awaitable completion (MPI_Wait).
    auto wait() {
      PACC_EXPECTS_MSG(latch_ != nullptr, "waiting on an empty Request");
      return latch_->wait();
    }

   private:
    friend class Rank;
    explicit Request(std::shared_ptr<sim::Latch> latch)
        : latch_(std::move(latch)) {}
    std::shared_ptr<sim::Latch> latch_;
  };

  /// Starts a send in the background (the payload is copied immediately).
  Request isend(int dst, int tag, ConstExtent data);

  /// Starts a receive in the background; `out` must outlive completion.
  Request irecv(int src, int tag, Extent out);

  /// Awaits every request (MPI_Waitall).
  sim::Task<> waitall(std::span<Request> requests);

  // --- shared-memory one-to-many handoff (polling mode only) ---
  //
  // Models MVAPICH2's intra-node broadcast over an explicitly created
  // shared-memory region (Fig 1): the writer copies its buffer in ONCE;
  // every reader then copies it out concurrently. This is much cheaper
  // than a tree of point-to-point sends, which would push the payload
  // through the memory system once per tree level.

  /// Writes `data` into the node's shared region and signals `readers`
  /// (global ranks on this node).
  sim::Task<> shm_publish(int tag, ConstExtent data,
                          std::span<const int> readers);

  /// Waits for `writer`'s publish with `tag`, then copies the payload out
  /// of the shared region into `out` (concurrent with other readers).
  sim::Task<> shm_read(int writer, int tag, Extent out);

  // --- local work & power control ---

  /// Burns `work_at_fmax` of CPU time, stretched by the core's current
  /// DVFS/throttle slowdown.
  sim::Task<> compute(Duration work_at_fmax);

  /// Scales this core's frequency, paying O_dvfs.
  sim::Task<> dvfs(Frequency f);

  /// Throttles at the machine's granularity (own socket on Nehalem, own
  /// core under core_level_throttling), paying O_throttle.
  sim::Task<> throttle(int tstate);

  // --- symmetry collapse ---

  /// Group action of the collective plan currently executing on this rank
  /// (kNone outside any plan walk). A collapsed runtime consults it to
  /// relabel cross-group sends; see RuntimeParams::collapse_multiplicity.
  sym::CollapseAction collapse_action() const { return collapse_action_; }

  /// RAII: stamps a plan's group action on the rank for the duration of
  /// the executor's walk. Nests safely (restores the previous action).
  class ActionScope {
   public:
    ActionScope(Rank& rank, sym::CollapseAction action)
        : rank_(rank), prev_(rank.collapse_action_) {
      rank.collapse_action_ = action;
    }
    ~ActionScope() { rank_.collapse_action_ = prev_; }
    ActionScope(const ActionScope&) = delete;
    ActionScope& operator=(const ActionScope&) = delete;

   private:
    Rank& rank_;
    sym::CollapseAction prev_;
  };

  /// The runtime's governor, for bracketing non-mailbox waits (rendezvous
  /// transfers, node barriers); null when no governor is configured.
  Governor* wait_governor();

 private:
  friend class Runtime;

  /// Waits for a matching message honouring the progression mode.
  sim::Task<Message> await_message(int src, int tag);

  Runtime& rt_;
  int id_;
  hw::CoreId core_;
  Mailbox mailbox_;
  sym::CollapseAction collapse_action_ = sym::CollapseAction::kNone;
};

class Runtime {
 public:
  Runtime(sim::Engine& engine, hw::Machine& machine, net::FlowNetwork& network,
          hw::RankPlacement placement, RuntimeParams params = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Logical cluster size: what world() spans and what send()/recv()
  /// destinations are bounded by. Equals physical_size() except on a
  /// collapsed runtime.
  int size() const { return static_cast<int>(placement_.ranks()); }
  /// Ranks actually instantiated (the representatives when collapsed).
  int physical_size() const { return static_cast<int>(ranks_.size()); }
  bool collapsed() const { return params_.collapse_multiplicity > 1; }
  int collapse_multiplicity() const { return params_.collapse_multiplicity; }
  /// A physical rank; global_rank must be below physical_size().
  Rank& rank(int global_rank);
  const hw::RankPlacement& placement() const { return placement_; }
  const RuntimeParams& params() const { return params_; }

  sim::Engine& engine() { return engine_; }
  hw::Machine& machine() { return machine_; }
  net::FlowNetwork& network() { return network_; }

  /// The communicator containing every rank.
  Comm& world();

  /// Creates (and owns) a communicator over the given global ranks.
  Comm& create_comm(std::vector<int> global_ranks);

  /// Returns the communicator for exactly these global ranks, creating it
  /// on first request. Lets every member of a collective split obtain the
  /// same Comm object (and hence the same context id / call counters).
  Comm& intern_comm(const std::vector<int>& global_ranks);

  /// Spawns `body(rank)` for every rank as a top-level task. The callable
  /// is stored in the runtime for the rest of its life: coroutine frames
  /// created from a lambda keep referencing the lambda object itself, so it
  /// must outlive every suspension point.
  void launch(std::function<sim::Task<>(Rank&)> body);

  /// Spawns an auxiliary task (e.g. an eager-send completion).
  void spawn_detached(sim::Task<> task) { engine_.spawn(std::move(task)); }

  /// Drains the event queue; reports deadlock via RunResult.
  sim::RunResult run() { return engine_.run(); }

  /// The configured governor, or null when GovernorParams::enabled is off.
  Governor* governor() { return governor_.get(); }

  /// The governor's counters (all zero when no governor is configured).
  GovernorStats governor_stats() const {
    return governor_ != nullptr ? governor_->stats() : GovernorStats{};
  }

  /// Completed downclock/upclock pairs: applied restores. Kept for the
  /// pre-refactor callers; the full split lives in governor_stats().
  std::uint64_t governor_transitions() const {
    return governor_ != nullptr ? governor_->stats().restores : 0;
  }

  /// Per-operation call/byte/time accounting, fed by the collective layer.
  Profiler& profiler() { return profiler_; }
  const Profiler& profiler() const { return profiler_; }

  /// Memoized collective schedules (may be shared across Runtimes — a
  /// Campaign hands every sweep cell the same cache). Null means the
  /// collective layer rebuilds its plan on every call.
  void set_plan_cache(std::shared_ptr<coll::PlanCache> cache) {
    plan_cache_ = std::move(cache);
  }
  const std::shared_ptr<coll::PlanCache>& plan_cache() const {
    return plan_cache_;
  }

  /// Tuned-decision table consulted by the collective dispatchers before
  /// their static choices (may be shared across Runtimes, like the plan
  /// cache). Null — the default — means dispatch is purely static and
  /// byte-identical to the untuned library.
  void set_tuner(std::shared_ptr<coll::Tuner> tuner) {
    tuner_ = std::move(tuner);
  }
  const std::shared_ptr<coll::Tuner>& tuner() const { return tuner_; }

  // --- fault injection / recovery ---

  /// Attaches the run's fault injector (owned by the caller; may be null).
  /// With message faults enabled, every inter-node or loopback send takes
  /// the reliable path: IB-RC-style retransmit with per-message ack
  /// timeout, exponential backoff and a bounded retry budget. Faults pin
  /// events to named entities, so a collapsed runtime refuses an injector.
  void set_fault_injector(fault::FaultInjector* injector) {
    PACC_EXPECTS_MSG(injector == nullptr || !collapsed(),
                     "fault injection breaks rank symmetry — run 1:1");
    injector_ = injector;
  }
  fault::FaultInjector* fault_injector() { return injector_; }

  /// Whether some message exhausted its retry budget; the run was stopped.
  bool unreachable() const { return unreachable_; }
  const std::string& unreachable_detail() const { return unreachable_detail_; }

  /// Messages handed to a mailbox so far — one term of the quiescence
  /// watchdog's progress probe.
  std::uint64_t deliveries() const { return deliveries_; }

  /// Starts recording every point-to-point message (off by default: a full
  /// Alltoall sweep generates hundreds of thousands of entries).
  void enable_message_trace() { trace_enabled_ = true; }
  void disable_message_trace() { trace_enabled_ = false; }
  bool message_trace_enabled() const { return trace_enabled_; }
  const std::vector<MessageTraceEntry>& message_trace() const {
    return trace_;
  }

 private:
  /// Detached reliability engine for one message: transmit, retransmit on
  /// loss with exponential backoff, deliver (after any injected delivery
  /// delay), fire `done` if the sender rendezvouses. Declares the
  /// destination unreachable — and stops the engine — when the retry
  /// budget runs out.
  sim::Task<> transmit_reliably(int src, int dst, Message msg, bool loopback,
                                double wire_mult,
                                std::shared_ptr<sim::Latch> done);

  void deliver_to(int dst, Message msg);
  void report_unreachable(int src, int dst, int attempts);

  sim::Engine& engine_;
  hw::Machine& machine_;
  net::FlowNetwork& network_;
  hw::RankPlacement placement_;
  RuntimeParams params_;
  fault::FaultInjector* injector_ = nullptr;
  bool unreachable_ = false;
  std::string unreachable_detail_;
  std::uint64_t deliveries_ = 0;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::unordered_map<std::string, Comm*> interned_comms_;
  std::deque<std::function<sim::Task<>(Rank&)>> bodies_;  ///< stable storage: frames reference the lambdas
  std::unique_ptr<Governor> governor_;
  Profiler profiler_;
  std::shared_ptr<coll::PlanCache> plan_cache_;
  std::shared_ptr<coll::Tuner> tuner_;
  bool trace_enabled_ = false;
  std::vector<MessageTraceEntry> trace_;
  Comm* world_ = nullptr;

  friend class Rank;
};

inline Governor* Rank::wait_governor() { return rt_.governor(); }

}  // namespace pacc::mpi
