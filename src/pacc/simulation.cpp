#include "pacc/simulation.hpp"

#include <memory>
#include <span>
#include <sstream>
#include <vector>

#include "coll/plan.hpp"
#include "coll/registry.hpp"
#include "coll/tuner.hpp"
#include "sym/collapse.hpp"
#include "util/expect.hpp"

namespace pacc {

Simulation::Simulation(const ClusterConfig& config) : config_(config) {
  PACC_EXPECTS(config.nodes >= 1 && config.ranks >= 1);

  hw::MachineParams machine_params =
      config.machine.value_or(presets::paper_machine(config.nodes));
  machine_params.shape.nodes = config.nodes;
  if (config.nodes_per_rack > 0) {
    machine_params.shape.nodes_per_rack = config.nodes_per_rack;
  }
  machine_params.shape.fabric = config.fabric;
  machine_params.shape.dragonfly = config.dragonfly;
  machine_params.core_level_throttling = config.core_level_throttling;
  const net::NetworkParams network_params =
      config.network.value_or(presets::paper_network());

  // Rank-symmetry collapse (src/sym/collapse.hpp): the machine and network
  // model only the first top-level fabric group — the quotient — while the
  // placement below keeps the full logical cluster, so communicators and
  // schedules still see every rank. The quotient keeps the same fabric
  // vector: its top level simply has one group, and per-level link
  // bandwidths derive identically.
  const hw::ClusterShape full_shape = machine_params.shape;
  const int multiplicity =
      config.collapse_multiplicity > 1 ? config.collapse_multiplicity : 1;
  if (multiplicity > 1) {
    // The slack governor is a deterministic, translation-equivariant
    // per-core policy, so it collapses; the reactive and power-cap
    // governors keep asymmetric per-core / per-node state and must run 1:1
    // (sym::decide enforces the same split).
    const bool symmetric_governor =
        !config.governor.enabled ||
        config.governor.kind == mpi::GovernorKind::kSlack;
    PACC_EXPECTS_MSG(!config.obs.trace && symmetric_governor &&
                         !config.faults.active(),
                     "collapse requires a symmetric, unobserved run "
                     "(no trace, no asymmetric governor, no faults)");
    PACC_EXPECTS_MSG(config.nodes % multiplicity == 0 &&
                         config.ranks % multiplicity == 0,
                     "collapse multiplicity must divide nodes and ranks");
    PACC_EXPECTS_MSG(config.ranks == config.nodes * config.ranks_per_node,
                     "collapse requires full uniform occupancy");
    PACC_EXPECTS_MSG(!config.dragonfly.adaptive,
                     "adaptive dragonfly routing picks absolute intermediate "
                     "groups and cannot be quotiented — use minimal routing");
    machine_params.shape.nodes = config.nodes / multiplicity;
  }
  PACC_EXPECTS_MSG(machine_params.shape.valid(), "invalid cluster shape");

  engine_ = std::make_unique<sim::Engine>();
  machine_ = std::make_unique<hw::Machine>(*engine_, machine_params);
  network_ = std::make_unique<net::FlowNetwork>(
      *engine_, machine_params.shape, network_params);

  auto placement = hw::place_ranks(full_shape, config.ranks,
                                   config.ranks_per_node, config.affinity);
  mpi::RuntimeParams rt_params;
  rt_params.mode = config.progress;
  rt_params.governor = config.governor;
  rt_params.synthetic_payloads = config.synthetic_payloads;
  rt_params.collapse_multiplicity = multiplicity;
  rt_params.materialized_plans = config.materialized_plans;
  rt_params.watchdog = config.watchdog;
  runtime_ = std::make_unique<mpi::Runtime>(*engine_, *machine_, *network_,
                                            std::move(placement), rt_params);
  // Private cache unless the caller injected a shared one (Campaign does,
  // so equal-shaped sweep cells reuse each other's schedules).
  runtime_->set_plan_cache(config.plan_cache
                               ? config.plan_cache
                               : std::make_shared<coll::PlanCache>());
  // Tuned-decision table: attached verbatim (null = static dispatch).
  runtime_->set_tuner(config.tuner);
  meter_ = std::make_unique<hw::SamplingMeter>(
      *machine_, config.obs.meter_interval, config.obs.per_node_meter);

  if (config.obs.trace) {
    // Attach the recorder only after construction so the setup noise
    // (initial activity states) stays out of the trace.
    tracer_ = std::make_unique<obs::TraceRecorder>(*engine_);
    tracer_->attach_machine(*machine_);
    engine_->set_tracer(tracer_.get());
    runtime_->profiler().set_trace(tracer_.get());
    const auto& placement = runtime_->placement();
    for (int r = 0; r < placement.ranks(); ++r) {
      tracer_->set_track_name(tracer_->core_track(placement.core_of(r)),
                              "rank " + std::to_string(r));
    }
  }

  if (config.faults.active()) {
    // After the tracer: arm() names the fabric-outage tracks when a
    // recorder is attached. An inactive spec creates nothing at all, so
    // the fault-free hot path stays exactly as before.
    injector_ = std::make_unique<fault::FaultInjector>(config.faults, *engine_,
                                                       *machine_, *network_);
    injector_->arm();
    runtime_->set_fault_injector(injector_.get());
    // The probe must move only on real progress: injector timer events
    // (link flaps) keep firing during a true deadlock.
    watchdog_ = std::make_unique<sim::Watchdog>(
        *engine_, rt_params.watchdog, [this] {
          return injector_->attempt_count() + runtime_->deliveries() +
                 network_->bytes_delivered();
        });
  }
}

Simulation::~Simulation() {
  // Suspended task frames (left over from a cut-short or deadlocked run)
  // hold references to ranks and communicators owned by runtime_, which is
  // destroyed before engine_. Destroy the frames first, while everything
  // they reference is still alive.
  engine_->drop_tasks();
}

RunReport Simulation::run(
    const std::function<sim::Task<>(mpi::Rank&)>& body) {
  meter_->start();
  if (watchdog_ != nullptr) watchdog_->start();
  const TimePoint start = engine_->now();
  runtime_->launch(body);
  // run_active: the meter's self-rescheduling sampling would keep a plain
  // run() alive forever; the deadline catches deadlocked programs.
  const sim::RunResult result =
      engine_->run_active_until(start + config_.max_sim_time);
  meter_->stop();
  // Cancel the fault machinery's self-rescheduling events (flap timers,
  // watchdog samples) BEFORE reading pending_events(): a pending flap
  // would make a drained deadlock look like a timeout.
  if (watchdog_ != nullptr) watchdog_->stop();
  if (injector_ != nullptr) injector_->stop();

  RunReport report;
  if (runtime_->unreachable()) {
    report.status.outcome = RunOutcome::kUnreachable;
    report.status.message = runtime_->unreachable_detail();
  } else if (!result.all_tasks_finished) {
    if (watchdog_ != nullptr && watchdog_->fired()) {
      report.status.outcome = RunOutcome::kDeadlock;
      report.status.message =
          std::to_string(result.stuck_tasks) +
          " task(s) stuck, no progress for " +
          std::to_string(watchdog_->stall_window().ns() / 1000000) +
          " ms (quiescence watchdog)";
    } else {
      // The meter's pending sample is cancelled by stop(), so any event
      // left in the queue belongs to a rank (or the machine acting on its
      // behalf) that was still making progress when the deadline cut the
      // run short. An empty queue means nothing can ever resume the stuck
      // tasks.
      const bool cut_short = engine_->pending_events() > 0;
      report.status.outcome =
          cut_short ? RunOutcome::kTimeout : RunOutcome::kDeadlock;
      report.status.message =
          std::to_string(result.stuck_tasks) + " task(s) stuck" +
          (cut_short ? " at max_sim_time" : ", event queue drained");
    }
  } else if (injector_ != nullptr && injector_->stats().disturbed()) {
    report.status.outcome = RunOutcome::kFaulted;
    report.status.message = injector_->stats().summary();
  }
  if (injector_ != nullptr) report.faults = injector_->stats();
  report.governor = runtime_->governor_stats();
  report.elapsed = result.end_time - start;
  report.energy = machine_->total_energy();
  report.power = meter_->series();
  report.node_power = meter_->node_series();
  if (tracer_ != nullptr) report.energy_phases = tracer_->energy_breakdown();
  if (report.elapsed.ns() > 0) {
    report.mean_power = report.energy / report.elapsed.sec();
  }
  return report;
}

Bytes round_to_doubles(Bytes n) {
  return (n + 7) / 8 * 8;
}

namespace {

struct TimedWindow {
  TimePoint t0;
  TimePoint t1;
  Joules e0 = 0.0;
  Joules e1 = 0.0;
};

}  // namespace

coll::AlgoCall measured_call(const CollectiveBenchSpec& spec, int ranks,
                             std::span<const Bytes> counts) {
  const Bytes block = round_to_doubles(spec.message);
  const auto m = static_cast<std::size_t>(block);
  const auto all = static_cast<std::size_t>(ranks) * m;
  std::size_t send = 0;
  std::size_t recv = 0;
  switch (spec.op) {
    case coll::Op::kAlltoall:
    case coll::Op::kAlltoallv:
      send = recv = all;
      break;
    case coll::Op::kBcast:
      send = m;
      break;
    case coll::Op::kReduce:
    case coll::Op::kAllreduce:
    case coll::Op::kScan:
      send = recv = m;
      break;
    case coll::Op::kAllgather:
    case coll::Op::kGather:
      send = m;
      recv = all;
      break;
    case coll::Op::kScatter:
    case coll::Op::kReduceScatter:
      send = all;
      recv = m;
      break;
    case coll::Op::kBarrier:
      break;
  }
  coll::AlgoCall call;
  call.send = coll::Extent::sized(send);
  call.recv = coll::Extent::sized(recv);
  call.send_counts = counts;
  call.recv_counts = counts;
  call.block = block;
  call.root = spec.root;
  call.scheme = spec.scheme;
  call.seg = spec.seg;
  return call;
}

CollectiveReport measure_collective(const ClusterConfig& config,
                                    const CollectiveBenchSpec& spec) {
  PACC_EXPECTS(spec.iterations >= 1 && spec.warmup >= 0);
  if (!coll::supported(spec.op, spec.scheme)) {
    CollectiveReport report;
    report.status = RunStatus::error("unsupported combination " +
                                     coll::to_string(spec.op) + " × " +
                                     coll::to_string(spec.scheme));
    return report;
  }
  // Resolve the algorithm up front: either the op's default dispatcher or
  // the forced registry entry, validated against the spec.
  const coll::AlgoDesc* algo = &coll::default_algorithm(spec.op);
  if (!spec.algo.empty()) {
    algo = coll::find_algorithm(spec.algo);
    CollectiveReport report;
    if (algo == nullptr) {
      report.status = RunStatus::error(
          "unknown algorithm '" + spec.algo +
          "' (registered: " + coll::algorithm_names() + ")");
      return report;
    }
    if (algo->op != spec.op) {
      report.status = RunStatus::error(
          "algorithm '" + spec.algo + "' implements " +
          coll::to_string(algo->op) + ", not " + coll::to_string(spec.op) +
          " (candidates: " + coll::algorithm_names(spec.op) + ")");
      return report;
    }
    if (!coll::algo_supports(*algo, spec.scheme)) {
      report.status = RunStatus::error(
          "algorithm '" + spec.algo + "' does not implement scheme " +
          coll::to_string(spec.scheme));
      return report;
    }
  }
  if (spec.seg > 0) {
    CollectiveReport report;
    if (spec.algo.empty() || !algo->segmented) {
      report.status = RunStatus::error(
          "segment size requires a segmented algorithm (registered: " +
          coll::algorithm_names(spec.op) + ")");
      return report;
    }
    if (spec.seg % sizeof(double) != 0 || spec.seg < algo->min_seg ||
        spec.seg > algo->max_seg) {
      report.status = RunStatus::error(
          "segment size " + std::to_string(spec.seg) + " outside '" +
          spec.algo + "' domain [" + std::to_string(algo->min_seg) + ", " +
          std::to_string(algo->max_seg) + "], multiples of 8");
      return report;
    }
  }
  if (config.governor.enabled) {
    // Friendly counterparts of the Runtime/make_governor contract checks,
    // raised before any Simulation is built so sweeps degrade to an error
    // cell instead of aborting.
    CollectiveReport report;
    if (config.progress == mpi::ProgressMode::kBlocking) {
      report.status = RunStatus::error(
          "governor requires polling progress: blocking waits sleep at "
          "idle power, which is frequency-independent");
      return report;
    }
    if (!coll::governor_supported(config.governor.kind, spec.scheme)) {
      report.status = RunStatus::error(
          "governor " + mpi::to_string(config.governor.kind) +
          " does not compose with scheme " + coll::to_string(spec.scheme));
      return report;
    }
    if (config.governor.kind == mpi::GovernorKind::kPowerCap &&
        config.governor.node_power_cap <= 0.0) {
      report.status =
          RunStatus::error("power-cap governor needs node_power_cap > 0");
      return report;
    }
  }
  // The harness never reads a payload byte, so the runtime ships sizes
  // without contents (synthetic payloads) and the calls below pass
  // size-only extents — every simulated quantity depends only on sizes.
  ClusterConfig harness_config = config;
  harness_config.synthetic_payloads = true;
  // A forced algorithm must actually run: detach the tuner so the default
  // dispatchers cannot redirect to a tuned variant mid-race. The racing
  // driver (pacc/tuning.hpp) counts on this when it times the "default"
  // candidate of a cell that already has a tuned decision.
  if (!spec.algo.empty()) harness_config.tuner = nullptr;
  // Rank-symmetry collapse: when the whole measurement commutes with the
  // fabric's top-level group symmetry, simulate one representative group
  // and scale the energy integrals back up (timing needs no scaling — the
  // representative's window IS the full system's, bit for bit).
  const sym::CollapseDecision collapse = sym::decide(config, spec);
  harness_config.collapse_multiplicity = collapse.multiplicity;
  Simulation sim(harness_config);
  auto window = std::make_shared<TimedWindow>();

  const std::vector<Bytes> counts(
      spec.op == coll::Op::kAlltoallv ? static_cast<std::size_t>(config.ranks)
                                      : 0,
      round_to_doubles(spec.message));
  const coll::AlgoCall call = measured_call(spec, config.ranks, counts);

  auto body = [&sim, &spec, window, &call,
               algo](mpi::Rank& self) -> sim::Task<> {
    mpi::Comm& world = sim.runtime().world();

    for (int i = 0; i < spec.warmup; ++i) {
      co_await algo->exec(self, world, call);
    }
    co_await coll::barrier(self, world);
    if (self.id() == 0) {
      window->t0 = self.engine().now();
      window->e0 = self.machine().total_energy();
    }
    for (int i = 0; i < spec.iterations; ++i) {
      co_await algo->exec(self, world, call);
    }
    co_await coll::barrier(self, world);
    if (self.id() == 0) {
      window->t1 = self.engine().now();
      window->e1 = self.machine().total_energy();
    }
  };

  const RunReport run = sim.run(body);

  CollectiveReport report;
  report.status = run.status;
  report.faults = run.faults;
  report.governor = run.governor;
  report.collapse.multiplicity = collapse.multiplicity;
  report.collapse.classes = collapse.classes;
  report.collapse.logical_ranks = config.ranks;
  report.collapse.simulated_ranks = config.ranks / collapse.multiplicity;
  report.collapse.reason = collapse.reason;
  report.collapse.broken_classes = collapse.broken_classes;
  report.collapse.representative_flows = sim.network().flows_started();
  // Latency is the representative group's window verbatim; energy and
  // power integrate over the quotient machine and scale by the class size.
  const double scale = static_cast<double>(collapse.multiplicity);
  const Duration window_time = window->t1 - window->t0;
  report.latency = window_time / static_cast<double>(spec.iterations);
  report.energy_per_op =
      (window->e1 - window->e0) / static_cast<double>(spec.iterations) * scale;
  if (window_time.ns() > 0) {
    report.mean_power =
        (window->e1 - window->e0) / window_time.sec() * scale;
  }
  for (const auto& sample : run.power.samples()) {
    if (sample.time >= window->t0 && sample.time <= window->t1) {
      report.power.add(sample.time, sample.watts * scale);
    }
  }
  if (obs::TraceRecorder* tracer = sim.tracer()) {
    report.energy_phases = run.energy_phases;
    std::ostringstream json;
    tracer->write_json(json);
    report.trace_json = std::move(json).str();
  }
  return report;
}

}  // namespace pacc
