#include "hw/machine.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace pacc::hw {

Machine::Machine(sim::Engine& engine, MachineParams params)
    : engine_(engine), params_(std::move(params)) {
  PACC_EXPECTS(params_.shape.valid());
  PACC_EXPECTS(params_.fmin.hz() > 0.0 &&
               params_.fmin.hz() <= params_.fmax.hz());

  node_slowdown_.assign(static_cast<std::size_t>(params_.shape.nodes), 1.0);
  node_power_cap_.assign(static_cast<std::size_t>(params_.shape.nodes), 0.0);
  cores_.resize(static_cast<std::size_t>(params_.shape.total_cores()));
  static_power_ =
      params_.power.node_base * params_.shape.nodes +
      params_.power.socket_uncore * params_.shape.sockets_total();
  system_power_ = static_power_;
  for (auto& cs : cores_) {
    cs.freq = params_.fmax;
    refresh_power(cs);
  }
  created_ = engine_.now();
  last_flush_ = created_;
}

void Machine::flush() {
  const TimePoint now = engine_.now();
  const Duration dt = now - last_flush_;
  if (dt.ns() <= 0) return;
  const double secs = dt.sec();
  energy_ += system_power_ * secs;
  for (auto& cs : cores_) {
    cs.stats.energy += cs.power * secs;
    if (cs.activity == Activity::kBusy) {
      cs.stats.busy_time += dt;
    } else {
      cs.stats.idle_time += dt;
    }
    if (cs.tstate > ThrottleLevel::kMin) cs.stats.throttled_time += dt;
  }
  last_flush_ = now;
}

void Machine::refresh_power(CoreState& cs) {
  system_power_ -= cs.power;
  cs.power = params_.power.core_power(cs.freq, params_.fmax, cs.tstate,
                                      cs.activity);
  system_power_ += cs.power;
  cs.freq_slow = params_.fmax.hz() / cs.freq.hz();
  cs.throttle_slow = 1.0 / ThrottleLevel::activity_factor(cs.tstate);
}

void Machine::set_frequency(const CoreId& core, Frequency f) {
  PACC_EXPECTS(f >= params_.fmin && f <= params_.fmax);
  flush();
  auto& cs = state(core);
  cs.freq = f;
  refresh_power(cs);
  if (auto* tr = engine_.tracer()) {
    tr->counter(tr->core_track(core), "freq_mhz", f.hz() / 1e6);
  }
}

void Machine::set_activity(const CoreId& core, Activity a) {
  flush();
  auto& cs = state(core);
  cs.activity = a;
  refresh_power(cs);
}

void Machine::set_core_throttle(const CoreId& core, int tstate) {
  PACC_EXPECTS(tstate >= ThrottleLevel::kMin && tstate <= ThrottleLevel::kMax);
  flush();
  auto& cs = state(core);
  cs.tstate = tstate;
  refresh_power(cs);
  if (auto* tr = engine_.tracer()) {
    tr->counter(tr->core_track(core), "tstate", tstate);
  }
}

void Machine::set_socket_throttle(int node, int socket, int tstate) {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  PACC_EXPECTS(socket >= 0 && socket < params_.shape.sockets_per_node);
  PACC_EXPECTS(tstate >= ThrottleLevel::kMin && tstate <= ThrottleLevel::kMax);
  flush();
  for (int c = 0; c < params_.shape.cores_per_socket; ++c) {
    auto& cs = state(CoreId{node, socket, c});
    cs.tstate = tstate;
    refresh_power(cs);
  }
  if (auto* tr = engine_.tracer()) {
    tr->counter(tr->core_track(CoreId{node, socket, 0}), "tstate", tstate);
  }
}

sim::Task<bool> Machine::dvfs_transition(CoreId core, Frequency target) {
  const TimePoint begin = engine_.now();
  TransitionOutcome outcome;
  if (fault_hook_) outcome = fault_hook_(core, TransitionKind::kDvfs);
  // The old P-state's power is charged across the window; the frequency
  // changes only once the PLL has relocked (and only if it relocked at all).
  co_await engine_.delay(params_.dvfs_overhead * outcome.latency_scale);
  if (outcome.apply) set_frequency(core, target);
  if (auto* tr = engine_.tracer()) {
    if (outcome.apply && outcome.latency_scale == 1.0) {
      tr->complete_span(
          tr->core_track(core), "dvfs", "power", begin,
          {{"mhz", static_cast<std::int64_t>(target.hz() / 1e6)}});
    } else {
      tr->complete_span(
          tr->core_track(core), "dvfs", "power", begin,
          {{"mhz", static_cast<std::int64_t>(target.hz() / 1e6)},
           {"failed", outcome.apply ? 0 : 1},
           {"stretched", outcome.latency_scale == 1.0 ? 0 : 1}});
    }
  }
  co_return outcome.apply;
}

sim::Task<bool> Machine::throttle_transition(CoreId issuer, int tstate) {
  const TimePoint begin = engine_.now();
  TransitionOutcome outcome;
  if (fault_hook_) outcome = fault_hook_(issuer, TransitionKind::kThrottle);
  co_await engine_.delay(params_.throttle_overhead * outcome.latency_scale);
  if (outcome.apply) {
    if (params_.core_level_throttling) {
      set_core_throttle(issuer, tstate);
    } else {
      set_socket_throttle(issuer.node, issuer.socket, tstate);
    }
  }
  if (auto* tr = engine_.tracer()) {
    if (outcome.apply && outcome.latency_scale == 1.0) {
      tr->complete_span(tr->core_track(issuer), "throttle", "power", begin,
                        {{"tstate", tstate},
                         {"socket_wide",
                          params_.core_level_throttling ? 0 : 1}});
    } else {
      tr->complete_span(tr->core_track(issuer), "throttle", "power", begin,
                        {{"tstate", tstate},
                         {"failed", outcome.apply ? 0 : 1},
                         {"stretched", outcome.latency_scale == 1.0 ? 0 : 1}});
    }
  }
  co_return outcome.apply;
}

void Machine::set_node_slowdown(int node, double factor) {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  PACC_EXPECTS(factor >= 1.0);
  node_slowdown_[static_cast<std::size_t>(node)] = factor;
}

double Machine::node_slowdown(int node) const {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  return node_slowdown_[static_cast<std::size_t>(node)];
}

void Machine::set_node_power_cap(int node, Watts cap) {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  PACC_EXPECTS(cap >= 0.0);
  node_power_cap_[static_cast<std::size_t>(node)] = cap;
}

Watts Machine::node_power_cap(int node) const {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  return node_power_cap_[static_cast<std::size_t>(node)];
}

Watts Machine::node_dynamic_budget(int node) const {
  const Watts static_draw =
      params_.power.node_base +
      params_.power.socket_uncore * params_.shape.sockets_per_node +
      params_.power.core_idle * params_.shape.cores_per_node();
  return node_power_cap(node) - static_draw;
}

Watts Machine::core_dynamic_power(Frequency f) const {
  return params_.power.core_dynamic_fmax *
         std::pow(f.hz() / params_.fmax.hz(), params_.power.freq_exponent);
}

Frequency Machine::frequency_for_dynamic_budget(Watts dynamic_budget,
                                                int cores) const {
  PACC_EXPECTS(cores >= 1);
  const double per_core = dynamic_budget / cores;
  if (per_core <= 0.0) return params_.fmin;
  const double ratio =
      std::min(1.0, per_core / params_.power.core_dynamic_fmax);
  const Frequency f{params_.fmax.hz() *
                    std::pow(ratio, 1.0 / params_.power.freq_exponent)};
  return std::clamp(f, params_.fmin, params_.fmax);
}

Frequency Machine::frequency(const CoreId& core) const {
  return state(core).freq;
}

int Machine::throttle(const CoreId& core) const { return state(core).tstate; }

Activity Machine::activity(const CoreId& core) const {
  return state(core).activity;
}

double Machine::cpu_slowdown(const CoreId& core) const {
  const CoreState& cs = state(core);
  return cs.freq_slow * cs.throttle_slow *
         node_slowdown_[static_cast<std::size_t>(core.node)];
}

double Machine::freq_slowdown(const CoreId& core) const {
  return state(core).freq_slow;
}

double Machine::throttle_slowdown(const CoreId& core) const {
  return state(core).throttle_slow;
}

Watts Machine::node_power(int node) const {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  Watts total = params_.power.node_base +
                params_.power.socket_uncore * params_.shape.sockets_per_node;
  const int base = node * params_.shape.cores_per_node();
  for (int c = 0; c < params_.shape.cores_per_node(); ++c) {
    total += cores_[static_cast<std::size_t>(base + c)].power;
  }
  return total;
}

Joules Machine::total_energy() {
  flush();
  return energy_;
}

Joules Machine::node_energy(int node) {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  flush();
  const Watts static_share =
      params_.power.node_base +
      params_.power.socket_uncore * params_.shape.sockets_per_node;
  Joules total = static_share * (engine_.now() - created_).sec();
  const int base = node * params_.shape.cores_per_node();
  for (int c = 0; c < params_.shape.cores_per_node(); ++c) {
    total += cores_[static_cast<std::size_t>(base + c)].stats.energy;
  }
  return total;
}

Joules Machine::socket_energy(int node, int socket) {
  PACC_EXPECTS(node >= 0 && node < params_.shape.nodes);
  PACC_EXPECTS(socket >= 0 && socket < params_.shape.sockets_per_node);
  flush();
  Joules total = params_.power.socket_uncore * (engine_.now() - created_).sec();
  for (int c = 0; c < params_.shape.cores_per_socket; ++c) {
    total += state(CoreId{node, socket, c}).stats.energy;
  }
  return total;
}

CoreStats Machine::core_stats(const CoreId& core) {
  flush();
  return state(core).stats;
}

}  // namespace pacc::hw
