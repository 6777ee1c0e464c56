#include "fault/fault.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace pacc::fault {

namespace {

// Draw categories: each (category, entity, draw-index) triple names one
// independent uniform variate. Decisions depend only on who is asking for
// their n-th verdict, never on event interleaving.
enum Category : std::uint64_t {
  kDropDraw = 1,
  kDelayDraw,
  kDelayAmount,
  kSchemeDoom,
  kFlapGap,
  kFlapLength,
  kTransitionFail,
  kTransitionStretch,
  kStretchAmount,
  kStragglerPick,
};

/// SplitMix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t hash3(std::uint64_t seed, std::uint64_t cat, std::uint64_t a,
                    std::uint64_t b) {
  std::uint64_t h = mix64(seed + 0x9e3779b97f4a7c15ull * (cat + 1));
  h = mix64(h ^ a);
  return mix64(h ^ b);
}

std::uint64_t pair_key(int src, int dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
         static_cast<std::uint32_t>(dst);
}

void append_stat(std::string& out, const char* name, std::uint64_t v) {
  if (v == 0) return;
  if (!out.empty()) out += ' ';
  out += name;
  out += '=';
  out += std::to_string(v);
}

}  // namespace

std::uint64_t derive_cell_seed(std::uint64_t campaign_seed,
                               std::size_t cell_index) {
  return mix64(campaign_seed ^ mix64(0xc3a5c85c97cb3127ull + cell_index));
}

std::vector<int> FaultInjector::straggler_nodes(const FaultSpec& spec,
                                                int nodes) {
  std::vector<int> picked;
  if (spec.stragglers <= 0 || spec.straggler_slowdown <= 1.0 || nodes <= 0) {
    return picked;
  }
  std::vector<int> order(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) order[static_cast<std::size_t>(n)] = n;
  const int count = std::min(spec.stragglers, nodes);
  picked.reserve(static_cast<std::size_t>(count));
  // Partial Fisher–Yates with per-position draws: the straggler set is a
  // function of (seed, nodes) alone.
  for (int i = 0; i < count; ++i) {
    const double u = static_cast<double>(
                         hash3(spec.seed, kStragglerPick,
                               static_cast<std::uint64_t>(i), 0) >>
                         11) *
                     0x1.0p-53;
    const int j = i + static_cast<int>(u * static_cast<double>(nodes - i));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
    picked.push_back(order[static_cast<std::size_t>(i)]);
  }
  return picked;
}

// ---------------------------------------------------------- FaultSpec ----

std::optional<FaultSpec> FaultSpec::parse(std::string_view text,
                                          std::string* error) {
  FaultSpec spec;
  auto fail = [error](std::string msg) -> std::optional<FaultSpec> {
    if (error != nullptr) *error = std::move(msg);
    return std::nullopt;
  };
  while (!text.empty()) {
    const std::size_t comma = text.find(',');
    std::string_view item = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      return fail("expected key=value, got '" + std::string(item) + "'");
    }
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    double num = 0.0;
    const auto [ptr, ec] =
        std::from_chars(value.data(), value.data() + value.size(), num);
    if (ec != std::errc{} || ptr != value.data() + value.size()) {
      return fail("bad number '" + std::string(value) + "' for '" +
                  std::string(key) + "'");
    }
    if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(num);
    } else if (key == "drop") {
      spec.drop_rate = num;
    } else if (key == "delay") {
      spec.delay_rate = num;
    } else if (key == "delay-us") {
      spec.delay_max = Duration::micros(num);
    } else if (key == "flap") {
      spec.flap_rate_hz = num;
    } else if (key == "down-us") {
      spec.down_mean = Duration::micros(num);
    } else if (key == "degrade") {
      spec.degrade_factor = num;
    } else if (key == "stragglers") {
      spec.stragglers = static_cast<int>(num);
    } else if (key == "slow") {
      spec.straggler_slowdown = num;
    } else if (key == "tfail") {
      spec.transition_fail_rate = num;
    } else if (key == "tstretch") {
      spec.transition_stretch_rate = num;
    } else if (key == "stretch-max") {
      spec.transition_stretch_max = num;
    } else if (key == "ack-us") {
      spec.ack_timeout = Duration::micros(num);
    } else if (key == "backoff") {
      spec.backoff_factor = num;
    } else if (key == "retries") {
      spec.retry_budget = static_cast<int>(num);
    } else {
      return fail("unknown fault key '" + std::string(key) + "'");
    }
  }
  auto rate_ok = [](double r) { return r >= 0.0 && r <= 1.0; };
  if (!rate_ok(spec.drop_rate) || !rate_ok(spec.delay_rate) ||
      !rate_ok(spec.transition_fail_rate) ||
      !rate_ok(spec.transition_stretch_rate)) {
    return fail("rates must lie in [0, 1]");
  }
  if (spec.flap_rate_hz < 0.0 || spec.degrade_factor < 0.0 ||
      spec.degrade_factor >= 1.0) {
    return fail("flap must be >= 0 and degrade in [0, 1)");
  }
  if (spec.stragglers < 0 || spec.straggler_slowdown < 1.0) {
    return fail("stragglers must be >= 0 and slow >= 1");
  }
  if (spec.transition_stretch_max <= 1.0 || spec.backoff_factor < 1.0 ||
      spec.retry_budget < 0 || spec.ack_timeout.ns() <= 0 ||
      spec.down_mean.ns() <= 0 || spec.delay_max.ns() <= 0) {
    return fail("recovery/interval parameters out of range");
  }
  return spec;
}

std::string FaultStats::summary() const {
  std::string out;
  append_stat(out, "drops", drops);
  append_stat(out, "delays", delays);
  append_stat(out, "retransmits", retransmits);
  append_stat(out, "abandoned", messages_abandoned);
  append_stat(out, "flaps", link_flaps);
  append_stat(out, "preempted", flows_preempted);
  append_stat(out, "tfail", transition_failures);
  append_stat(out, "tstretch", transition_stretches);
  append_stat(out, "fallbacks", scheme_fallbacks);
  return out;
}

// ------------------------------------------------------- FaultInjector ----

FaultInjector::FaultInjector(const FaultSpec& spec, sim::Engine& engine,
                             hw::Machine& machine, net::FlowNetwork& network)
    : spec_(spec), engine_(engine), machine_(machine), network_(network) {
  PACC_EXPECTS_MSG(spec_.active(), "injector built from an inactive spec");
}

double FaultInjector::u01(std::uint64_t category, std::uint64_t entity,
                          std::uint64_t draw) const {
  return static_cast<double>(hash3(spec_.seed, category, entity, draw) >> 11) *
         0x1.0p-53;
}

void FaultInjector::arm() {
  PACC_EXPECTS_MSG(!armed_, "injector armed twice");
  armed_ = true;
  preempted_baseline_ = network_.flows_preempted();

  if (spec_.transition_fail_rate > 0.0 || spec_.transition_stretch_rate > 0.0) {
    transition_counter_.assign(
        static_cast<std::size_t>(machine_.shape().total_cores()), 0);
    machine_.set_transition_fault_hook(
        [this](const hw::CoreId& core, hw::TransitionKind kind) {
          return on_transition(core, kind);
        });
  }

  for (int node : straggler_nodes(spec_, machine_.shape().nodes)) {
    machine_.set_node_slowdown(node, spec_.straggler_slowdown);
  }

  if (spec_.flap_rate_hz > 0.0) {
    // Every fault unit of the network flaps: each node's HCA, then every
    // switch level's groups (see net::FlowNetwork::fault_unit).
    const int units = network_.fault_units();
    flap_event_.assign(static_cast<std::size_t>(units), 0);
    flap_count_.assign(static_cast<std::size_t>(units), 0);
    if (auto* tr = engine_.tracer()) {
      for (int u = 0; u < units; ++u) {
        const net::FaultUnit info = network_.fault_unit(u);
        tr->set_track_name(obs::TrackId{kFabricTrackPid, u},
                           std::string(info.label) + " " +
                               std::to_string(info.index));
      }
    }
    for (int u = 0; u < units; ++u) schedule_flap(u);
  }
}

void FaultInjector::stop() {
  for (auto& ev : flap_event_) {
    if (ev != 0) {
      engine_.cancel(ev);
      ev = 0;
    }
  }
  stats_.flows_preempted = network_.flows_preempted() - preempted_baseline_;
}

FaultInjector::MessageDraw FaultInjector::next_message_draw(int src_rank,
                                                            int dst_rank) {
  const std::uint64_t key = pair_key(src_rank, dst_rank);
  const std::uint32_t n = pair_counter_[key]++;
  ++attempts_;
  MessageDraw draw;
  if (spec_.drop_rate > 0.0 && u01(kDropDraw, key, n) < spec_.drop_rate) {
    draw.drop = true;
    ++stats_.drops;
    return draw;
  }
  if (spec_.delay_rate > 0.0 && u01(kDelayDraw, key, n) < spec_.delay_rate) {
    const double frac = u01(kDelayAmount, key, n);
    draw.extra_delay = Duration::nanos(
        1 + static_cast<std::int64_t>(frac *
                                      static_cast<double>(spec_.delay_max.ns() -
                                                          1)));
    ++stats_.delays;
  }
  return draw;
}

bool FaultInjector::scheme_entry_doomed(int context_id, int call_seq) const {
  if (spec_.transition_fail_rate <= 0.0) return false;
  return u01(kSchemeDoom, static_cast<std::uint64_t>(context_id),
             static_cast<std::uint64_t>(call_seq)) < spec_.transition_fail_rate;
}

hw::TransitionOutcome FaultInjector::on_transition(const hw::CoreId& core,
                                                   hw::TransitionKind kind) {
  const auto lc = static_cast<std::uint64_t>(
      hw::linear_core(machine_.shape(), core));
  // One draw index per transition the core issues, shared across kinds so
  // the stream stays a function of the core's own transition history.
  (void)kind;
  const std::uint32_t n =
      transition_counter_[static_cast<std::size_t>(lc)]++;
  hw::TransitionOutcome outcome;
  if (spec_.transition_fail_rate > 0.0 &&
      u01(kTransitionFail, lc, n) < spec_.transition_fail_rate) {
    outcome.apply = false;
    ++stats_.transition_failures;
  } else if (spec_.transition_stretch_rate > 0.0 &&
             u01(kTransitionStretch, lc, n) < spec_.transition_stretch_rate) {
    outcome.latency_scale =
        1.0 + u01(kStretchAmount, lc, n) * (spec_.transition_stretch_max - 1.0);
    ++stats_.transition_stretches;
  }
  return outcome;
}

void FaultInjector::schedule_flap(int unit) {
  const auto u = static_cast<std::size_t>(unit);
  const std::uint32_t n = flap_count_[u]++;
  // Exponential inter-outage gap with mean 1/flap_rate.
  const double draw = u01(kFlapGap, static_cast<std::uint64_t>(unit), n);
  const double gap_sec = -std::log1p(-draw) / spec_.flap_rate_hz;
  const auto gap = Duration::nanos(
      1 + static_cast<std::int64_t>(std::min(gap_sec * 1e9, 9.0e15)));
  flap_event_[u] =
      engine_.schedule(gap, [this, unit] { begin_outage(unit); });
}

void FaultInjector::begin_outage(int unit) {
  const auto u = static_cast<std::size_t>(unit);
  flap_event_[u] = 0;
  ++stats_.link_flaps;
  const TimePoint began = engine_.now();
  network_.set_unit_efficiency(unit, spec_.degrade_factor);
  const std::uint32_t n = flap_count_[u]++;
  // Bounded outage: [0.5, 1.5] × the configured mean.
  const double frac =
      0.5 + u01(kFlapLength, static_cast<std::uint64_t>(unit), n);
  const auto down = Duration::nanos(static_cast<std::int64_t>(
      frac * static_cast<double>(spec_.down_mean.ns())));
  flap_event_[u] = engine_.schedule(
      down, [this, unit, began] { end_outage(unit, began); });
}

void FaultInjector::end_outage(int unit, TimePoint began) {
  const auto u = static_cast<std::size_t>(unit);
  flap_event_[u] = 0;
  network_.set_unit_efficiency(unit, 1.0);
  if (auto* tr = engine_.tracer()) {
    const net::FaultUnit info = network_.fault_unit(unit);
    tr->complete_span(obs::TrackId{kFabricTrackPid, unit}, info.span, "fault",
                      began, {{"unit", info.index}});
  }
  schedule_flap(unit);
}

}  // namespace pacc::fault
