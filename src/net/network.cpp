#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace pacc::net {

namespace {
// Residual bytes below this are treated as delivered (guards double error).
constexpr double kByteEpsilon = 1e-6;
}  // namespace

FlowNetwork::FlowNetwork(sim::Engine& engine, hw::ClusterShape shape,
                         NetworkParams params)
    : engine_(engine), shape_(shape), params_(params) {
  PACC_EXPECTS(shape_.valid());
  PACC_EXPECTS(params_.link_bandwidth > 0.0 && params_.shm_bandwidth > 0.0);
  PACC_EXPECTS_MSG(shape_.fabric_levels() <= kMaxFabricLevels,
                   "at most three fat-tree fabric levels are supported");
  std::size_t link_count =
      static_cast<std::size_t>(3 * shape_.nodes + 2 * shape_.racks());
  fabric_link_base_.reserve(static_cast<std::size_t>(shape_.fabric_levels()));
  for (int level = 0; level < shape_.fabric_levels(); ++level) {
    fabric_link_base_.push_back(static_cast<int>(link_count));
    link_count += static_cast<std::size_t>(2 * shape_.fabric_groups(level));
  }
  df_link_base_ = static_cast<int>(link_count);
  if (shape_.has_dragonfly()) {
    link_count += static_cast<std::size_t>(2 * shape_.df_routers_total() +
                                           2 * shape_.df_groups());
  }
  link_bandwidth_.assign(link_count, 0.0);
  for (int n = 0; n < shape_.nodes; ++n) {
    link_bandwidth_[static_cast<std::size_t>(uplink(n))] =
        params_.link_bandwidth;
    link_bandwidth_[static_cast<std::size_t>(downlink(n))] =
        params_.link_bandwidth;
    link_bandwidth_[static_cast<std::size_t>(shm_link(n))] =
        params_.shm_bandwidth;
  }
  for (int r = 0; r < shape_.racks(); ++r) {
    const double bw =
        rack_layer_enabled() ? params_.rack_bandwidth : params_.link_bandwidth;
    link_bandwidth_[static_cast<std::size_t>(rack_uplink(r))] = bw;
    link_bandwidth_[static_cast<std::size_t>(rack_downlink(r))] = bw;
  }
  for (int level = 0; level < shape_.fabric_levels(); ++level) {
    const double bw =
        shape_.fabric_link_bandwidth(level, params_.link_bandwidth);
    for (int g = 0; g < shape_.fabric_groups(level); ++g) {
      link_bandwidth_[static_cast<std::size_t>(fabric_uplink(level, g))] = bw;
      link_bandwidth_[static_cast<std::size_t>(fabric_downlink(level, g))] =
          bw;
    }
  }
  if (shape_.has_dragonfly()) {
    const double local_bw = shape_.df_local_bandwidth(params_.link_bandwidth);
    const double global_bw =
        shape_.df_global_bandwidth(params_.link_bandwidth);
    for (int r = 0; r < shape_.df_routers_total(); ++r) {
      link_bandwidth_[static_cast<std::size_t>(df_router_uplink(r))] =
          local_bw;
      link_bandwidth_[static_cast<std::size_t>(df_router_downlink(r))] =
          local_bw;
    }
    for (int g = 0; g < shape_.df_groups(); ++g) {
      link_bandwidth_[static_cast<std::size_t>(df_global_uplink(g))] =
          global_bw;
      link_bandwidth_[static_cast<std::size_t>(df_global_downlink(g))] =
          global_bw;
    }
  }
  link_efficiency_.assign(link_count, 1.0);
  link_head_.assign(link_count, kNullHook);
  link_nflows_.assign(link_count, 0);
  residual_.assign(link_count, 0.0);
  wf_active_.assign(link_count, 0);
  link_epoch_.assign(link_count, 0);
}

double NetworkParams::wire_multiplier(double sender_freq_slowdown,
                                      double sender_throttle_slowdown,
                                      double receiver_freq_slowdown,
                                      double receiver_throttle_slowdown) const {
  auto endpoint = [this](double sf, double st) {
    return 1.0 + freq_wire_penalty * (sf - 1.0) +
           freq_wire_penalty * throttle_wire_weight * (st - 1.0);
  };
  return std::max(endpoint(sender_freq_slowdown, sender_throttle_slowdown),
                  endpoint(receiver_freq_slowdown, receiver_throttle_slowdown));
}

// ------------------------------------------------------------- slab ----

std::uint32_t FlowNetwork::alloc_flow() {
  if (!free_flows_.empty()) {
    const std::uint32_t slot = free_flows_.back();
    free_flows_.pop_back();
    return slot;
  }
  PACC_ASSERT(flows_.size() < hook_slot(kNullHook));
  flows_.emplace_back();
  flow_epoch_.push_back(0);
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

void FlowNetwork::link_flow(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  for (int k = 0; k < flow.nlinks; ++k) {
    const auto l = static_cast<std::size_t>(flow.links[k]);
    const std::uint32_t head = link_head_[l];
    flow.prev[k] = kNullHook;
    flow.next[k] = head;
    if (head != kNullHook) {
      flows_[hook_slot(head)].prev[hook_index(head)] = hook(slot, k);
    }
    link_head_[l] = hook(slot, k);
    ++link_nflows_[l];
  }
}

void FlowNetwork::unlink_flow(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  for (int k = 0; k < flow.nlinks; ++k) {
    const auto l = static_cast<std::size_t>(flow.links[k]);
    const std::uint32_t prev = flow.prev[k];
    const std::uint32_t next = flow.next[k];
    if (prev != kNullHook) {
      flows_[hook_slot(prev)].next[hook_index(prev)] = next;
    } else {
      link_head_[l] = next;
    }
    if (next != kNullHook) {
      flows_[hook_slot(next)].prev[hook_index(next)] = prev;
    }
    --link_nflows_[l];
  }
}

// ------------------------------------------------------------ API ----

sim::Task<bool> FlowNetwork::transfer(int src_node, int dst_node, Bytes bytes,
                                      bool force_loopback,
                                      double wire_multiplier, bool via_top) {
  // A down link refuses new work before any bandwidth is allocated — even
  // a zero-byte header cannot cross it.
  if (!path_up(src_node, dst_node, force_loopback, via_top)) co_return false;
  if (bytes == 0) co_return true;
  const FlowHandle h = start_flow_impl(src_node, dst_node, bytes,
                                       force_loopback, wire_multiplier, {},
                                       via_top);
  co_return co_await FlowAwaiter{*this, h};
}

FlowNetwork::FlowHandle FlowNetwork::start_flow(int src_node, int dst_node,
                                                Bytes bytes,
                                                bool force_loopback,
                                                double wire_multiplier,
                                                sim::Callback on_delivered,
                                                bool via_top) {
  if (bytes == 0) {
    // Nothing crosses the fabric; deliver from the engine at now() so the
    // callback still runs in event context, like any other delivery.
    if (on_delivered) {
      engine_.schedule(Duration::zero(), std::move(on_delivered));
    }
    return FlowHandle{};
  }
  return start_flow_impl(src_node, dst_node, bytes, force_loopback,
                         wire_multiplier, std::move(on_delivered), via_top);
}

int FlowNetwork::dragonfly_links(int src_node, int dst_node, bool via_top,
                                 std::int32_t* out) const {
  const int sr = shape_.df_router_of(src_node);
  const int dr = shape_.df_router_of(dst_node);
  const int sg = shape_.df_group_of(src_node);
  const int dg = shape_.df_group_of(dst_node);
  int n = 0;
  if (sr == dr && !via_top) return 0;  // same router: HCA links only
  if (sg == dg && !via_top) {
    // Group-local: one hop over the group's all-to-all router mesh.
    out[n++] = df_router_uplink(sr);
    out[n++] = df_router_downlink(dr);
    return n;
  }
  // Cross-group (or the collapse's forced representative path): source
  // router into the mesh, source group's global link out, destination
  // group's global link in, destination router out of the mesh.
  out[n++] = df_router_uplink(sr);
  out[n++] = df_global_uplink(sg);
  const int groups = shape_.df_groups();
  if (shape_.dragonfly.adaptive && !via_top && sg != dg && groups >= 3) {
    // Valiant detour: land in a deterministic intermediate group and
    // re-emerge onto the global plane. The intermediate is the first
    // group after the source that is neither endpoint — deterministic, so
    // runs stay byte-identical at any job count.
    int mid = (sg + 1) % groups;
    while (mid == sg || mid == dg) mid = (mid + 1) % groups;
    out[n++] = df_global_downlink(mid);
    out[n++] = df_global_uplink(mid);
  }
  out[n++] = df_global_downlink(dg);
  out[n++] = df_router_downlink(dr);
  return n;
}

void FlowNetwork::route_flow(Flow& flow, int src_node, int dst_node,
                             bool force_loopback, bool via_top) const {
  if (src_node == dst_node && !force_loopback && !via_top) {
    flow.links[0] = shm_link(src_node);
    flow.nlinks = 1;
    // One core drives this copy; it cannot exceed the per-core copy rate
    // even when the aggregate memory channel has headroom.
    flow.rate_cap = params_.shm_per_flow_bandwidth;
    return;
  }
  flow.links[0] = uplink(src_node);
  flow.links[1] = downlink(dst_node);
  flow.nlinks = 2;
  if (shape_.has_dragonfly()) {
    flow.nlinks = static_cast<std::uint8_t>(
        2 + dragonfly_links(src_node, dst_node, via_top, flow.links + 2));
    return;
  }
  if (shape_.has_fabric()) {
    // Climb level by level until the endpoints share a group (or, via_top,
    // all the way to the core crossbar): each level crossed costs the
    // source group's uplink and the destination group's downlink.
    for (int level = 0; level < shape_.fabric_levels(); ++level) {
      const int sg = shape_.fabric_group_of(src_node, level);
      const int dg = shape_.fabric_group_of(dst_node, level);
      if (sg == dg && !via_top) break;
      flow.links[flow.nlinks++] = fabric_uplink(level, sg);
      flow.links[flow.nlinks++] = fabric_downlink(level, dg);
    }
    return;
  }
  const int src_rack = shape_.rack_of(src_node);
  const int dst_rack = shape_.rack_of(dst_node);
  if (rack_layer_enabled() && (src_rack != dst_rack || via_top)) {
    flow.links[2] = rack_uplink(src_rack);
    flow.links[3] = rack_downlink(dst_rack);
    flow.nlinks = 4;
  }
}

FlowNetwork::FlowHandle FlowNetwork::start_flow_impl(
    int src_node, int dst_node, Bytes bytes, bool force_loopback,
    double wire_multiplier, sim::Callback on_delivered, bool via_top) {
  PACC_EXPECTS(src_node >= 0 && src_node < shape_.nodes);
  PACC_EXPECTS(dst_node >= 0 && dst_node < shape_.nodes);
  PACC_EXPECTS(bytes > 0);
  PACC_EXPECTS(wire_multiplier >= 1.0);
  // Down links never host flows: transfer() refuses them up front, and the
  // water-filling below relies on every participating link having capacity.
  PACC_ASSERT(path_up(src_node, dst_node, force_loopback, via_top));

  const std::uint32_t slot = alloc_flow();
  Flow& flow = flows_[slot];
  flow.rate = 0.0;
  flow.rate_cap = 0.0;
  flow.wf_rate = 0.0;
  flow.payload = bytes;
  flow.remaining = static_cast<double>(bytes) * wire_multiplier;
  flow.last_update = engine_.now();
  flow.completion = 0;
  flow.batch = kNoBatch;
  flow.waiter = {};
  flow.failed_flag = nullptr;
  flow.on_delivered = std::move(on_delivered);
  flow.active = true;

  route_flow(flow, src_node, dst_node, force_loopback, via_top);

  link_flow(slot);
  ++active_count_;
  ++flows_started_;
  note_dirty(flow.links, flow.nlinks);
  return FlowHandle{slot, flow.gen};
}

// -------------------------------------------- deferred recompute flush ----

void FlowNetwork::note_dirty(const std::int32_t* seeds, int nseeds) {
  if (!params_.coalesce_rate_recomputes) {
    recompute_component(seeds, nseeds);
    return;
  }
  ++coalesced_;
  dirty_seeds_.insert(dirty_seeds_.end(), seeds, seeds + nseeds);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    engine_.schedule(Duration::zero(), [this] { flush_dirty(); });
  }
}

void FlowNetwork::flush_dirty() {
  flush_scheduled_ = false;
  if (dirty_seeds_.empty()) return;
  ++flushes_;
  // recompute_component can enqueue follow-up dirt only through note_dirty,
  // which appends to a fresh list (this one is moved out first).
  std::vector<std::int32_t> seeds;
  seeds.swap(dirty_seeds_);
  recompute_component(seeds.data(), static_cast<int>(seeds.size()));
  seeds.clear();
  if (dirty_seeds_.empty()) dirty_seeds_.swap(seeds);  // keep the capacity
}

// ------------------------------------------------- incremental core ----

void FlowNetwork::recompute_component(const std::int32_t* seeds, int nseeds) {
  ++recomputes_;
  if (++epoch_ == 0) {  // u32 wrap: invalidate all stale stamps once
    std::fill(link_epoch_.begin(), link_epoch_.end(), 0u);
    std::fill(flow_epoch_.begin(), flow_epoch_.end(), 0u);
    epoch_ = 1;
  }

  // Dirty-set propagation: close over the flow/link incidence starting from
  // the links the triggering flow traverses. Rates outside this connected
  // component share no link with any flow inside it, so max–min filling
  // cannot change them — the component is exactly the set that needs work.
  comp_links_.clear();
  comp_flows_.clear();
  for (int i = 0; i < nseeds; ++i) {
    const std::int32_t l = seeds[i];
    if (link_epoch_[static_cast<std::size_t>(l)] != epoch_) {
      link_epoch_[static_cast<std::size_t>(l)] = epoch_;
      comp_links_.push_back(l);
    }
  }
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const std::int32_t link = comp_links_[i];
    for (std::uint32_t h = link_head_[static_cast<std::size_t>(link)];
         h != kNullHook;) {
      const std::uint32_t f = hook_slot(h);
      const Flow& flow = flows_[f];
      if (flow_epoch_[f] != epoch_) {
        flow_epoch_[f] = epoch_;
        comp_flows_.push_back(f);
        for (int k = 0; k < flow.nlinks; ++k) {
          const auto lf = static_cast<std::size_t>(flow.links[k]);
          if (link_epoch_[lf] != epoch_) {
            link_epoch_[lf] = epoch_;
            comp_links_.push_back(flow.links[k]);
          }
        }
      }
      h = flow.next[hook_index(h)];
    }
  }
  if (comp_flows_.empty()) return;  // e.g. the last flow on a link departed

  // Contention penalty: an HCA link serving n flows runs at reduced
  // efficiency; the shared-memory channel is exempt.
  const int first_shm_link = 2 * shape_.nodes;
  for (const std::int32_t link : comp_links_) {
    const auto l = static_cast<std::size_t>(link);
    const auto n = static_cast<int>(link_nflows_[l]);
    const bool is_shm = link >= first_shm_link;
    const double eff =
        (!is_shm && n > 1)
            ? 1.0 / (1.0 + params_.contention_penalty * (n - 1))
            : 1.0;
    wf_active_[l] = n;
    residual_[l] = link_bandwidth_[l] * link_efficiency_[l] * eff;
  }

  // Max–min fairness by progressive filling: repeatedly find the tightest
  // link (smallest equal-share), freeze its flows at that share, remove the
  // consumed bandwidth, and iterate. Each round marks first and applies
  // second, so the frozen set depends only on round-start state — the
  // result is independent of flow iteration order.
  unfrozen_.assign(comp_flows_.begin(), comp_flows_.end());
  while (!unfrozen_.empty()) {
    double best_share = std::numeric_limits<double>::infinity();
    for (const std::int32_t link : comp_links_) {
      const auto l = static_cast<std::size_t>(link);
      if (wf_active_[l] > 0) {
        best_share = std::min(best_share, residual_[l] / wf_active_[l]);
      }
    }
    PACC_ASSERT(std::isfinite(best_share) && best_share > 0.0);

    frozen_mark_.resize(unfrozen_.size());
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      const Flow& flow = flows_[unfrozen_[i]];
      bool bottlenecked = false;
      for (int k = 0; k < flow.nlinks; ++k) {
        const auto l = static_cast<std::size_t>(flow.links[k]);
        if (residual_[l] / wf_active_[l] <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      frozen_mark_[i] = bottlenecked ? 1 : 0;
    }

    std::size_t kept = 0;
    std::size_t frozen = 0;
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      const std::uint32_t slot = unfrozen_[i];
      if (frozen_mark_[i]) {
        Flow& flow = flows_[slot];
        flow.wf_rate = best_share;
        for (int k = 0; k < flow.nlinks; ++k) {
          const auto l = static_cast<std::size_t>(flow.links[k]);
          residual_[l] -= best_share;
          --wf_active_[l];
        }
        ++frozen;
      } else {
        unfrozen_[kept++] = slot;
      }
    }
    PACC_ASSERT(frozen > 0);
    unfrozen_.resize(kept);
  }

  // When the filling reproduced every flow's current (capped) rate, the
  // whole reschedule pass is moot: skip it before reading the clock or
  // touching the heap. Common after a no-op topology event or when a
  // deferred flush races an eager recompute at the same instant.
  bool any_change = false;
  for (const std::uint32_t slot : comp_flows_) {
    const Flow& flow = flows_[slot];
    double rate = flow.wf_rate;
    if (flow.rate_cap > 0.0 && rate > flow.rate_cap) rate = flow.rate_cap;
    if (rate != flow.rate) {
      any_change = true;
      break;
    }
  }
  if (!any_change) {
    ++noop_recomputes_;
    return;
  }

  // Apply per-flow ceilings (single-core copy rate on the shm channel) —
  // the unclaimed remainder stays unused, as it would on real hardware —
  // then reschedule only the completions whose rate actually changed.
  // Same-instant reschedules within this pass share one engine event
  // (steady-state fast-forward); the pass scratch tracks the batches
  // opened so far.
  const TimePoint now = engine_.now();
  pass_batch_when_.clear();
  pass_batch_ids_.clear();
  for (const std::uint32_t slot : comp_flows_) {
    Flow& flow = flows_[slot];
    double rate = flow.wf_rate;
    if (flow.rate_cap > 0.0 && rate > flow.rate_cap) rate = flow.rate_cap;
    if (rate == flow.rate) continue;  // exact equality: event stays put

    // Advance the flow's progress at the old rate before adopting the new
    // one; untouched flows keep their original (rate, completion) pair.
    const double dt = (now - flow.last_update).sec();
    if (dt > 0.0) {
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    }
    flow.last_update = now;
    flow.rate = rate;

    detach_completion(flow);
    const double secs = flow.remaining / flow.rate;
    const auto delay =
        Duration::nanos(static_cast<std::int64_t>(std::ceil(secs * 1e9)));
    ++reschedules_;
    schedule_completion(slot, delay);
  }
}

void FlowNetwork::detach_completion(Flow& flow) {
  if (flow.batch != kNoBatch) {
    // Leaving a shared event: the event itself stays queued for the other
    // members; run_batch skips this flow via the membership check.
    flow.batch = kNoBatch;
  } else if (flow.completion != 0) {
    engine_.cancel(flow.completion);
    flow.completion = 0;
  }
}

void FlowNetwork::schedule_completion(std::uint32_t slot, Duration delay) {
  Flow& flow = flows_[slot];
  if (!params_.steady_state_fast_forward) {
    flow.completion = engine_.schedule(
        delay, [this, slot, gen = flow.gen] { on_complete(slot, gen); });
    return;
  }
  // One shared event per (apply pass, target instant). The per-flow events
  // this stands in for would have been scheduled back to back — their
  // sequence numbers consecutive, nothing able to queue between them — so
  // popping once and completing the members in join order reproduces the
  // per-flow pop order exactly.
  const std::int64_t when = (engine_.now() + delay).ns();
  for (std::size_t i = 0; i < pass_batch_when_.size(); ++i) {
    if (pass_batch_when_[i] == when) {
      const std::uint32_t b = pass_batch_ids_[i];
      batches_[b].members.emplace_back(slot, flow.gen);
      flow.batch = b;
      flow.completion = 0;
      return;
    }
  }
  const std::uint32_t b = alloc_batch();
  batches_[b].members.emplace_back(slot, flow.gen);
  flow.batch = b;
  flow.completion = 0;
  engine_.schedule(delay, [this, b] { run_batch(b); });
  pass_batch_when_.push_back(when);
  pass_batch_ids_.push_back(b);
}

std::uint32_t FlowNetwork::alloc_batch() {
  if (!free_batches_.empty()) {
    const std::uint32_t b = free_batches_.back();
    free_batches_.pop_back();
    return b;
  }
  batches_.emplace_back();
  return static_cast<std::uint32_t>(batches_.size() - 1);
}

void FlowNetwork::run_batch(std::uint32_t b) {
  // Deliberately indexed: a member's on_complete can re-rate later members
  // (detaching them) but never grows this batch — new reschedules always
  // open fresh batches in their own pass.
  std::uint64_t live = 0;
  for (std::size_t i = 0; i < batches_[b].members.size(); ++i) {
    const auto [slot, gen] = batches_[b].members[i];
    Flow& flow = flows_[slot];
    if (!flow.active || flow.gen != gen || flow.batch != b) continue;
    flow.batch = kNoBatch;
    ++live;
    on_complete(slot, gen);
  }
  if (live >= 2) {
    ++completion_batches_;
    batched_completions_ += live - 1;
  }
  batches_[b].members.clear();
  free_batches_.push_back(b);
}

void FlowNetwork::on_complete(std::uint32_t slot, std::uint32_t gen) {
  Flow& flow = flows_[slot];
  PACC_ASSERT(flow.active && flow.gen == gen);
  const double dt = (engine_.now() - flow.last_update).sec();
  if (dt > 0.0) {
    flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
  }
  PACC_ASSERT(flow.remaining <= 1.0 + kByteEpsilon);

  const std::coroutine_handle<> waiter = flow.waiter;
  sim::Callback on_delivered = std::move(flow.on_delivered);
  bytes_delivered_ += static_cast<std::uint64_t>(flow.payload);

  std::int32_t dead_links[kMaxLinks];
  const int nlinks = flow.nlinks;
  for (int k = 0; k < nlinks; ++k) dead_links[k] = flow.links[k];

  unlink_flow(slot);
  flow.active = false;
  flow.waiter = {};
  flow.failed_flag = nullptr;
  flow.completion = 0;
  ++flow.gen;
  free_flows_.push_back(slot);
  --active_count_;

  note_dirty(dead_links, nlinks);

  if (waiter) {
    engine_.schedule(Duration::zero(), [waiter] { waiter.resume(); });
  }
  if (on_delivered) {
    engine_.schedule(Duration::zero(), std::move(on_delivered));
  }
}

// ------------------------------------------------- link state (faults) ----

bool FlowNetwork::path_up(int src_node, int dst_node,
                          bool force_loopback, bool via_top) const {
  if (src_node == dst_node && !force_loopback && !via_top) {
    return true;  // the shared-memory channel never faults
  }
  auto up = [this](int link) {
    return link_efficiency_[static_cast<std::size_t>(link)] > 0.0;
  };
  if (!up(uplink(src_node)) || !up(downlink(dst_node))) return false;
  if (shape_.has_dragonfly()) {
    std::int32_t links[kMaxLinks - 2];
    const int n = dragonfly_links(src_node, dst_node, via_top, links);
    for (int k = 0; k < n; ++k) {
      if (!up(links[k])) return false;
    }
    return true;
  }
  if (shape_.has_fabric()) {
    for (int level = 0; level < shape_.fabric_levels(); ++level) {
      const int sg = shape_.fabric_group_of(src_node, level);
      const int dg = shape_.fabric_group_of(dst_node, level);
      if (sg == dg && !via_top) break;
      if (!up(fabric_uplink(level, sg)) || !up(fabric_downlink(level, dg))) {
        return false;
      }
    }
    return true;
  }
  if (rack_layer_enabled()) {
    const int src_rack = shape_.rack_of(src_node);
    const int dst_rack = shape_.rack_of(dst_node);
    if ((src_rack != dst_rack || via_top) &&
        (!up(rack_uplink(src_rack)) || !up(rack_downlink(dst_rack)))) {
      return false;
    }
  }
  return true;
}

void FlowNetwork::set_hca_efficiency(int node, double efficiency) {
  PACC_EXPECTS(node >= 0 && node < shape_.nodes);
  set_unit_efficiency(uplink(node), downlink(node), efficiency);
}

void FlowNetwork::set_rack_efficiency(int rack, double efficiency) {
  PACC_EXPECTS(rack >= 0 && rack < shape_.racks());
  set_unit_efficiency(rack_uplink(rack), rack_downlink(rack), efficiency);
}

double FlowNetwork::hca_efficiency(int node) const {
  PACC_EXPECTS(node >= 0 && node < shape_.nodes);
  return link_efficiency_[static_cast<std::size_t>(uplink(node))];
}

double FlowNetwork::rack_efficiency(int rack) const {
  PACC_EXPECTS(rack >= 0 && rack < shape_.racks());
  return link_efficiency_[static_cast<std::size_t>(rack_uplink(rack))];
}

void FlowNetwork::set_fabric_efficiency(int level, int group,
                                        double efficiency) {
  PACC_EXPECTS(level >= 0 && level < shape_.fabric_levels());
  PACC_EXPECTS(group >= 0 && group < shape_.fabric_groups(level));
  set_unit_efficiency(fabric_uplink(level, group),
                      fabric_downlink(level, group), efficiency);
}

double FlowNetwork::fabric_efficiency(int level, int group) const {
  PACC_EXPECTS(level >= 0 && level < shape_.fabric_levels());
  PACC_EXPECTS(group >= 0 && group < shape_.fabric_groups(level));
  return link_efficiency_[static_cast<std::size_t>(fabric_uplink(level, group))];
}

void FlowNetwork::set_dragonfly_router_efficiency(int router,
                                                  double efficiency) {
  PACC_EXPECTS(shape_.has_dragonfly());
  PACC_EXPECTS(router >= 0 && router < shape_.df_routers_total());
  set_unit_efficiency(df_router_uplink(router), df_router_downlink(router),
                      efficiency);
}

void FlowNetwork::set_dragonfly_global_efficiency(int group,
                                                  double efficiency) {
  PACC_EXPECTS(shape_.has_dragonfly());
  PACC_EXPECTS(group >= 0 && group < shape_.df_groups());
  set_unit_efficiency(df_global_uplink(group), df_global_downlink(group),
                      efficiency);
}

double FlowNetwork::dragonfly_router_efficiency(int router) const {
  PACC_EXPECTS(shape_.has_dragonfly());
  PACC_EXPECTS(router >= 0 && router < shape_.df_routers_total());
  return link_efficiency_[static_cast<std::size_t>(df_router_uplink(router))];
}

double FlowNetwork::dragonfly_global_efficiency(int group) const {
  PACC_EXPECTS(shape_.has_dragonfly());
  PACC_EXPECTS(group >= 0 && group < shape_.df_groups());
  return link_efficiency_[static_cast<std::size_t>(df_global_uplink(group))];
}

void FlowNetwork::set_unit_efficiency(std::int32_t l1, std::int32_t l2,
                                      double efficiency) {
  PACC_EXPECTS(efficiency >= 0.0 && efficiency <= 1.0);
  // Settle any rates deferred to the pending zero-delay flush before the
  // preemption below inspects and kills flows.
  flush_dirty();
  link_efficiency_[static_cast<std::size_t>(l1)] = efficiency;
  link_efficiency_[static_cast<std::size_t>(l2)] = efficiency;
  // Recompute seeds: the unit's own links plus every link of every
  // preempted flow — a departing flow frees bandwidth in components the
  // downed unit itself is not part of. Cold path; allocation is fine.
  std::vector<std::int32_t> seeds = {l1, l2};
  if (efficiency <= 0.0) {
    preempt_link_flows(l1, seeds);
    preempt_link_flows(l2, seeds);
  }
  recompute_component(seeds.data(), static_cast<int>(seeds.size()));
}

void FlowNetwork::preempt_link_flows(std::int32_t link,
                                     std::vector<std::int32_t>& seeds) {
  const auto l = static_cast<std::size_t>(link);
  std::vector<std::uint32_t> victims;
  for (std::uint32_t h = link_head_[l]; h != kNullHook;) {
    victims.push_back(hook_slot(h));
    h = flows_[hook_slot(h)].next[hook_index(h)];
  }
  for (const std::uint32_t slot : victims) {
    Flow& flow = flows_[slot];
    if (!flow.active) continue;  // shared both directions: already killed
    // Only the reliability layer (transfer + awaiter) may own flows on a
    // fault-capable fabric; a fire-and-forget flow has no way to learn its
    // payload was lost.
    PACC_ASSERT(!flow.on_delivered);
    for (int k = 0; k < flow.nlinks; ++k) seeds.push_back(flow.links[k]);
    detach_completion(flow);
    const std::coroutine_handle<> waiter = flow.waiter;
    bool* failed = flow.failed_flag;
    unlink_flow(slot);
    flow.active = false;
    flow.waiter = {};
    flow.failed_flag = nullptr;
    ++flow.gen;
    free_flows_.push_back(slot);
    --active_count_;
    ++preempted_;
    if (failed != nullptr) *failed = true;
    if (waiter) {
      engine_.schedule(Duration::zero(), [waiter] { waiter.resume(); });
    }
  }
}

std::vector<FlowNetwork::FlowView> FlowNetwork::snapshot_flows() {
  flush_dirty();
  std::vector<FlowView> views;
  views.reserve(active_count_);
  for (const Flow& flow : flows_) {
    if (!flow.active) continue;
    FlowView view;
    view.links.assign(flow.links, flow.links + flow.nlinks);
    view.rate = flow.rate;
    view.rate_cap = flow.rate_cap;
    view.remaining = flow.remaining;
    views.push_back(std::move(view));
  }
  return views;
}

}  // namespace pacc::net
