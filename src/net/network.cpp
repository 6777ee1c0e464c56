#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expect.hpp"

namespace pacc::net {

namespace {
// Residual bytes below this are treated as delivered (guards double error).
constexpr double kByteEpsilon = 1e-6;

/// Route-class key: the endpoints and the route mode (0 = through the HCAs,
/// 1 = the shared-memory channel, 2 = via_top).
std::uint64_t route_key(int src_node, int dst_node, unsigned mode) {
  return (static_cast<std::uint64_t>(src_node) << 32 |
          static_cast<std::uint32_t>(dst_node))
             << 2 |
         mode;
}
}  // namespace

FlowNetwork::FlowNetwork(sim::Engine& engine, hw::ClusterShape shape,
                         NetworkParams params)
    : engine_(engine), shape_(shape), params_(params) {
  PACC_EXPECTS(shape_.valid());
  PACC_EXPECTS(params_.link_bandwidth > 0.0 && params_.shm_bandwidth > 0.0);
  PACC_EXPECTS_MSG(shape_.fabric.size() <= kMaxLevels,
                   "at most three fat-tree fabric levels are supported");
  PACC_EXPECTS_MSG(!shape_.has_racks() || params_.rack_bandwidth > 0.0,
                   "a racked shape needs rack_bandwidth > 0");

  // The level table: whichever of racks, fat tree or dragonfly the shape
  // sets becomes a stack of levels whose links follow the HCA and
  // shared-memory ids, level by level.
  const int nodes = shape_.nodes;
  const double node_bw = params_.link_bandwidth;
  int next_link = 3 * nodes;
  fault_units_ = nodes;
  auto add_level = [&](int nodes_per_group, double bandwidth,
                       const char* label, const char* span) {
    Level level;
    level.nodes_per_group = nodes_per_group;
    level.groups = (nodes + nodes_per_group - 1) / nodes_per_group;
    level.bandwidth = bandwidth;
    level.first_link = next_link;
    level.unit_label = label;
    level.unit_span = span;
    next_link += 2 * level.groups;
    fault_units_ += level.groups;
    levels_.push_back(level);
  };
  if (shape_.has_racks()) {
    add_level(shape_.nodes_per_rack, params_.rack_bandwidth, "rack link",
              "rack_down");
  }
  static constexpr const char* kFatTreeLabel[kMaxLevels] = {
      "fabric l0 link", "fabric l1 link", "fabric l2 link"};
  static constexpr const char* kFatTreeSpan[kMaxLevels] = {
      "fabric_l0_down", "fabric_l1_down", "fabric_l2_down"};
  int per_group = 1;
  for (std::size_t l = 0; l < shape_.fabric.size(); ++l) {
    const hw::FabricLevelSpec& spec = shape_.fabric[l];
    per_group *= spec.group_size;
    // Full bisection at this level would carry every child node's HCA
    // bandwidth; the oversubscription ratio thins that out.
    add_level(per_group,
              spec.bandwidth > 0.0
                  ? spec.bandwidth
                  : node_bw * per_group / spec.oversubscription,
              kFatTreeLabel[l], kFatTreeSpan[l]);
  }
  if (const hw::DragonflySpec& df = shape_.dragonfly; df.enabled()) {
    // A router's local links carry its hosted nodes' aggregate HCA
    // bandwidth into the group's all-to-all mesh; the group's global link
    // carries the whole group's.
    add_level(df.nodes_per_router,
              df.local_bandwidth > 0.0 ? df.local_bandwidth
                                       : node_bw * df.nodes_per_router,
              "df router", "df_router_down");
    add_level(shape_.translation_group_nodes(),
              df.global_bandwidth > 0.0
                  ? df.global_bandwidth
                  : node_bw * shape_.translation_group_nodes(),
              "df global", "df_global_down");
    nested_routes_ = true;
    valiant_ = df.adaptive;
  }

  const auto link_count = static_cast<std::size_t>(next_link);
  link_bandwidth_.assign(link_count, 0.0);
  for (int n = 0; n < nodes; ++n) {
    link_bandwidth_[static_cast<std::size_t>(uplink(n))] = node_bw;
    link_bandwidth_[static_cast<std::size_t>(downlink(n))] = node_bw;
    link_bandwidth_[static_cast<std::size_t>(shm_link(n))] =
        params_.shm_bandwidth;
  }
  for (const Level& level : levels_) {
    std::fill_n(link_bandwidth_.begin() + level.first_link, 2 * level.groups,
                level.bandwidth);
  }
  link_efficiency_.assign(link_count, 1.0);
  link_head_.assign(link_count, kNullHook);
  link_nflows_.assign(link_count, 0);
  residual_.assign(link_count, 0.0);
  share_.assign(link_count, 0.0);
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
  flows_.emplace_back();
  return static_cast<std::uint32_t>(flows_.size() - 1);
}

// ----------------------------------------------------- route classes ----

std::uint32_t FlowNetwork::find_class(std::int32_t first_link,
                                      std::uint64_t key) const {
  for (std::uint32_t h = link_head_[static_cast<std::size_t>(first_link)];
       h != kNullHook;) {
    const RouteClass& rc = classes_[hook_slot(h)];
    if (rc.key == key) return hook_slot(h);
    h = rc.next[hook_index(h)];
  }
  return kNone;
}

std::uint32_t FlowNetwork::new_class(std::uint64_t key,
                                     const std::int32_t* links, int nlinks) {
  std::uint32_t c;
  if (!free_classes_.empty()) {
    c = free_classes_.back();
    free_classes_.pop_back();
  } else {
    PACC_ASSERT(classes_.size() < hook_slot(kNullHook));
    classes_.emplace_back();
    class_epoch_.push_back(0);
    c = static_cast<std::uint32_t>(classes_.size() - 1);
  }
  RouteClass& rc = classes_[c];
  rc.key = key;
  rc.nlinks = nlinks;
  std::copy_n(links, nlinks, rc.links);
  // One core drives a shared-memory copy; it cannot exceed the per-core
  // copy rate even when the aggregate memory channel has headroom.
  rc.rate_cap = nlinks == 1 ? params_.shm_per_flow_bandwidth : 0.0;
  return c;
}

void FlowNetwork::join_class(std::uint32_t slot, std::uint32_t c) {
  Flow& flow = flows_[slot];
  RouteClass& rc = classes_[c];
  flow.cls = c;
  flow.stamp = ++stamp_;
  flow.older = rc.newest;
  flow.newer = kNone;
  if (rc.newest != kNone) {
    flows_[rc.newest].newer = slot;
  } else {
    rc.oldest = slot;
  }
  rc.newest = slot;
  const bool listed = ++rc.count > 1;
  for (int k = 0; k < rc.nlinks; ++k) {
    const auto l = static_cast<std::size_t>(rc.links[k]);
    ++link_nflows_[l];
    if (listed) {
      if (link_head_[l] == hook(c, k)) continue;
      list_unlink(c, k);
    }
    list_push_front(c, k);
  }
}

void FlowNetwork::leave_class(std::uint32_t slot) {
  const Flow& flow = flows_[slot];
  const std::uint32_t c = flow.cls;
  RouteClass& rc = classes_[c];
  for (int k = 0; k < rc.nlinks; ++k) {
    --link_nflows_[static_cast<std::size_t>(rc.links[k])];
  }
  if (flow.older != kNone) {
    flows_[flow.older].newer = flow.newer;
  } else {
    rc.oldest = flow.newer;
  }
  if (flow.newer != kNone) {
    flows_[flow.newer].older = flow.older;
  } else {
    rc.newest = flow.older;
  }
  // A class whose newest member left keeps its list positions; the
  // component walk orders the classes it reaches by newest_stamp() itself.
  if (--rc.count == 0) {
    for (int k = 0; k < rc.nlinks; ++k) list_unlink(c, k);
    free_classes_.push_back(c);
  }
}

void FlowNetwork::list_unlink(std::uint32_t c, int k) {
  const RouteClass& rc = classes_[c];
  const std::uint32_t prev = rc.prev[k];
  const std::uint32_t next = rc.next[k];
  if (prev != kNullHook) {
    classes_[hook_slot(prev)].next[hook_index(prev)] = next;
  } else {
    link_head_[static_cast<std::size_t>(rc.links[k])] = next;
  }
  if (next != kNullHook) {
    classes_[hook_slot(next)].prev[hook_index(next)] = prev;
  }
}

void FlowNetwork::list_push_front(std::uint32_t c, int k) {
  RouteClass& rc = classes_[c];
  const auto l = static_cast<std::size_t>(rc.links[k]);
  const std::uint32_t head = link_head_[l];
  rc.prev[k] = kNullHook;
  rc.next[k] = head;
  if (head != kNullHook) {
    classes_[hook_slot(head)].prev[hook_index(head)] = hook(c, k);
  }
  link_head_[l] = hook(c, k);
}

void FlowNetwork::emit_members(const std::uint32_t* classes, std::size_t n,
                               std::vector<std::uint32_t>& out) {
  const std::size_t begin = out.size();
  std::uint64_t newest = 0;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::size_t i = 0; i < n; ++i) {
    const RouteClass& rc = classes_[classes[i]];
    newest = std::max(newest, newest_stamp(rc));
    oldest = std::min(oldest, flows_[rc.oldest].stamp);
    for (std::uint32_t s = rc.newest; s != kNone; s = flows_[s].older) {
      out.push_back(s);
    }
  }
  if (n == 1) return;  // one class is newest first already
  // Merge by stamp. The flows of one run were mostly opened close together,
  // so their stamps are nearly dense: place each at its distance from the
  // newest stamp and read the slots back in order (a third of a sort's
  // cost on the proposed scale cells, docs/PERF.md §10.2). A sparse spread
  // sorts instead.
  const std::uint64_t span = newest - oldest + 1;
  if (span <= 4 * (out.size() - begin) + 64) {
    merge_slots_.assign(span, kNone);
    for (std::size_t j = begin; j < out.size(); ++j) {
      merge_slots_[newest - flows_[out[j]].stamp] = out[j];
    }
    out.resize(begin);
    for (const std::uint32_t s : merge_slots_) {
      if (s != kNone) out.push_back(s);
    }
    return;
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin), out.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return flows_[a].stamp > flows_[b].stamp;
            });
}

// ------------------------------------------------------------ API ----

sim::Task<bool> FlowNetwork::transfer(int src_node, int dst_node, Bytes bytes,
                                      bool force_loopback,
                                      double wire_multiplier, bool via_top) {
  FlowHandle h;
  if (!open_flow(src_node, dst_node, bytes, force_loopback, wire_multiplier,
                 {}, via_top, h)) {
    co_return false;
  }
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
  FlowHandle h;
  // Down links never host flows: the water-filling relies on every
  // participating link having capacity.
  const bool up = open_flow(src_node, dst_node, bytes, force_loopback,
                            wire_multiplier, std::move(on_delivered), via_top,
                            h);
  PACC_ASSERT(up);
  return h;
}

int FlowNetwork::route(int src_node, int dst_node, bool force_loopback,
                       bool via_top, std::int32_t* links) const {
  if (src_node == dst_node && !force_loopback && !via_top) {
    links[0] = shm_link(src_node);
    return 1;
  }
  links[0] = uplink(src_node);
  links[1] = downlink(dst_node);
  int n = 2;
  // Climb level by level until the endpoints share a group (or, via_top,
  // all the way to the top): each level crossed costs the source group's
  // up link and the destination group's down link.
  int src_group[kMaxLevels];
  int dst_group[kMaxLevels];
  int climb = 0;
  for (const Level& level : levels_) {
    const int sg = level.group_of(src_node);
    const int dg = level.group_of(dst_node);
    if (sg == dg && !via_top) break;
    src_group[climb] = sg;
    dst_group[climb] = dg;
    ++climb;
  }
  if (!nested_routes_) {
    for (int l = 0; l < climb; ++l) {
      const Level& level = levels_[static_cast<std::size_t>(l)];
      links[n++] = level.uplink(src_group[l]);
      links[n++] = level.downlink(dst_group[l]);
    }
    return n;
  }
  for (int l = 0; l < climb; ++l) {
    links[n++] = levels_[static_cast<std::size_t>(l)].uplink(src_group[l]);
  }
  if (valiant_ && !via_top && climb == static_cast<int>(levels_.size()) &&
      levels_.back().groups >= 3) {
    // Valiant detour: land in a deterministic intermediate group and
    // re-emerge onto the global plane (the intermediate group's router
    // mesh is abstracted away). The intermediate is the first group after
    // the source that is neither endpoint — deterministic, so runs stay
    // byte-identical at any job count.
    const Level& top = levels_.back();
    const int sg = src_group[climb - 1];
    const int dg = dst_group[climb - 1];
    int mid = (sg + 1) % top.groups;
    while (mid == sg || mid == dg) mid = (mid + 1) % top.groups;
    links[n++] = top.downlink(mid);
    links[n++] = top.uplink(mid);
  }
  for (int l = climb - 1; l >= 0; --l) {
    links[n++] = levels_[static_cast<std::size_t>(l)].downlink(dst_group[l]);
  }
  return n;
}

bool FlowNetwork::path_up(int src_node, int dst_node, bool force_loopback,
                          bool via_top) const {
  std::int32_t links[kMaxLinks];
  return links_up(links,
                  route(src_node, dst_node, force_loopback, via_top, links));
}

bool FlowNetwork::open_flow(int src_node, int dst_node, Bytes bytes,
                            bool force_loopback, double wire_multiplier,
                            sim::Callback on_delivered, bool via_top,
                            FlowHandle& h) {
  PACC_EXPECTS(src_node >= 0 && src_node < shape_.nodes);
  PACC_EXPECTS(dst_node >= 0 && dst_node < shape_.nodes);
  PACC_EXPECTS(wire_multiplier >= 1.0);
  // A flow joins the class of its endpoints and mode; only the first flow
  // of a class is routed. Every class leaving a node starts at its
  // shared-memory channel (the one-link route) or its HCA up link.
  const bool shm = src_node == dst_node && !force_loopback && !via_top;
  const std::uint64_t key =
      route_key(src_node, dst_node, via_top ? 2u : shm ? 1u : 0u);
  std::uint32_t c =
      find_class(shm ? shm_link(src_node) : uplink(src_node), key);
  std::int32_t routed[kMaxLinks];
  const std::int32_t* links = routed;
  int nlinks = 0;
  if (c != kNone) {
    links = classes_[c].links;
    nlinks = classes_[c].nlinks;
  } else {
    nlinks = route(src_node, dst_node, force_loopback, via_top, routed);
  }
  // A down link refuses new work before any bandwidth is allocated — even
  // a zero-byte header cannot cross it. The shared-memory channel never
  // faults.
  const bool up = links_up(links, nlinks);
  if (!up || bytes == 0) return up;
  if (c == kNone) c = new_class(key, routed, nlinks);

  const std::uint32_t slot = alloc_flow();
  Flow& flow = flows_[slot];
  flow.rate = 0.0;
  flow.payload = bytes;
  flow.remaining = static_cast<double>(bytes) * wire_multiplier;
  flow.last_update = engine_.now();
  flow.completion = 0;
  flow.batch = kNoBatch;
  flow.waiter = {};
  flow.failed_flag = nullptr;
  flow.on_delivered = std::move(on_delivered);
  flow.active = true;

  join_class(slot, c);
  ++active_count_;
  ++flows_started_;
  note_dirty(classes_[c].links, nlinks);
  h = FlowHandle{slot, flow.gen};
  return true;
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
    std::fill(class_epoch_.begin(), class_epoch_.end(), 0u);
    epoch_ = 1;
  }

  // Dirty-set propagation: close over the class/link incidence starting
  // from the links the triggering flow traverses. Rates outside this
  // connected component share no link with any flow inside it, so max–min
  // filling cannot change them — the component is exactly the set that
  // needs work. A class is reached whole, at the first link of the walk
  // that lists it. The classes first reached at one link append their
  // links newest member first: a walk over that link's flows, newest
  // first, would meet each class first at its newest member, and append
  // its links right there.
  comp_links_.clear();
  comp_classes_.clear();
  comp_runs_.clear();
  for (int i = 0; i < nseeds; ++i) {
    const std::int32_t l = seeds[i];
    if (link_epoch_[static_cast<std::size_t>(l)] != epoch_) {
      link_epoch_[static_cast<std::size_t>(l)] = epoch_;
      comp_links_.push_back(l);
    }
  }
  for (std::size_t i = 0; i < comp_links_.size(); ++i) {
    const std::int32_t link = comp_links_[i];
    const std::size_t reached = comp_classes_.size();
    for (std::uint32_t h = link_head_[static_cast<std::size_t>(link)];
         h != kNullHook;) {
      const std::uint32_t c = hook_slot(h);
      if (class_epoch_[c] != epoch_) {
        class_epoch_[c] = epoch_;
        comp_classes_.push_back(c);
      }
      h = classes_[c].next[hook_index(h)];
    }
    const std::size_t end = comp_classes_.size();
    if (end == reached) continue;
    // Newest member first (insertion sort). A join moves its class to the
    // head of each of its lists, and only a departure of a class's newest
    // member leaves it out of place, so the run is nearly sorted already.
    for (std::size_t j = reached + 1; j < end; ++j) {
      const std::uint32_t c = comp_classes_[j];
      const std::uint64_t newest = newest_stamp(classes_[c]);
      std::size_t p = j;
      for (; p > reached &&
             newest_stamp(classes_[comp_classes_[p - 1]]) < newest;
           --p) {
        comp_classes_[p] = comp_classes_[p - 1];
      }
      comp_classes_[p] = c;
    }
    for (std::size_t j = reached; j < end; ++j) {
      const RouteClass& rc = classes_[comp_classes_[j]];
      for (int k = 0; k < rc.nlinks; ++k) {
        const auto lc = static_cast<std::size_t>(rc.links[k]);
        if (link_epoch_[lc] != epoch_) {
          link_epoch_[lc] = epoch_;
          comp_links_.push_back(rc.links[k]);
        }
      }
    }
    comp_runs_.push_back(end);
  }
  if (comp_classes_.empty()) return;  // e.g. the last flow on a link departed

  // Contention penalty: an HCA link — ids [0, 2N) — serving n flows runs
  // at reduced efficiency; the shared-memory channels and every switch
  // link are exempt.
  const int hca_links = 2 * shape_.nodes;
  for (const std::int32_t link : comp_links_) {
    const auto l = static_cast<std::size_t>(link);
    const auto n = static_cast<int>(link_nflows_[l]);
    const bool is_hca = link < hca_links;
    const double eff =
        (is_hca && n > 1)
            ? 1.0 / (1.0 + params_.contention_penalty * (n - 1))
            : 1.0;
    wf_active_[l] = n;
    residual_[l] = link_bandwidth_[l] * link_efficiency_[l] * eff;
  }

  // Max–min fairness by progressive filling: repeatedly find the tightest
  // link (smallest equal-share), freeze its flows at that share, remove the
  // consumed bandwidth, and iterate. Each round marks first and applies
  // second, so the frozen set depends only on round-start state — the
  // result is independent of iteration order. The members of a class see
  // the same links, so they freeze together; a frozen class of m members
  // takes the share off each of its links m times, one subtraction at a
  // time, exactly as m flows would — every share stays bitwise equal to a
  // per-flow fill. The round that freezes every remaining class leaves the
  // residuals alone: nothing reads them again.
  unfrozen_.assign(comp_classes_.begin(), comp_classes_.end());
  while (true) {
    double best_share = std::numeric_limits<double>::infinity();
    for (const std::int32_t link : comp_links_) {
      const auto l = static_cast<std::size_t>(link);
      if (wf_active_[l] > 0) {
        share_[l] = residual_[l] / wf_active_[l];
        best_share = std::min(best_share, share_[l]);
      }
    }
    PACC_ASSERT(std::isfinite(best_share) && best_share > 0.0);
    const double tight = best_share * (1.0 + 1e-12);

    frozen_mark_.resize(unfrozen_.size());
    std::size_t frozen = 0;
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      const RouteClass& rc = classes_[unfrozen_[i]];
      bool bottlenecked = false;
      for (int k = 0; k < rc.nlinks; ++k) {
        const auto l = static_cast<std::size_t>(rc.links[k]);
        if (share_[l] <= tight) {
          bottlenecked = true;
          break;
        }
      }
      frozen_mark_[i] = bottlenecked ? 1 : 0;
      frozen += bottlenecked ? 1 : 0;
    }
    PACC_ASSERT(frozen > 0);
    if (frozen == unfrozen_.size()) {
      for (const std::uint32_t c : unfrozen_) classes_[c].wf_rate = best_share;
      break;
    }

    std::size_t kept = 0;
    for (std::size_t i = 0; i < unfrozen_.size(); ++i) {
      const std::uint32_t c = unfrozen_[i];
      if (!frozen_mark_[i]) {
        unfrozen_[kept++] = c;
        continue;
      }
      RouteClass& rc = classes_[c];
      rc.wf_rate = best_share;
      const auto m = static_cast<std::int32_t>(rc.count);
      for (int k = 0; k < rc.nlinks; ++k) {
        const auto l = static_cast<std::size_t>(rc.links[k]);
        for (std::int32_t j = 0; j < m; ++j) residual_[l] -= best_share;
        wf_active_[l] -= m;
      }
    }
    unfrozen_.resize(kept);
  }

  // Per-flow ceilings (single-core copy rate on the shm channel) apply
  // after filling — the unclaimed remainder stays unused, as it would on
  // real hardware.
  const auto class_rate = [](const RouteClass& rc) {
    return rc.rate_cap > 0.0 && rc.wf_rate > rc.rate_cap ? rc.rate_cap
                                                         : rc.wf_rate;
  };

  // When the filling reproduced every flow's current (capped) rate, the
  // whole reschedule pass is moot: skip it before reading the clock or
  // touching the heap. Common after a no-op topology event or when a
  // deferred flush races an eager recompute at the same instant.
  bool any_change = false;
  for (const std::uint32_t c : comp_classes_) {
    const RouteClass& rc = classes_[c];
    const double rate = class_rate(rc);
    for (std::uint32_t s = rc.oldest; s != kNone; s = flows_[s].newer) {
      any_change |= flows_[s].rate != rate;
    }
    if (any_change) break;
  }
  if (!any_change) {
    ++noop_recomputes_;
    return;
  }

  // The component's flows in the order a walk over each link's flows,
  // newest first, would have met them: run by run, each run's members
  // merged newest first.
  comp_flows_.clear();
  std::size_t begin = 0;
  for (const std::size_t end : comp_runs_) {
    emit_members(comp_classes_.data() + begin, end - begin, comp_flows_);
    begin = end;
  }

  // Reschedule only the completions whose rate actually changed.
  // Same-instant reschedules within this pass share one engine event
  // (steady-state fast-forward); the pass scratch tracks the batches
  // opened so far.
  const TimePoint now = engine_.now();
  pass_batch_when_.clear();
  pass_batch_ids_.clear();
  for (const std::uint32_t slot : comp_flows_) {
    Flow& flow = flows_[slot];
    const double rate = class_rate(classes_[flow.cls]);
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
  const RouteClass& rc = classes_[flow.cls];
  const int nlinks = rc.nlinks;
  std::copy_n(rc.links, nlinks, dead_links);

  leave_class(slot);
  flow.active = false;
  flow.waiter = {};
  flow.failed_flag = nullptr;
  flow.completion = 0;
  ++flow.gen;
  free_flows_.push_back(slot);
  --active_count_;

  note_dirty(dead_links, nlinks);

  if (waiter) {
    engine_.resume_at(engine_.now(), waiter);
  }
  if (on_delivered) {
    engine_.schedule(Duration::zero(), std::move(on_delivered));
  }
}

// ------------------------------------------------- link state (faults) ----

FaultUnit FlowNetwork::fault_unit(int unit) const {
  PACC_EXPECTS(unit >= 0 && unit < fault_units_);
  if (unit < shape_.nodes) {
    return {"hca node", "hca_down", unit, uplink(unit), downlink(unit)};
  }
  int g = unit - shape_.nodes;
  for (const Level& level : levels_) {
    if (g < level.groups) {
      return {level.unit_label, level.unit_span, g, level.uplink(g),
              level.downlink(g)};
    }
    g -= level.groups;
  }
  PACC_ASSERT(false);
  return {};
}

void FlowNetwork::set_unit_efficiency(int unit, double efficiency) {
  PACC_EXPECTS(efficiency >= 0.0 && efficiency <= 1.0);
  const FaultUnit u = fault_unit(unit);
  // Settle any rates deferred to the pending zero-delay flush before the
  // preemption below inspects and kills flows.
  flush_dirty();
  link_efficiency_[static_cast<std::size_t>(u.uplink)] = efficiency;
  link_efficiency_[static_cast<std::size_t>(u.downlink)] = efficiency;
  // Recompute seeds: the unit's own links plus every link of every
  // preempted flow — a departing flow frees bandwidth in components the
  // downed unit itself is not part of. Cold path; allocation is fine.
  std::vector<std::int32_t> seeds = {u.uplink, u.downlink};
  if (efficiency <= 0.0) {
    preempt_link_flows(u.uplink, seeds);
    preempt_link_flows(u.downlink, seeds);
  }
  recompute_component(seeds.data(), static_cast<int>(seeds.size()));
}

double FlowNetwork::unit_efficiency(int unit) const {
  return link_efficiency_[static_cast<std::size_t>(fault_unit(unit).uplink)];
}

void FlowNetwork::preempt_link_flows(std::int32_t link,
                                     std::vector<std::int32_t>& seeds) {
  // The link's flows, newest first: the order they joined it.
  std::vector<std::uint32_t> listed;
  for (std::uint32_t h = link_head_[static_cast<std::size_t>(link)];
       h != kNullHook; h = classes_[hook_slot(h)].next[hook_index(h)]) {
    listed.push_back(hook_slot(h));
  }
  std::vector<std::uint32_t> victims;
  if (!listed.empty()) emit_members(listed.data(), listed.size(), victims);
  for (const std::uint32_t slot : victims) {
    Flow& flow = flows_[slot];
    // Only the reliability layer (transfer + awaiter) may own flows on a
    // fault-capable fabric; a fire-and-forget flow has no way to learn its
    // payload was lost.
    PACC_ASSERT(!flow.on_delivered);
    const RouteClass& rc = classes_[flow.cls];
    seeds.insert(seeds.end(), rc.links, rc.links + rc.nlinks);
    detach_completion(flow);
    const std::coroutine_handle<> waiter = flow.waiter;
    bool* failed = flow.failed_flag;
    leave_class(slot);
    flow.active = false;
    flow.waiter = {};
    flow.failed_flag = nullptr;
    ++flow.gen;
    free_flows_.push_back(slot);
    --active_count_;
    ++preempted_;
    if (failed != nullptr) *failed = true;
    if (waiter) {
      engine_.resume_at(engine_.now(), waiter);
    }
  }
}

std::vector<FlowNetwork::FlowView> FlowNetwork::snapshot_flows() {
  flush_dirty();
  std::vector<FlowView> views;
  views.reserve(active_count_);
  for (const Flow& flow : flows_) {
    if (!flow.active) continue;
    const RouteClass& rc = classes_[flow.cls];
    FlowView view;
    view.links.assign(rc.links, rc.links + rc.nlinks);
    view.rate = flow.rate;
    view.rate_cap = rc.rate_cap;
    view.remaining = flow.remaining;
    views.push_back(std::move(view));
  }
  return views;
}

}  // namespace pacc::net
