#include "mpi/runtime.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "util/expect.hpp"

namespace pacc::mpi {

std::string to_string(ProgressMode m) {
  switch (m) {
    case ProgressMode::kPolling:
      return "polling";
    case ProgressMode::kBlocking:
      return "blocking";
  }
  return "?";
}

// ---------------------------------------------------------------- Rank ----

Rank::Rank(Runtime& rt, int id, hw::CoreId core)
    : rt_(rt), id_(id), core_(core), mailbox_(rt.engine()) {}

hw::Machine& Rank::machine() { return rt_.machine(); }
sim::Engine& Rank::engine() { return rt_.engine(); }

sim::Task<> Rank::send(int dst, int tag, ConstExtent data) {
  PACC_EXPECTS(dst >= 0 && dst < rt_.size());
  Runtime& rt = rt_;
  // The span guard outlives the eager early co_return: the coroutine frame
  // is destroyed right there, which is exactly when the sender resumes.
  auto* tracer = engine().tracer();
  obs::PhaseSpan send_span(
      tracer, tracer != nullptr ? tracer->core_track(core_) : obs::TrackId{},
      "send", "net",
      {{"dst", dst}, {"tag", tag}, {"bytes", static_cast<Bytes>(data.size())}});
  const auto& np = rt.network().params();

  // Symmetry collapse: a destination beyond the representatives lives in a
  // merged fabric group g. By equivariance the send r → dst is the
  // g-translate of σ_g⁻¹(r) → σ_g⁻¹(dst), whose receiver IS a
  // representative — so simulate that image: deliver to σ_g⁻¹(dst),
  // labelled from σ_g⁻¹(r), with the flow forced over the top of the
  // fabric exactly like the original. Startup costs still follow the
  // LOGICAL geometry (cross-group is always inter-node).
  int deliver_dst = dst;
  int src_label = id_;
  bool via_top = false;
  if (const int physical = rt.physical_size(); dst >= physical) {
    const int group = dst / physical;
    deliver_dst = dst - group * physical;
    switch (collapse_action_) {
      case sym::CollapseAction::kXor:
        // group·physical only has bits above the representative range, so
        // the translate is the same subtraction as the cyclic case.
        src_label = id_ ^ (group * physical);
        break;
      case sym::CollapseAction::kCyclic:
        src_label = id_ - group * physical;
        if (src_label < 0) src_label += rt.size();
        break;
      case sym::CollapseAction::kNone:
        PACC_EXPECTS_MSG(false,
                         "cross-group send outside an equivariant plan");
    }
    via_top = true;
  }

  const int dst_node = rt.placement().node_of(dst);
  const int wire_dst_node = rt.placement().node_of(deliver_dst);
  const bool intra = dst_node == node();
  // Blocking mode cannot use the shared-memory channel (§II-B): intra-node
  // traffic is pushed through the HCA loopback path.
  const bool loopback =
      intra && rt.params().mode == ProgressMode::kBlocking;
  const Duration startup =
      (intra && !loopback) ? np.intra_startup : np.inter_startup;

  co_await engine().delay(startup * machine().cpu_slowdown(core_));

  if (rt.message_trace_enabled()) {
    rt.trace_.push_back(MessageTraceEntry{engine().now(), id_, dst, tag,
                                          static_cast<Bytes>(data.size()),
                                          intra});
  }

  // Endpoints running below fmax / throttled leave gaps on the wire. The
  // receiving endpoint is the physical representative (whose DVFS/throttle
  // state equals the logical destination's, by symmetry).
  const hw::CoreId dst_core = rt.placement().core_of(deliver_dst);
  const double wire_mult = np.wire_multiplier(
      machine().freq_slowdown(core_), machine().throttle_slowdown(core_),
      machine().freq_slowdown(dst_core),
      machine().throttle_slowdown(dst_core));

  Message msg =
      make_message(src_label, tag, data, rt.params().synthetic_payloads);
  const Bytes bytes = static_cast<Bytes>(data.size());

  // Message faults force the reliable path for everything that crosses HCA
  // links (inter-node traffic and the blocking-mode loopback); the
  // shared-memory channel cannot drop and keeps the fast path.
  fault::FaultInjector* inj = rt.fault_injector();
  if (inj != nullptr && inj->message_faults() && (!intra || loopback)) {
    if (bytes <= np.eager_threshold) {
      // Eager: the sender resumes now; the detached reliability task (the
      // HCA's reliability engine — the CPU start-up was already charged
      // above) owns the message until it lands or is abandoned.
      rt.spawn_detached(rt.transmit_reliably(id_, dst, std::move(msg),
                                             loopback, wire_mult, nullptr));
      co_return;
    }
    // Rendezvous: the sender is held until delivery (or abandonment), with
    // the usual blocking-mode idle/interrupt behaviour.
    auto done = std::make_shared<sim::Latch>(rt.engine());
    rt.spawn_detached(rt.transmit_reliably(id_, dst, std::move(msg), loopback,
                                           wire_mult, done));
    if (rt.params().mode == ProgressMode::kBlocking) {
      machine().set_activity(core_, hw::Activity::kIdle);
      co_await done->wait();
      machine().set_activity(core_, hw::Activity::kBusy);
      co_await engine().delay(np.interrupt_latency + np.reschedule_latency);
    } else if (Governor* gov = rt.governor()) {
      gov->wait_begin(*this, WaitSite::kAck);
      co_await done->wait();
      co_await gov->wait_end(*this, WaitSite::kAck);
    } else {
      co_await done->wait();
    }
    co_return;
  }

  if (bytes <= np.eager_threshold) {
    // Eager: the sender resumes immediately; the flow's completion hook
    // delivers the payload. Small messages dominate many collectives, so
    // this path deliberately avoids a detached coroutine frame per send.
    // The in-flight payload still holds run_active() open until delivery,
    // exactly as the old detached-task implementation did.
    Runtime* rtp = &rt;
    rt.engine().retain_active();
    rt.network().start_flow(
        node(), wire_dst_node, bytes, loopback, wire_mult,
        [rtp, deliver_dst, m = std::move(msg)]() mutable {
          rtp->deliver_to(deliver_dst, std::move(m));
          rtp->engine().release_active();
        },
        via_top);
    co_return;
  }
  // Rendezvous: the sender is held until the payload lands. In blocking
  // mode the core yields the CPU during the transfer and pays the
  // interrupt + reschedule path on completion (§II-B); in polling mode it
  // spins at full power.
  if (rt.params().mode == ProgressMode::kBlocking) {
    machine().set_activity(core_, hw::Activity::kIdle);
    co_await rt.network().transfer(node(), wire_dst_node, bytes, loopback,
                                   wire_mult, via_top);
    machine().set_activity(core_, hw::Activity::kBusy);
    co_await engine().delay(np.interrupt_latency + np.reschedule_latency);
  } else if (Governor* gov = rt.governor()) {
    // The sender is merely spinning on the wire here: its DVFS state was
    // already folded into wire_mult at flow start, so parking the core
    // mid-transfer does not slow its own payload. Deliver BEFORE the
    // restoring wait_end — only the sender pays the restore stall, never
    // the receiver.
    gov->wait_begin(*this, WaitSite::kRendezvous);
    co_await rt.network().transfer(node(), wire_dst_node, bytes, loopback,
                                   wire_mult, via_top);
    rt.deliver_to(deliver_dst, std::move(msg));
    co_await gov->wait_end(*this, WaitSite::kRendezvous);
    co_return;
  } else {
    co_await rt.network().transfer(node(), wire_dst_node, bytes, loopback,
                                   wire_mult, via_top);
  }
  rt.deliver_to(deliver_dst, std::move(msg));
}

sim::Task<Message> Rank::await_message(int src, int tag) {
  if (rt_.params().mode == ProgressMode::kPolling) {
    if (Governor* gov = rt_.governor()) {
      co_return co_await gov->recv_governed(*this, src, tag);
    }
    // The core keeps spinning (Busy) — this is exactly the power cost the
    // paper's algorithms attack.
    auto msg = co_await mailbox_.recv(src, tag);
    PACC_ASSERT(msg.has_value());
    co_return std::move(*msg);
  }
  // Blocking mode: spin briefly, then sleep until the HCA interrupt.
  auto msg = co_await mailbox_.recv_for(src, tag, rt_.params().blocking_spin);
  if (!msg) {
    machine().set_activity(core_, hw::Activity::kIdle);
    msg = co_await mailbox_.recv(src, tag);
    PACC_ASSERT(msg.has_value());
    machine().set_activity(core_, hw::Activity::kBusy);
    const auto& np = rt_.network().params();
    co_await engine().delay(np.interrupt_latency + np.reschedule_latency);
  }
  co_return std::move(*msg);
}

sim::Task<> Rank::recv(int src, int tag, Extent out) {
  PACC_EXPECTS(src >= 0 && src < rt_.size());
  auto* tracer = engine().tracer();
  obs::PhaseSpan recv_span(
      tracer, tracer != nullptr ? tracer->core_track(core_) : obs::TrackId{},
      "recv", "net",
      {{"src", src}, {"tag", tag}, {"bytes", static_cast<Bytes>(out.size())}});
  Message msg = co_await await_message(src, tag);
  PACC_EXPECTS_MSG(msg.size() == out.size(),
                   "received payload size does not match the posted buffer");
  // A size-only message leaves the posted buffer as it was; a size-only
  // buffer has nowhere to put the contents.
  if (!msg.payload.empty() && out.has_bytes()) {
    std::memcpy(out.data(), msg.payload.data(), out.size());
  }
  // Receive-side CPU cost (message unpacking / matching).
  const auto& np = rt_.network().params();
  const int src_node = rt_.placement().node_of(src);
  const bool shm = src_node == node() &&
                   rt_.params().mode == ProgressMode::kPolling;
  const Duration startup = shm ? np.intra_startup : np.inter_startup;
  co_await engine().delay(startup * machine().cpu_slowdown(core_));
}

sim::Task<> Rank::sendrecv(int dst, int send_tag, ConstExtent data, int src,
                           int recv_tag, Extent out) {
  co_await send(dst, send_tag, data);
  co_await recv(src, recv_tag, out);
}

namespace {

sim::Task<> isend_body(Rank& self, int dst, int tag,
                       std::vector<std::byte> payload,
                       std::shared_ptr<sim::Latch> latch) {
  co_await self.send(dst, tag, payload);
  latch->fire();
}

sim::Task<> irecv_body(Rank& self, int src, int tag, Extent out,
                       std::shared_ptr<sim::Latch> latch) {
  co_await self.recv(src, tag, out);
  latch->fire();
}

sim::Task<> isend_extent_body(Rank& self, int dst, int tag, ConstExtent data,
                              std::shared_ptr<sim::Latch> latch) {
  co_await self.send(dst, tag, data);
  latch->fire();
}

}  // namespace

Rank::Request Rank::isend(int dst, int tag, ConstExtent data) {
  auto latch = std::make_shared<sim::Latch>(engine());
  if (rt_.params().synthetic_payloads || !data.has_bytes()) {
    // send() reads only the extent's size here, so the defensive copy of
    // the contents buys nothing.
    rt_.spawn_detached(isend_extent_body(*this, dst, tag, data, latch));
  } else {
    const auto bytes = data.bytes();
    rt_.spawn_detached(isend_body(
        *this, dst, tag, std::vector<std::byte>(bytes.begin(), bytes.end()),
        latch));
  }
  return Request(std::move(latch));
}

Rank::Request Rank::irecv(int src, int tag, Extent out) {
  auto latch = std::make_shared<sim::Latch>(engine());
  rt_.spawn_detached(irecv_body(*this, src, tag, out, latch));
  return Request(std::move(latch));
}

sim::Task<> Rank::waitall(std::span<Request> requests) {
  // One outer bracket, not one per request: the irecv bodies' own governed
  // receives nest inside it and the rank is restored once, at the end.
  Governor* gov = rt_.governor();
  if (gov != nullptr) gov->wait_begin(*this, WaitSite::kWaitall);
  for (auto& request : requests) {
    co_await request.wait();
  }
  if (gov != nullptr) co_await gov->wait_end(*this, WaitSite::kWaitall);
}

sim::Task<> Rank::shm_publish(int tag, ConstExtent data,
                              std::span<const int> readers) {
  PACC_EXPECTS_MSG(rt_.params().mode == ProgressMode::kPolling,
                   "blocking mode has no shared-memory channel (§II-B)");
  const auto& np = rt_.network().params();
  co_await engine().delay(np.intra_startup * machine().cpu_slowdown(core_));
  // One pass of the payload into the shared region.
  const double mult = np.wire_multiplier(
      machine().freq_slowdown(core_), machine().throttle_slowdown(core_), 1.0,
      1.0);
  co_await rt_.network().transfer(node(), node(), static_cast<Bytes>(data.size()),
                                  /*force_loopback=*/false, mult);
  // Readers copy the region themselves (shm_read); handing them the payload
  // costs nothing extra here.
  for (const int reader : readers) {
    PACC_EXPECTS_MSG(rt_.placement().node_of(reader) == node(),
                     "shm readers must share the writer's node");
    rt_.deliver_to(reader,
                   make_message(id_, tag, data, rt_.params().synthetic_payloads));
  }
}

sim::Task<> Rank::shm_read(int writer, int tag, Extent out) {
  Message msg = co_await await_message(writer, tag);
  PACC_EXPECTS(msg.size() == out.size());
  const auto& np = rt_.network().params();
  co_await engine().delay(np.intra_startup * machine().cpu_slowdown(core_));
  // Copy out of the shared region, concurrently with the other readers.
  const double mult = np.wire_multiplier(
      machine().freq_slowdown(core_), machine().throttle_slowdown(core_), 1.0,
      1.0);
  co_await rt_.network().transfer(node(), node(), static_cast<Bytes>(out.size()),
                                  /*force_loopback=*/false, mult);
  if (!msg.payload.empty() && out.has_bytes()) {
    std::memcpy(out.data(), msg.payload.data(), out.size());
  }
}

sim::Task<> Rank::compute(Duration work_at_fmax) {
  PACC_EXPECTS(work_at_fmax.ns() >= 0);
  co_await engine().delay(work_at_fmax * machine().cpu_slowdown(core_));
}

sim::Task<> Rank::dvfs(Frequency f) {
  const bool applied = co_await machine().dvfs_transition(core_, f);
  // Scheme-driven frequency choices floor any governed restore (a governed
  // wait inside a §V collective must not undo enter_low_power).
  if (applied && rt_.governor_ != nullptr) {
    rt_.governor_->note_scheme_dvfs(core_, f);
  }
}

sim::Task<> Rank::throttle(int tstate) {
  co_await machine().throttle_transition(core_, tstate);
}

// ------------------------------------------------------------- Runtime ----

Runtime::Runtime(sim::Engine& engine, hw::Machine& machine,
                 net::FlowNetwork& network, hw::RankPlacement placement,
                 RuntimeParams params)
    : engine_(engine),
      machine_(machine),
      network_(network),
      placement_(std::move(placement)),
      params_(params) {
  PACC_EXPECTS(placement_.ranks() >= 1);
  PACC_EXPECTS(params_.collapse_multiplicity >= 1);
  PACC_EXPECTS_MSG(placement_.ranks() % params_.collapse_multiplicity == 0,
                   "collapse multiplicity must divide the rank count");
  // Cores without a pinned rank sit idle (C-state) instead of polling.
  const auto& shape = machine_.shape();
  for (int c = 0; c < shape.total_cores(); ++c) {
    machine_.set_activity(hw::core_from_linear(shape, c),
                          hw::Activity::kIdle);
  }
  // Only the representatives are instantiated; on a 1:1 runtime that is
  // every rank. The machine (quotient when collapsed) must hold them all.
  const int physical = placement_.ranks() / params_.collapse_multiplicity;
  PACC_EXPECTS_MSG(placement_.node_of(physical - 1) < shape.nodes,
                   "representative ranks must fit the machine's nodes");
  ranks_.reserve(static_cast<std::size_t>(physical));
  for (int r = 0; r < physical; ++r) {
    const auto core = placement_.core_of(r);
    machine_.set_activity(core, hw::Activity::kBusy);
    ranks_.push_back(std::make_unique<Rank>(*this, r, core));
  }
  if (params_.governor.enabled) {
    // Blocking-mode waits sleep at idle power, which the §VI-B model makes
    // frequency-independent — a governor would run silently with nothing to
    // save, so refuse the combination instead (ISSUE 7 satellite).
    PACC_EXPECTS_MSG(params_.mode == ProgressMode::kPolling,
                     "power governors require the polling progress mode: "
                     "blocking waits already sleep at idle power");
    governor_ = make_governor(params_.governor, *this);
  }
}

Rank& Runtime::rank(int global_rank) {
  PACC_EXPECTS(global_rank >= 0 && global_rank < physical_size());
  return *ranks_[static_cast<std::size_t>(global_rank)];
}

Comm& Runtime::world() {
  if (world_ == nullptr) {
    std::vector<int> all(static_cast<std::size_t>(size()));
    for (int r = 0; r < size(); ++r) all[static_cast<std::size_t>(r)] = r;
    world_ = &create_comm(std::move(all));
  }
  return *world_;
}

Comm& Runtime::create_comm(std::vector<int> global_ranks) {
  const int context_id = static_cast<int>(comms_.size());
  comms_.push_back(
      std::make_unique<Comm>(*this, context_id, std::move(global_ranks)));
  return *comms_.back();
}

Comm& Runtime::intern_comm(const std::vector<int>& global_ranks) {
  std::string key;
  key.reserve(global_ranks.size() * 4);
  for (const int g : global_ranks) {
    key += std::to_string(g);
    key += ',';
  }
  if (const auto it = interned_comms_.find(key);
      it != interned_comms_.end()) {
    return *it->second;
  }
  Comm& created = create_comm(global_ranks);
  interned_comms_.emplace(std::move(key), &created);
  return created;
}

void Runtime::deliver_to(int dst, Message msg) {
  ++deliveries_;
  rank(dst).mailbox().deliver(std::move(msg));
}

void Runtime::report_unreachable(int src, int dst, int attempts) {
  if (!unreachable_) {
    unreachable_ = true;
    unreachable_detail_ = "rank " + std::to_string(dst) +
                          " unreachable from rank " + std::to_string(src) +
                          " after " + std::to_string(attempts) + " attempts";
  }
  if (auto* tr = engine_.tracer()) {
    tr->instant(tr->core_track(placement_.core_of(src)), "unreachable",
                "fault", {{"src", src}, {"dst", dst}});
  }
  engine_.request_stop();
}

sim::Task<> Runtime::transmit_reliably(int src, int dst, Message msg,
                                       bool loopback, double wire_mult,
                                       std::shared_ptr<sim::Latch> done) {
  fault::FaultInjector& inj = *injector_;
  const fault::FaultSpec& spec = inj.spec();
  const int src_node = placement_.node_of(src);
  const int dst_node = placement_.node_of(dst);
  const Bytes bytes = static_cast<Bytes>(msg.size());
  auto* tracer = engine_.tracer();
  int track_tid = -1;

  for (int attempt = 0;; ++attempt) {
    const auto draw = inj.next_message_draw(src, dst);
    // A dropped message still occupies the wire for its full transfer time
    // — the HCA only learns of the loss by ack timeout. A transfer across
    // a link that is (or goes) down fails outright.
    const bool wire_ok = co_await network_.transfer(src_node, dst_node, bytes,
                                                    loopback, wire_mult);
    if (wire_ok && !draw.drop) {
      if (draw.extra_delay.ns() > 0) {
        co_await engine_.delay(draw.extra_delay);
      }
      deliver_to(dst, std::move(msg));
      if (done != nullptr) done->fire();
      co_return;
    }
    if (attempt >= spec.retry_budget) {
      ++inj.stats().messages_abandoned;
      report_unreachable(src, dst, attempt + 1);
      // Release a rendezvousing sender anyway: the run is stopping, and a
      // sender stuck on the latch would read as an extra failure.
      if (done != nullptr) done->fire();
      co_return;
    }
    // IB-RC-style recovery: wait out the ack timeout with exponential
    // backoff, then retransmit. Each reliable transmission gets its own
    // trace track — concurrent retries would otherwise interleave spans on
    // one track and break the per-track stack discipline.
    ++inj.stats().retransmits;
    const TimePoint backoff_begin = engine_.now();
    co_await engine_.delay(spec.ack_timeout *
                           std::pow(spec.backoff_factor, attempt));
    if (tracer != nullptr) {
      if (track_tid < 0) track_tid = inj.next_transmission_track();
      tracer->complete_span(
          obs::TrackId{fault::FaultInjector::kRetryTrackPid, track_tid},
          "retransmit", "fault", backoff_begin,
          {{"src", src}, {"dst", dst}, {"attempt", attempt + 1}});
    }
  }
}

void Runtime::launch(std::function<sim::Task<>(Rank&)> body) {
  bodies_.push_back(std::move(body));
  const auto& stable = bodies_.back();
  for (auto& r : ranks_) {
    engine_.spawn(stable(*r));
  }
}

}  // namespace pacc::mpi
