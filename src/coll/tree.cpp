#include "coll/tree.hpp"

#include <algorithm>
#include <vector>

#include "coll/alltoall_power.hpp"
#include "coll/copy.hpp"
#include "coll/power_scheme.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

/// Parent / children links of `tree` on virtual ranks, translated back to
/// comm ranks. Children are listed in send order (binomial: largest
/// subtree first, so deep subtrees start filling earliest).
void build_tree_links(TreeKind tree, int P, int root, CollPlan& plan) {
  plan.parent.assign(static_cast<std::size_t>(P), -1);
  plan.children.resize(static_cast<std::size_t>(P));
  auto real = [&](int vr) { return (vr + root) % P; };
  for (int me = 0; me < P; ++me) {
    const int vr = (me - root + P) % P;
    auto& parent = plan.parent[static_cast<std::size_t>(me)];
    auto& children = plan.children[static_cast<std::size_t>(me)];
    switch (tree) {
      case TreeKind::kBinomial: {
        int mask = 1;
        while (mask < P) {
          if ((vr & mask) != 0) {
            parent = real(vr - mask);
            break;
          }
          mask <<= 1;
        }
        if (vr == 0) mask = ceil_pow2(P);
        for (mask >>= 1; mask > 0; mask >>= 1) {
          const int child_vr = vr + mask;
          if (child_vr < P) children.push_back(real(child_vr));
        }
        break;
      }
      case TreeKind::kBinary:
        if (vr > 0) parent = real((vr - 1) / 2);
        if (2 * vr + 1 < P) children.push_back(real(2 * vr + 1));
        if (2 * vr + 2 < P) children.push_back(real(2 * vr + 2));
        break;
      case TreeKind::kChain:
        if (vr > 0) parent = real(vr - 1);
        if (vr + 1 < P) children.push_back(real(vr + 1));
        break;
      case TreeKind::kLinear:
        if (vr > 0) {
          parent = root;
        } else {
          for (int child_vr = 1; child_vr < P; ++child_vr) {
            children.push_back(real(child_vr));
          }
        }
        break;
    }
  }
}

/// Per-rank programs for the segmented tree bcast/reduce, in the §V
/// PowerAction format. Non-power programs are pure send/recv sequences.
///
/// The power twin follows the §V-B waiting discipline: a rank throttles to
/// T7 while it has nothing to move (bcast: before its first segment
/// arrives and after its last forward; reduce: after its last upward
/// send), and everyone meets at a closing node rendezvous before restoring
/// T0 — so no rank observes a peer's completion at a stale power state.
/// On socket-granular hardware the transitions act socket-wide exactly as
/// the §V exchange's do; since tree ranks finish at staggered times, a
/// socket's effective level is last-writer-wins — an imperfect but honest
/// rendering of the paper's per-socket knob.
void build_tree_programs(PlanKind kind, int segments, bool power,
                         CollPlan& plan) {
  const int P = static_cast<int>(plan.parent.size());
  plan.actions.resize(static_cast<std::size_t>(P));
  if (P == 1) return;
  for (int me = 0; me < P; ++me) {
    auto& acts = plan.actions[static_cast<std::size_t>(me)];
    auto emit = [&acts](PowerAction::Kind kind_, std::int32_t arg = 0) {
      acts.push_back(PowerAction{kind_, arg});
    };
    const int parent = plan.parent[static_cast<std::size_t>(me)];
    const auto& children = plan.children[static_cast<std::size_t>(me)];

    if (kind == PlanKind::kBcastTreeSeg) {
      if (power && parent >= 0) {
        emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
      }
      for (int s = 0; s < segments; ++s) {
        if (parent >= 0) {
          emit(PowerAction::kRecv, parent);
          if (power && s == 0) emit(PowerAction::kEnsureUnthrottled);
        }
        for (const int child : children) emit(PowerAction::kSend, child);
      }
    } else {
      // Reduce drains children in reverse send order (smallest subtree
      // first), so the deepest subtree's segments arrive while the shallow
      // ones are already being received.
      for (int s = 0; s < segments; ++s) {
        for (auto it = children.rbegin(); it != children.rend(); ++it) {
          emit(PowerAction::kRecv, *it);
        }
        if (parent >= 0) emit(PowerAction::kSend, parent);
      }
    }

    if (power) {
      if (parent >= 0) emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
      emit(PowerAction::kBarrier);
      emit(PowerAction::kEnsureUnthrottled);
    }
  }
}

/// Byte range of segment `index` within a `bytes` payload cut into
/// `segments` pieces of `seg` bytes (the last one possibly short).
std::pair<std::size_t, std::size_t> segment_range(Bytes bytes, Bytes seg,
                                                  int segments, int index) {
  if (segments <= 1) return {0, static_cast<std::size_t>(bytes)};
  const auto offset = static_cast<std::size_t>(seg) *
                      static_cast<std::size_t>(index);
  const auto len = std::min(static_cast<std::size_t>(seg),
                            static_cast<std::size_t>(bytes) - offset);
  return {offset, len};
}

std::uint8_t tree_variant(TreeKind tree, bool power) {
  return static_cast<std::uint8_t>(static_cast<std::uint8_t>(tree) |
                                   (power ? 0x80u : 0u));
}

}  // namespace

int tree_segment_count(Bytes bytes, Bytes seg) {
  if (seg <= 0 || seg >= bytes) return 1;
  return static_cast<int>((bytes + seg - 1) / seg);
}

PlanPtr build_tree_plan(const mpi::Comm& comm, PlanKind kind, TreeKind tree,
                        Bytes bytes, Bytes seg, bool power, int root) {
  PACC_EXPECTS(kind == PlanKind::kBcastTreeSeg ||
               kind == PlanKind::kReduceTreeSeg);
  const int P = comm.size();
  PACC_EXPECTS(root >= 0 && root < P);
  auto plan = std::make_shared<CollPlan>();
  plan->kind = kind;
  plan->action = sym::CollapseAction::kNone;  // rooted: ranks singled out
  build_tree_links(tree, P, root, *plan);
  build_tree_programs(kind, tree_segment_count(bytes, seg), power, *plan);
  return plan;
}

PlanPtr get_tree_plan(mpi::Comm& comm, PlanKind kind, TreeKind tree,
                      Bytes bytes, Bytes seg, bool power, int root) {
  const PlanKey key{.comm_fingerprint = comm.structure_fingerprint(),
                    .kind = kind,
                    .bytes = bytes,
                    .root = root,
                    .seg = seg,
                    .variant = tree_variant(tree, power)};
  PlanCache* cache = comm.runtime().plan_cache().get();
  if (cache != nullptr) {
    if (PlanPtr cached = cache->lookup(key)) return cached;
  }
  PlanPtr plan = build_tree_plan(comm, kind, tree, bytes, seg, power, root);
  if (cache != nullptr) cache->insert(key, plan);
  return plan;
}

sim::Task<> bcast_tree_exec(mpi::Rank& self, mpi::Comm& comm, Extent buf,
                            int root, TreeKind tree, Bytes seg,
                            PowerScheme scheme) {
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const auto bytes = static_cast<Bytes>(buf.size());
  const bool power = scheme == PowerScheme::kProposed;
  const int segments = tree_segment_count(bytes, seg);
  // One tag per segment (consecutive sequence numbers): eager flows of
  // different lengths can finish out of order, so a single tag's FIFO
  // would let a short tail segment overtake the full one before it.
  const int tag = comm.begin_collective(me);
  for (int s = 1; s < segments; ++s) comm.begin_collective(me);
  if (P == 1) co_return;

  const PlanPtr plan =
      get_tree_plan(comm, PlanKind::kBcastTreeSeg, tree, bytes, seg, power,
                    root);

  // The i-th send to (recv from) a peer carries segment i: the program
  // emits each link's traffic in segment order, so per-peer occurrence
  // counters recover the slice without threading it through the plan.
  std::vector<int> sent(static_cast<std::size_t>(P), 0);
  std::vector<int> rcvd(static_cast<std::size_t>(P), 0);
  ExchangeOps ops;
  ops.send_to = [&](int peer) -> sim::Task<> {
    const int s = sent[static_cast<std::size_t>(peer)]++;
    const auto [off, len] = segment_range(bytes, seg, segments, s);
    co_await self.send(comm.global_rank(peer), tag + s,
                       buf.subspan(off, len));
  };
  ops.recv_from = [&](int peer) -> sim::Task<> {
    const int s = rcvd[static_cast<std::size_t>(peer)]++;
    const auto [off, len] = segment_range(bytes, seg, segments, s);
    co_await self.recv(comm.global_rank(peer), tag + s,
                       buf.subspan(off, len));
  };
  co_await run_power_actions(self, comm, *plan, ops);
}

sim::Task<> reduce_tree_exec(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                             Extent recv, ReduceOp op, int root, TreeKind tree,
                             Bytes seg, PowerScheme scheme) {
  PACC_EXPECTS_MSG(send.size() % sizeof(double) == 0,
                   "reductions operate on double elements");
  PACC_EXPECTS_MSG(seg % sizeof(double) == 0,
                   "reduce segments must preserve double boundaries");
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const auto bytes = static_cast<Bytes>(send.size());
  const bool power = scheme == PowerScheme::kProposed;
  const int segments = tree_segment_count(bytes, seg);
  // Per-segment tags — see bcast_tree_exec.
  const int tag = comm.begin_collective(me);
  for (int s = 1; s < segments; ++s) comm.begin_collective(me);

  Scratch accum(self, send);
  if (P == 1) {
    PACC_EXPECTS(recv.size() == send.size());
    copy_bytes(recv, accum);
    co_return;
  }
  const PlanPtr plan =
      get_tree_plan(comm, PlanKind::kReduceTreeSeg, tree, bytes, seg, power,
                    root);

  Scratch incoming(self,
                   static_cast<std::size_t>(segments <= 1 ? bytes : seg));
  std::vector<int> sent(static_cast<std::size_t>(P), 0);
  std::vector<int> rcvd(static_cast<std::size_t>(P), 0);
  ExchangeOps ops;
  ops.send_to = [&](int peer) -> sim::Task<> {
    const int s = sent[static_cast<std::size_t>(peer)]++;
    const auto [off, len] = segment_range(bytes, seg, segments, s);
    co_await self.send(comm.global_rank(peer), tag + s,
                       accum.subspan(off, len));
  };
  ops.recv_from = [&](int peer) -> sim::Task<> {
    const int s = rcvd[static_cast<std::size_t>(peer)]++;
    const auto [off, len] = segment_range(bytes, seg, segments, s);
    const Extent in = incoming.first(len);
    co_await self.recv(comm.global_rank(peer), tag + s, in);
    reduce_bytes(op, accum.subspan(off, len), in);
  };
  co_await run_power_actions(self, comm, *plan, ops);

  if (me == root) {
    PACC_EXPECTS(recv.size() == send.size());
    copy_bytes(recv, accum);
  }
}

sim::Task<> bcast_tree(mpi::Rank& self, mpi::Comm& comm, Extent buf, int root,
                       const TreeOptions& options) {
  ProfileScope prof(self, "bcast", static_cast<Bytes>(buf.size()));
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        co_await bcast_tree_exec(self, comm, buf, root, options.tree,
                                 options.seg, scheme);
      });
}

sim::Task<> reduce_tree(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                        Extent recv, int root, const TreeOptions& options) {
  ProfileScope prof(self, "reduce", static_cast<Bytes>(send.size()));
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme scheme) -> sim::Task<> {
        co_await reduce_tree_exec(self, comm, send, recv, options.op, root,
                                  options.tree, options.seg, scheme);
      });
}

}  // namespace pacc::coll
