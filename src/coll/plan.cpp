#include "coll/plan.hpp"

#include <algorithm>
#include <utility>

#include "coll/alltoall_power.hpp"
#include "coll/tree.hpp"
#include "hw/power.hpp"
#include "mpi/runtime.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

const char* const kPowerPhaseNames[4] = {
    "alltoall_power.phase1", "alltoall_power.phase2", "alltoall_power.phase3",
    "alltoall_power.phase4"};

namespace {

constexpr int kSocketA = 0;
constexpr int kSocketB = 1;

/// Pairwise step tables; the same (dst, src) sequence drives both the
/// alltoall (combined sendrecv on power-of-two comms) and the alltoallv
/// (always split send + recv) executors.
///
/// The schedule is a pure function of the rank *difference* (XOR distance
/// on power-of-two comms, cyclic distance otherwise), so the compressed
/// layout stores rank 0's row as the single class template and PlanView
/// shifts it into every other rank's frame.
void build_pairwise(const mpi::Comm& comm, bool materialized,
                    CollPlan& plan) {
  const int P = comm.size();
  plan.pairwise_sendrecv =
      plan.kind == PlanKind::kAlltoallPairwise && is_pow2(P);
  plan.action =
      is_pow2(P) ? sym::CollapseAction::kXor : sym::CollapseAction::kCyclic;
  const int rows = materialized ? P : 1;
  if (!materialized) {
    plan.class_of_rank.assign(static_cast<std::size_t>(P), 0);
    plan.class_rep.assign(1, 0);
  }
  plan.pair_steps.resize(static_cast<std::size_t>(rows));
  for (int me = 0; me < rows; ++me) {
    auto& steps = plan.pair_steps[static_cast<std::size_t>(me)];
    steps.reserve(static_cast<std::size_t>(P - 1));
    for (int step = 1; step < P; ++step) {
      PairStep s;
      if (is_pow2(P)) {
        s.dst = s.src = me ^ step;
      } else {
        s.dst = (me + step) % P;
        s.src = (me - step + P) % P;
      }
      steps.push_back(s);
    }
  }
}

void build_bruck(const mpi::Comm& comm, CollPlan& plan) {
  const int P = comm.size();
  plan.action = sym::CollapseAction::kCyclic;
  for (int k = 1; k < P; k <<= 1) {
    std::vector<std::int32_t> indices;
    for (int i = 1; i < P; ++i) {
      if ((i & k) != 0) indices.push_back(i);
    }
    plan.bruck_rounds.push_back(std::move(indices));
  }
}

void build_dissemination(const mpi::Comm& comm, bool materialized,
                         CollPlan& plan) {
  const int P = comm.size();
  plan.action = sym::CollapseAction::kCyclic;
  const int rows = materialized ? P : 1;
  if (!materialized) {
    plan.class_of_rank.assign(static_cast<std::size_t>(P), 0);
    plan.class_rep.assign(1, 0);
  }
  plan.pair_steps.resize(static_cast<std::size_t>(rows));
  for (int me = 0; me < rows; ++me) {
    auto& steps = plan.pair_steps[static_cast<std::size_t>(me)];
    for (int dist = 1; dist < P; dist <<= 1) {
      steps.push_back(PairStep{.dst = (me + dist) % P,
                               .src = (me - dist + P) % P});
    }
  }
}

void build_bcast_binomial(const mpi::Comm& comm, int root, CollPlan& plan) {
  const int P = comm.size();
  PACC_EXPECTS(root >= 0 && root < P);
  plan.parent.assign(static_cast<std::size_t>(P), -1);
  plan.children.resize(static_cast<std::size_t>(P));
  for (int me = 0; me < P; ++me) {
    const int vr = (me - root + P) % P;
    int mask = 1;
    while (mask < P) {
      if ((vr & mask) != 0) {
        plan.parent[static_cast<std::size_t>(me)] =
            ((vr - mask) + root) % P;
        break;
      }
      mask <<= 1;
    }
    if (vr == 0) mask = ceil_pow2(P);
    for (mask >>= 1; mask > 0; mask >>= 1) {
      const int child_vr = vr + mask;
      if (child_vr < P) {
        plan.children[static_cast<std::size_t>(me)].push_back(
            (child_vr + root) % P);
      }
    }
  }
}

/// Whether the comm gets the XOR-structured §V schedule instead of the
/// historical circle-method one. On fat-tree and dragonfly shapes with
/// power-of-two node and per-node rank counts, every phase's peer pattern
/// can be expressed through XOR distances, which commute with the XOR
/// translations the rank-symmetry collapse uses — so huge fabric
/// communicators can run the proposed scheme collapsed. The flat-switch
/// testbed keeps the circle tournament byte-identical to the historical
/// schedule.
bool power_exchange_is_xor(const mpi::Comm& comm) {
  const auto& shape = comm.runtime().placement().shape;
  const int N = static_cast<int>(comm.nodes().size());
  return shape.translation_group_nodes() > 0 && is_pow2(N) &&
         comm.uniform_ppn() &&
         is_pow2(static_cast<int>(
             comm.members_on_node(comm.nodes().front()).size()));
}

/// Nodes per top-level translation group of the shape: the outermost
/// fat-tree level's group, a dragonfly group, or the whole comm on a flat
/// switch. XOR distances that are multiples of this count pair nodes that
/// are translation images of each other (the merged §V phase-4 rounds).
int top_group_nodes(const hw::ClusterShape& shape, int comm_nodes) {
  const int group_nodes = shape.translation_group_nodes();
  return group_nodes > 0 ? group_nodes : comm_nodes;
}

/// Whether comm ranks decompose as rank = node_index * ppn + local_index
/// with node-invariant socket placement — the layout under which XOR on
/// ranks is exactly (XOR on node index, XOR on local index), making the
/// XOR §V schedule's per-rank programs literal XOR translates of each
/// other. Holds for the standard block placements at full occupancy; the
/// builder verifies instead of assuming so exotic communicators simply
/// fall back to materialized tables.
bool power_exchange_node_major(const mpi::Comm& comm) {
  const int N = static_cast<int>(comm.nodes().size());
  const int ppn =
      static_cast<int>(comm.members_on_node(comm.nodes().front()).size());
  for (int x = 0; x < N; ++x) {
    const auto& members =
        comm.members_on_node(comm.nodes()[static_cast<std::size_t>(x)]);
    if (static_cast<int>(members.size()) != ppn) return false;
    for (int j = 0; j < ppn; ++j) {
      const int rank = members[static_cast<std::size_t>(j)];
      if (rank != x * ppn + j) return false;
      if (comm.socket_of(rank) != comm.socket_of(j)) return false;
    }
  }
  return true;
}

/// The §V power-aware exchange, emitted as a per-rank program instead of
/// executed. Every branch of the historical inline schedule maps to one
/// action, in the same order, so the interpreter's awaits are identical.
///
/// XOR variant (power_exchange_is_xor): phases 2/3 enumerate peer nodes by
/// XOR distance instead of ring offset, and phase 4 replaces the circle
/// tournament with XOR rounds s = 1..N-1 pairing node n with n^s. A round's
/// two sub-steps split socket roles by the lowest set bit of s (bit 0 nodes
/// lend socket A first) — one socket per node on the wire, the paper's §V
/// property. The exception: rounds whose distance is a multiple of the
/// top-level group size pair nodes that are translation images of each
/// other, where no translation-invariant role split exists, so both
/// sockets run in one merged sub-step. On a fat-tree those are (groups−1)
/// of (N−1) rounds — a few percent of the phase.
///
/// Compression: the XOR program of rank me is the XOR translate (by any
/// multiple of R = group_nodes * ppn) of the program of rank me mod R —
/// the role split reads only node-index bits below the group size and the
/// socket map repeats per node — so one template per rank of the first
/// top-level group suffices. Verified against the actual layout
/// (power_exchange_node_major); anything else materializes per rank.
void build_power_exchange(const mpi::Comm& comm, bool materialized,
                          CollPlan& plan) {
  PACC_EXPECTS(power_aware_alltoall_applicable(comm));
  const int P = comm.size();
  const int N = static_cast<int>(comm.nodes().size());
  const bool xor_sched = power_exchange_is_xor(comm);
  const auto& shape = comm.runtime().placement().shape;
  const int group_nodes = top_group_nodes(shape, N);
  plan.action =
      xor_sched ? sym::CollapseAction::kXor : sym::CollapseAction::kNone;

  auto node_at = [&](int index) {
    return comm.nodes()[static_cast<std::size_t>(index)];
  };

  auto emit_program = [&](int me, std::vector<PowerAction>& acts) {
    auto emit = [&acts](PowerAction::Kind kind, std::int32_t arg = 0) {
      acts.push_back(PowerAction{kind, arg});
    };
    const int my_node = comm.node_of(me);
    const int ni = comm.node_index(my_node);
    const int my_socket = comm.socket_of(me);
    const auto& locals = comm.members_on_node(my_node);
    const int c = static_cast<int>(locals.size());

    auto emit_group_exchange = [&](const std::vector<int>& group) {
      for (const int peer : group) emit(PowerAction::kSend, peer);
      for (const int peer : group) emit(PowerAction::kRecv, peer);
    };

    // ---- Phase 1: intra-node exchanges ------------------------------
    emit(PowerAction::kPhaseBegin, 0);
    const auto it = std::find(locals.begin(), locals.end(), me);
    PACC_ASSERT(it != locals.end());
    const int li = static_cast<int>(it - locals.begin());
    for (int step = 1; step < c; ++step) {
      if (is_pow2(c)) {
        const int peer = locals[static_cast<std::size_t>(li ^ step)];
        emit(PowerAction::kSend, peer);
        emit(PowerAction::kRecv, peer);
      } else {
        emit(PowerAction::kSend,
             locals[static_cast<std::size_t>((li + step) % c)]);
        emit(PowerAction::kRecv,
             locals[static_cast<std::size_t>((li - step + c) % c)]);
      }
    }
    emit(PowerAction::kBarrier);
    emit(PowerAction::kPhaseEnd);

    // ---- Phase 2: A↔A inter-node; socket B throttled to T7 ----------
    emit(PowerAction::kPhaseBegin, 1);
    if (my_socket == kSocketA) {
      for (int off = 1; off < N; ++off) {
        const int to_node = node_at(xor_sched ? ni ^ off : (ni + off) % N);
        const int from_node =
            node_at(xor_sched ? ni ^ off : (ni - off + N) % N);
        for (const int peer : comm.socket_group(to_node, kSocketA)) {
          emit(PowerAction::kSend, peer);
        }
        for (const int peer : comm.socket_group(from_node, kSocketA)) {
          emit(PowerAction::kRecv, peer);
        }
      }
    } else {
      emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
    }
    emit(PowerAction::kBarrier);
    emit(PowerAction::kPhaseEnd);

    // ---- Phase 3: roles swap: B↔B inter-node; socket A at T7 --------
    emit(PowerAction::kPhaseBegin, 2);
    if (my_socket == kSocketB) {
      emit(PowerAction::kEnsureUnthrottled);
      for (int off = 1; off < N; ++off) {
        const int to_node = node_at(xor_sched ? ni ^ off : (ni + off) % N);
        const int from_node =
            node_at(xor_sched ? ni ^ off : (ni - off + N) % N);
        for (const int peer : comm.socket_group(to_node, kSocketB)) {
          emit(PowerAction::kSend, peer);
        }
        for (const int peer : comm.socket_group(from_node, kSocketB)) {
          emit(PowerAction::kRecv, peer);
        }
      }
    } else {
      emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
    }
    emit(PowerAction::kBarrier);
    emit(PowerAction::kPhaseEnd);

    // ---- Phase 4: cross-socket inter-node tournament ----------------
    emit(PowerAction::kPhaseBegin, 3);
    if (xor_sched) {
      for (int s = 1; s < N; ++s) {
        const int pnode = node_at(ni ^ s);
        if (s % group_nodes == 0) {
          // Translation-symmetric distance: merged sub-step, both sockets.
          emit(PowerAction::kEnsureUnthrottled);
          emit_group_exchange(comm.socket_group(
              pnode, my_socket == kSocketA ? kSocketB : kSocketA));
          emit(PowerAction::kBarrier);
          continue;
        }
        const int bit = s & -s;
        const bool upper = (ni & bit) != 0;
        // Sub-step a: A of bit-0 nodes ↔ B of bit-1 nodes.
        if ((!upper && my_socket == kSocketA) ||
            (upper && my_socket == kSocketB)) {
          emit(PowerAction::kEnsureUnthrottled);
          emit_group_exchange(
              comm.socket_group(pnode, upper ? kSocketA : kSocketB));
        } else {
          emit(PowerAction::kEnsureThrottledMax);
        }
        emit(PowerAction::kBarrier);
        // Sub-step b: roles swap.
        if ((!upper && my_socket == kSocketB) ||
            (upper && my_socket == kSocketA)) {
          emit(PowerAction::kEnsureUnthrottled);
          emit_group_exchange(
              comm.socket_group(pnode, upper ? kSocketB : kSocketA));
        } else {
          emit(PowerAction::kEnsureThrottledMax);
        }
        emit(PowerAction::kBarrier);
      }
      emit(PowerAction::kPhaseEnd);
      emit(PowerAction::kEnsureUnthrottled);
      return;
    }
    const int rounds = tournament_rounds(N);
    for (int round = 0; round < rounds; ++round) {
      const int pi = tournament_peer(ni, round, N);
      if (pi < 0) {
        // Idle this round: stay throttled through both sub-steps.
        emit(PowerAction::kEnsureThrottledMax);
        emit(PowerAction::kBarrier);
        emit(PowerAction::kBarrier);
        continue;
      }
      const int lo = std::min(ni, pi);
      const int hi = std::max(ni, pi);
      const int lo_node = node_at(lo);
      const int hi_node = node_at(hi);

      // Sub-step a: A(lo) ↔ B(hi); everyone else throttled.
      const bool in_a = (ni == lo && my_socket == kSocketA) ||
                        (ni == hi && my_socket == kSocketB);
      if (in_a) {
        emit(PowerAction::kEnsureUnthrottled);
        emit_group_exchange(ni == lo ? comm.socket_group(hi_node, kSocketB)
                                     : comm.socket_group(lo_node, kSocketA));
      } else {
        emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
      }
      emit(PowerAction::kBarrier);

      // Sub-step b: B(lo) ↔ A(hi).
      const bool in_b = (ni == lo && my_socket == kSocketB) ||
                        (ni == hi && my_socket == kSocketA);
      if (in_b) {
        emit(PowerAction::kEnsureUnthrottled);
        emit_group_exchange(ni == lo ? comm.socket_group(hi_node, kSocketA)
                                     : comm.socket_group(lo_node, kSocketB));
      } else {
        emit(PowerAction::kThrottle, hw::ThrottleLevel::kMax);
      }
      emit(PowerAction::kBarrier);
    }
    emit(PowerAction::kPhaseEnd);

    // Restore T0 before returning to the application.
    emit(PowerAction::kEnsureUnthrottled);
  };

  const int ppn =
      static_cast<int>(comm.members_on_node(comm.nodes().front()).size());
  const int class_count = group_nodes * ppn;
  const bool compress = !materialized && xor_sched && class_count < P &&
                        is_pow2(class_count) &&
                        power_exchange_node_major(comm);
  if (compress) {
    plan.class_of_rank.resize(static_cast<std::size_t>(P));
    for (int me = 0; me < P; ++me) {
      plan.class_of_rank[static_cast<std::size_t>(me)] =
          me & (class_count - 1);
    }
    plan.class_rep.resize(static_cast<std::size_t>(class_count));
    plan.actions.resize(static_cast<std::size_t>(class_count));
    for (int rep = 0; rep < class_count; ++rep) {
      plan.class_rep[static_cast<std::size_t>(rep)] = rep;
      emit_program(rep, plan.actions[static_cast<std::size_t>(rep)]);
      plan.actions[static_cast<std::size_t>(rep)].shrink_to_fit();
    }
    return;
  }
  plan.actions.resize(static_cast<std::size_t>(P));
  for (int me = 0; me < P; ++me) {
    emit_program(me, plan.actions[static_cast<std::size_t>(me)]);
    plan.actions[static_cast<std::size_t>(me)].shrink_to_fit();
  }
}

PlanPtr build_plan_impl(const mpi::Comm& comm, PlanKind kind, int root,
                        bool materialized) {
  auto plan = std::make_shared<CollPlan>();
  plan->kind = kind;
  switch (kind) {
    case PlanKind::kAlltoallPairwise:
    case PlanKind::kAlltoallvPairwise:
      build_pairwise(comm, materialized, *plan);
      break;
    case PlanKind::kAlltoallBruck:
      build_bruck(comm, *plan);
      break;
    case PlanKind::kPowerExchange:
      build_power_exchange(comm, materialized, *plan);
      break;
    case PlanKind::kBcastBinomial:
      build_bcast_binomial(comm, root, *plan);
      break;
    case PlanKind::kBarrierDissemination:
      build_dissemination(comm, materialized, *plan);
      break;
    case PlanKind::kBcastTreeSeg:
    case PlanKind::kReduceTreeSeg:
      // Tree plans carry extra knobs (tree shape, segment size, power
      // twin); this generic entry point builds the unsegmented binomial
      // power-off default. Trees single ranks out, so their tables are
      // rank-indexed in both layouts. Use build_tree_plan for the full
      // surface.
      return build_tree_plan(comm, kind, TreeKind::kBinomial, /*bytes=*/0,
                             /*seg=*/0, /*power=*/false, root);
  }
  return plan;
}

}  // namespace

// ------------------------------------------------------------- CollPlan --

std::size_t CollPlan::bytes() const {
  std::size_t b = sizeof(CollPlan);
  b += class_of_rank.capacity() * sizeof(std::int32_t);
  b += class_rep.capacity() * sizeof(std::int32_t);
  b += pair_steps.capacity() * sizeof(std::vector<PairStep>);
  for (const auto& v : pair_steps) b += v.capacity() * sizeof(PairStep);
  b += bruck_rounds.capacity() * sizeof(std::vector<std::int32_t>);
  for (const auto& v : bruck_rounds) {
    b += v.capacity() * sizeof(std::int32_t);
  }
  b += parent.capacity() * sizeof(std::int32_t);
  b += children.capacity() * sizeof(std::vector<std::int32_t>);
  for (const auto& v : children) b += v.capacity() * sizeof(std::int32_t);
  b += actions.capacity() * sizeof(std::vector<PowerAction>);
  for (const auto& v : actions) b += v.capacity() * sizeof(PowerAction);
  return b;
}

// ------------------------------------------------------------ PlanCache --

PlanCache::PlanCache(std::size_t capacity, std::size_t capacity_bytes)
    : capacity_(capacity), capacity_bytes_(capacity_bytes) {
  PACC_EXPECTS(capacity >= 1);
}

PlanPtr PlanCache::lookup(const PlanKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  lru_.splice(lru_.begin(), lru_, it->second.pos);
  return it->second.plan;
}

void PlanCache::insert(const PlanKey& key, PlanPtr plan) {
  const std::size_t plan_bytes = plan == nullptr ? 0 : plan->bytes();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = map_.find(key);
  if (it != map_.end()) {
    bytes_ -= it->second.bytes;
    it->second.plan = std::move(plan);
    it->second.bytes = plan_bytes;
    bytes_ += plan_bytes;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    evict_over_budget_locked();
    return;
  }
  lru_.push_front(key);
  map_.emplace(key, Entry{std::move(plan), plan_bytes, lru_.begin()});
  bytes_ += plan_bytes;
  evict_over_budget_locked();
}

void PlanCache::evict_over_budget_locked() {
  while (map_.size() > 1 &&
         (map_.size() > capacity_ ||
          (capacity_bytes_ != 0 && bytes_ > capacity_bytes_))) {
    const auto victim = map_.find(lru_.back());
    PACC_ASSERT(victim != map_.end());
    bytes_ -= victim->second.bytes;
    map_.erase(victim);
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  std::size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (bytes_ > peak &&
         !peak_bytes_.compare_exchange_weak(peak, bytes_,
                                            std::memory_order_relaxed)) {
  }
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

std::size_t PlanCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

// ---------------------------------------------------------- build/fetch --

PlanPtr build_plan(const mpi::Comm& comm, PlanKind kind, int root) {
  return build_plan_impl(comm, kind, root,
                         comm.runtime().params().materialized_plans);
}

PlanPtr build_plan_materialized(const mpi::Comm& comm, PlanKind kind,
                                int root) {
  return build_plan_impl(comm, kind, root, /*materialized=*/true);
}

PlanPtr get_plan(mpi::Comm& comm, PlanKind kind, Bytes bytes, int root) {
  const bool materialized = comm.runtime().params().materialized_plans;
  const PlanKey key{
      .comm_fingerprint = comm.structure_fingerprint(),
      .kind = kind,
      .bytes = plan_kind_size_keyed(kind) ? bytes : 0,
      .root = root,
      .variant = materialized ? kPlanVariantMaterialized : std::uint8_t{0}};
  PlanCache* cache = comm.runtime().plan_cache().get();
  if (cache != nullptr) {
    if (PlanPtr cached = cache->lookup(key)) return cached;
  }
  PlanPtr plan = build_plan(comm, kind, root);
  if (cache != nullptr) cache->insert(key, plan);
  return plan;
}

}  // namespace pacc::coll
