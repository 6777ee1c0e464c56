// Collective-algorithm registry: enumerations, capability queries and the
// data-driven AlgoDesc table — without the collective headers.
//
// This is the light half of the former registry.hpp umbrella: benches,
// paccbench, the Campaign engine and the autotuner enumerate operations and
// algorithm candidates through the declarations here and compile against
// forward declarations only (mpi::Rank / mpi::Comm are never dereferenced
// in this header). TUs that need the collective entry points themselves
// keep including coll/registry.hpp.
//
// The AlgoDesc table is the single source of truth for what the library
// can run: every entry names one executable algorithm (the per-op default
// dispatcher or a tree/segment variant), its op, the power schemes it
// implements, its segment-size domain and its executor hooks. The
// historical supported() / governor_supported() matrices are shims over
// this table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "mpi/extent.hpp"
#include "sim/task.hpp"
#include "util/units.hpp"

namespace pacc::mpi {
class Rank;
class Comm;
enum class GovernorKind : std::uint8_t;
}  // namespace pacc::mpi

namespace pacc::coll {

using mpi::ConstExtent;
using mpi::Extent;

/// Power optimisation applied to a collective call (§V, §VII).
enum class PowerScheme {
  kNone,         ///< default algorithm, all cores at fmax / T0
  kFreqScaling,  ///< per-call DVFS to fmin around the default algorithm
  kProposed,     ///< the paper's DVFS + throttling-scheduled algorithms
};

std::string to_string(PowerScheme s);

/// Reduction operator over double elements.
enum class ReduceOp { kSum, kMax, kMin };

std::string to_string(ReduceOp op);

/// The collective operations this library implements.
enum class Op {
  kAlltoall,
  kAlltoallv,
  kBcast,
  kReduce,
  kAllreduce,
  kAllgather,
  kGather,
  kScatter,
  kScan,
  kReduceScatter,
  kBarrier,
};

std::string to_string(Op op);

/// Every operation, in declaration order — iterable so sweeps and tests can
/// enumerate the library instead of hard-coding subsets.
inline constexpr Op kAllOps[] = {
    Op::kAlltoall,  Op::kAlltoallv,     Op::kBcast,   Op::kReduce,
    Op::kAllreduce, Op::kAllgather,     Op::kGather,  Op::kScatter,
    Op::kScan,      Op::kReduceScatter, Op::kBarrier,
};

/// All power schemes, in the order the paper's figures present them.
inline constexpr PowerScheme kAllSchemes[] = {
    PowerScheme::kNone, PowerScheme::kFreqScaling, PowerScheme::kProposed};

/// Tree shapes of the segmented bcast/reduce variants (after Open MPI's
/// coll/adapt component; see docs/ALGORITHMS.md).
enum class TreeKind : std::uint8_t { kBinomial, kBinary, kChain, kLinear };

std::string to_string(TreeKind t);
std::optional<TreeKind> parse_tree(std::string_view name);

/// Bit of `s` in an AlgoDesc scheme-capability mask.
constexpr std::uint8_t scheme_bit(PowerScheme s) {
  return static_cast<std::uint8_t>(1u << static_cast<unsigned>(s));
}

inline constexpr std::uint8_t kSchemesNoneOnly = scheme_bit(PowerScheme::kNone);
inline constexpr std::uint8_t kSchemesAll =
    scheme_bit(PowerScheme::kNone) | scheme_bit(PowerScheme::kFreqScaling) |
    scheme_bit(PowerScheme::kProposed);

/// One collective invocation, op-agnostic: the registry's executor hooks
/// receive the union of every op's arguments so a single call shape drives
/// the whole table. Buffers the op does not use stay empty; size-only
/// extents (mpi/extent.hpp) run the call without payload memory.
struct AlgoCall {
  Extent send;                             ///< send buffer (bcast: in/out)
  Extent recv;                             ///< receive / result buffer
  std::span<const Bytes> send_counts;      ///< alltoallv only
  std::span<const Bytes> recv_counts;      ///< alltoallv only
  Bytes block = 0;       ///< per-peer block / message size
  int root = 0;          ///< rooted collectives
  PowerScheme scheme = PowerScheme::kNone;
  ReduceOp reduce_op = ReduceOp::kSum;
  Bytes seg = 0;         ///< segment size for segmented variants (0 = whole)
};

/// Executor hook: runs one matched call of the algorithm on this rank.
using AlgoExec = sim::Task<> (*)(mpi::Rank&, mpi::Comm&, const AlgoCall&);

/// One registered algorithm. `exec` is the full entry point (profiling +
/// scheme negotiation + DVFS bracket — what run_op_once and --algo invoke);
/// `exec_inner` is the body alone, for callers that already negotiated the
/// scheme (the tuned-dispatch path inside bcast()/reduce()). Default
/// dispatchers have no inner hook: a tuned decision naming them simply
/// falls through to the static choice.
struct AlgoDesc {
  std::string_view name;   ///< stable CLI / tuned-table name
  Op op = Op::kAlltoall;
  std::uint8_t schemes = kSchemesNoneOnly;  ///< scheme-capability mask
  bool is_default = false; ///< the dispatcher's static choice for `op`
  bool segmented = false;  ///< accepts a seg-size knob (":seg=BYTES")
  TreeKind tree = TreeKind::kBinomial;      ///< tree variants only
  Bytes min_seg = 0;       ///< segment-size domain (non-zero seg values)
  Bytes max_seg = 0;
  AlgoExec exec = nullptr;
  AlgoExec exec_inner = nullptr;
};

/// Whether the algorithm implements `scheme`.
constexpr bool algo_supports(const AlgoDesc& desc, PowerScheme scheme) {
  return (desc.schemes & scheme_bit(scheme)) != 0;
}

/// Every registered algorithm, in table order (defaults first, then the
/// tree/segment variants). Table order is the deterministic tie-break the
/// autotuner uses.
std::span<const AlgoDesc> algorithms();

/// The entry named `name`, or nullptr. Names are stable across releases —
/// they key tuned-decision tables.
const AlgoDesc* find_algorithm(std::string_view name);

/// The default dispatcher entry for `op` (always exists).
const AlgoDesc& default_algorithm(Op op);

/// Comma-separated registered names, optionally restricted to one op —
/// for unknown-name error messages.
std::string algorithm_names(std::optional<Op> op = std::nullopt);

/// Capability shim over the AlgoDesc table: true if any registered
/// algorithm for `op` implements `scheme`.
bool supported(Op op, PowerScheme scheme);

/// Governor × scheme capability matrix. The reactive and slack governors
/// compose with every scheme (their restores clamp to the scheme's floor);
/// the power-cap governor owns every core's frequency outright, which a §V
/// scheme would fight, so it runs only with kNone.
bool governor_supported(mpi::GovernorKind kind, PowerScheme scheme);

/// The flag names the tools accept ("alltoall", "reduce_scatter", …);
/// returns nullopt for unknown names.
std::optional<Op> parse_op(std::string_view name);

/// "none"/"no-power", "dvfs"/"freq-scaling", "proposed".
std::optional<PowerScheme> parse_scheme(std::string_view name);

}  // namespace pacc::coll
