// Size-only payload equivalence suite.
//
// measure_collective runs on a synthetic-payload runtime with size-only
// extents (mpi/extent.hpp): no rank allocates, copies or reduces a payload
// byte. The simulation is content-blind, so that must change nothing: every
// registered algorithm × supported scheme is run once on real, private
// per-rank buffers with synthetic payloads off, and once on the harness's
// own size-only call, and the two runs must agree on latency, energy bits,
// flows, delivered bytes and dispatched events. The size-only run must in
// turn reproduce measure_collective's report exactly, which ties the
// real-buffer run to the figures the benches publish.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "coll/copy.hpp"
#include "coll/registry.hpp"
#include "pacc/simulation.hpp"
#include "sym/collapse.hpp"

namespace pacc {
namespace {

struct Observed {
  std::int64_t latency_ns = 0;
  std::uint64_t energy_bits = 0;
  std::uint64_t flows = 0;
  std::uint64_t bytes_delivered = 0;
  std::uint64_t events = 0;
  int multiplicity = 1;
};

/// `n` bytes of doubles that differ per rank, so reductions really compute.
std::vector<std::byte> rank_doubles(std::size_t n, int rank) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i + sizeof(double) <= n; i += sizeof(double)) {
    const double v = static_cast<double>(rank) + static_cast<double>(i) / 8.0;
    std::memcpy(out.data() + i, &v, sizeof v);
  }
  return out;
}

/// Runs measure_collective's loop — warmup, barrier, timed iterations,
/// barrier — with measure_collective's collapse decision, either on real
/// buffers (synthetic payloads off) or on the harness's size-only call.
Observed run_cell(const ClusterConfig& config, const CollectiveBenchSpec& spec,
                  const coll::AlgoDesc& desc, bool real) {
  ClusterConfig cfg = config;
  cfg.synthetic_payloads = !real;
  const sym::CollapseDecision collapse = sym::decide(config, spec);
  cfg.collapse_multiplicity = collapse.multiplicity;
  Simulation sim(cfg);

  const std::vector<Bytes> counts(
      spec.op == coll::Op::kAlltoallv ? static_cast<std::size_t>(cfg.ranks)
                                      : 0,
      round_to_doubles(spec.message));
  const coll::AlgoCall sized = measured_call(spec, cfg.ranks, counts);
  TimePoint t0;
  TimePoint t1;
  Joules e0 = 0.0;
  Joules e1 = 0.0;
  const RunReport run = sim.run([&](mpi::Rank& self) -> sim::Task<> {
    std::vector<std::byte> send;
    std::vector<std::byte> recv;
    coll::AlgoCall call = sized;
    if (real) {
      send = rank_doubles(sized.send.size(), self.id());
      recv.resize(sized.recv.size());
      call.send = send;
      call.recv = recv;
    }
    mpi::Comm& world = sim.runtime().world();
    for (int i = 0; i < spec.warmup; ++i) {
      co_await desc.exec(self, world, call);
    }
    co_await coll::barrier(self, world);
    if (self.id() == 0) {
      t0 = self.engine().now();
      e0 = self.machine().total_energy();
    }
    for (int i = 0; i < spec.iterations; ++i) {
      co_await desc.exec(self, world, call);
    }
    co_await coll::barrier(self, world);
    if (self.id() == 0) {
      t1 = self.engine().now();
      e1 = self.machine().total_energy();
    }
  });
  EXPECT_TRUE(run.status.ok()) << run.status.describe();

  Observed out;
  out.latency_ns = ((t1 - t0) / static_cast<double>(spec.iterations)).ns();
  out.energy_bits = std::bit_cast<std::uint64_t>(
      (e1 - e0) / static_cast<double>(spec.iterations) *
      static_cast<double>(collapse.multiplicity));
  out.flows = sim.network().flows_started();
  out.bytes_delivered = sim.network().bytes_delivered();
  out.events = sim.engine().events_dispatched();
  out.multiplicity = collapse.multiplicity;
  return out;
}

/// Ops whose buffers hold one block per rank get a smaller block, so the
/// real-buffer runs stay a few MiB.
Bytes large_message(coll::Op op) {
  switch (op) {
    case coll::Op::kAlltoall:
    case coll::Op::kAlltoallv:
    case coll::Op::kAllgather:
    case coll::Op::kGather:
    case coll::Op::kScatter:
    case coll::Op::kReduceScatter:
      return 4 * 1024;
    default:
      return 32 * 1024;
  }
}

void expect_equivalent(const ClusterConfig& config,
                       const coll::AlgoDesc& desc) {
  for (const coll::PowerScheme scheme : coll::kAllSchemes) {
    if (!coll::algo_supports(desc, scheme)) continue;
    // 64 B takes the small-message paths (Bruck, binomial trees); the large
    // size takes the §V power-aware and scatter–allgather paths and, with
    // the minimum segment, cuts the tree variants into segments.
    for (const Bytes message : {Bytes{64}, large_message(desc.op)}) {
      CollectiveBenchSpec spec;
      spec.op = desc.op;
      spec.message = message;
      spec.scheme = scheme;
      spec.iterations = 2;
      spec.warmup = 1;
      if (!desc.is_default) spec.algo = std::string(desc.name);
      if (desc.segmented) spec.seg = desc.min_seg;
      SCOPED_TRACE(std::string(desc.name) + " × " + coll::to_string(scheme) +
                   " @ " + std::to_string(message) + " B");

      const Observed real = run_cell(config, spec, desc, /*real=*/true);
      const Observed sized = run_cell(config, spec, desc, /*real=*/false);
      EXPECT_EQ(real.latency_ns, sized.latency_ns);
      EXPECT_EQ(real.energy_bits, sized.energy_bits);
      EXPECT_EQ(real.flows, sized.flows);
      EXPECT_EQ(real.bytes_delivered, sized.bytes_delivered);
      EXPECT_EQ(real.events, sized.events);
      EXPECT_GT(sized.flows, 0u);

      const CollectiveReport report = measure_collective(config, spec);
      ASSERT_TRUE(report.status.ok()) << report.status.describe();
      EXPECT_EQ(report.latency.ns(), sized.latency_ns);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(report.energy_per_op),
                sized.energy_bits);
      EXPECT_EQ(report.collapse.representative_flows, sized.flows);
      EXPECT_EQ(report.collapse.multiplicity, sized.multiplicity);
    }
  }
}

/// The paper's testbed: 8 nodes × 8 ranks on one switch.
ClusterConfig flat_8x8() {
  ClusterConfig cfg;
  cfg.nodes = 8;
  cfg.ranks_per_node = 8;
  cfg.ranks = 64;
  return cfg;
}

/// 16 nodes in 4 top-level fat-tree groups: Alltoall(v) and Barrier
/// collapse 4×, the rooted ops run 1:1 on the same fabric.
ClusterConfig fat_tree() {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.ranks_per_node = 4;
  cfg.ranks = 64;
  cfg.fabric = {{4, 2.0}};
  return cfg;
}

class SizeOnlyPayloads : public ::testing::TestWithParam<std::string> {
 protected:
  const coll::AlgoDesc& desc() const {
    const coll::AlgoDesc* d = coll::find_algorithm(GetParam());
    EXPECT_NE(d, nullptr);
    return *d;
  }
};

TEST_P(SizeOnlyPayloads, FlatEightByEightMatchesRealBuffers) {
  expect_equivalent(flat_8x8(), desc());
}

TEST_P(SizeOnlyPayloads, CollapsedFatTreeMatchesRealBuffers) {
  expect_equivalent(fat_tree(), desc());
}

std::vector<std::string> registered_names() {
  std::vector<std::string> names;
  for (const coll::AlgoDesc& d : coll::algorithms()) {
    names.emplace_back(d.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SizeOnlyPayloads,
                         ::testing::ValuesIn(registered_names()),
                         [](const auto& info) { return info.param; });

TEST(SizeOnlyPayloadShapes, FatTreeAlltoallCollapses) {
  CollectiveBenchSpec spec;
  spec.op = coll::Op::kAlltoall;
  EXPECT_EQ(sym::decide(fat_tree(), spec).multiplicity, 4);
}

TEST(PayloadExtent, SizeOnlyExtentsCarryNoBytes) {
  const mpi::Extent sized = mpi::Extent::sized(64);
  EXPECT_FALSE(sized.has_bytes());
  EXPECT_EQ(sized.subspan(8, 16).size(), 16u);
  EXPECT_FALSE(sized.subspan(8, 16).has_bytes());

  std::vector<std::byte> real(64, std::byte{7});
  const mpi::ConstExtent view = mpi::Extent(real).subspan(8, 16);
  EXPECT_TRUE(view.has_bytes());
  EXPECT_EQ(view.data(), real.data() + 8);

  // A copy or reduction with a size-only side moves nothing.
  std::vector<std::byte> dst(16, std::byte{0});
  coll::copy_bytes(dst, sized.first(16));
  EXPECT_EQ(dst[0], std::byte{0});
  coll::copy_bytes(dst, view);
  EXPECT_EQ(dst[0], std::byte{7});
  coll::reduce_bytes(coll::ReduceOp::kSum, sized.first(16), view);
}

}  // namespace
}  // namespace pacc
