#include "coll/reduce_scatter.hpp"

#include "coll/copy.hpp"
#include "coll/gather_scatter.hpp"
#include "coll/power_scheme.hpp"
#include "coll/reduce.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

void check(const mpi::Comm& comm, ConstExtent send, Extent recv, Bytes block) {
  PACC_EXPECTS(block >= 0 && block % 8 == 0);
  PACC_EXPECTS(send.size() == static_cast<std::size_t>(comm.size()) *
                                  static_cast<std::size_t>(block));
  PACC_EXPECTS(recv.size() == static_cast<std::size_t>(block));
}

}  // namespace

sim::Task<> reduce_scatter_halving(mpi::Rank& self, mpi::Comm& comm,
                                   ConstExtent send, Extent recv, Bytes block,
                                   ReduceOp op) {
  check(comm, send, recv, block);
  const int P = comm.size();
  PACC_EXPECTS_MSG(is_pow2(P), "recursive halving needs a power-of-two comm");
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);
  const auto blk = static_cast<std::size_t>(block);

  // accum holds the blocks this rank is still responsible for:
  // the window [lo, lo + span) shrinks by half each round.
  Scratch accum(self, send);
  Scratch incoming(self);
  int lo = 0;
  int span = P;

  for (int mask = P >> 1; mask > 0; mask >>= 1) {
    const int partner = me ^ mask;
    // The half of the current window containing the partner is sent away;
    // the half containing me is kept and reduced with what arrives.
    const int mid = lo + span / 2;
    const bool keep_low = me < mid;
    const int send_lo = keep_low ? mid : lo;
    const int keep_lo = keep_low ? lo : mid;
    const auto half_bytes = static_cast<std::size_t>(span / 2) * blk;

    incoming.resize(half_bytes);
    co_await self.send(
        comm.global_rank(partner), tag,
        accum.subspan(static_cast<std::size_t>(send_lo) * blk, half_bytes));
    co_await self.recv(comm.global_rank(partner), tag, incoming);
    reduce_bytes(op,
                 accum.subspan(static_cast<std::size_t>(keep_lo) * blk,
                               half_bytes),
                 incoming);
    lo = keep_lo;
    span /= 2;
  }
  PACC_ASSERT(span == 1 && lo == me);
  copy_bytes(recv, accum.subspan(static_cast<std::size_t>(me) * blk, blk));
}

sim::Task<> reduce_scatter(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, Bytes block,
                           const ReduceScatterOptions& options) {
  check(comm, send, recv, block);
  ProfileScope prof(self, "reduce_scatter", static_cast<Bytes>(send.size()));
  co_await run_with_scheme(
      self, comm, options.scheme, [&](PowerScheme) -> sim::Task<> {
        if (is_pow2(comm.size())) {
          co_await reduce_scatter_halving(self, comm, send, recv, block,
                                          options.op);
          co_return;
        }
        // Reduce the full vector to rank 0, then scatter the blocks.
        const int me = comm.comm_rank_of(self.id());
        Scratch reduced(self, me == 0 ? send.size() : 0);
        co_await reduce_binomial(self, comm, send, reduced, options.op, 0);
        co_await scatter_binomial(
            self, comm, me == 0 ? ConstExtent(reduced) : ConstExtent{}, recv,
            block, 0);
      });
}

}  // namespace pacc::coll
