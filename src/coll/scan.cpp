#include "coll/scan.hpp"

#include "coll/copy.hpp"
#include "coll/power_scheme.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

sim::Task<> scan_recursive_doubling(mpi::Rank& self, mpi::Comm& comm,
                                    ConstExtent send, Extent recv,
                                    ReduceOp op) {
  PACC_EXPECTS(send.size() == recv.size());
  PACC_EXPECTS(send.size() % sizeof(double) == 0);
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  const int tag = comm.begin_collective(me);

  // recv accumulates the inclusive prefix; partial the trailing window
  // [me - 2^k + 1, me] that gets forwarded.
  copy_bytes(recv, send);
  Scratch partial(self, send);
  Scratch incoming(self, send.size());

  for (int mask = 1; mask < P; mask <<= 1) {
    const int dst = me + mask;
    const int src = me - mask;
    if (dst < P) {
      co_await self.send(comm.global_rank(dst), tag, partial);
    }
    if (src >= 0) {
      co_await self.recv(comm.global_rank(src), tag, incoming);
      // incoming covers [src - 2^k + 1, src] == [me - 2^{k+1} + 1, me - 2^k].
      reduce_bytes(op, partial, incoming);
      reduce_bytes(op, recv, incoming);
    }
  }
}

sim::Task<> scan(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                 Extent recv, const ScanOptions& options) {
  ProfileScope prof(self, "scan", static_cast<Bytes>(send.size()));
  co_await run_with_scheme(self, comm, options.scheme,
                           [&](PowerScheme) -> sim::Task<> {
                             co_await scan_recursive_doubling(
                                 self, comm, send, recv, options.op);
                           });
}

}  // namespace pacc::coll
