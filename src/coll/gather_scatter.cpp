#include "coll/gather_scatter.hpp"

#include <algorithm>
#include <vector>

#include "coll/copy.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

namespace {

/// Number of blocks in the subtree rooted at relative rank vr (whose span
/// is its lowest set bit, clipped to P). For vr == 0 the span is P.
int subtree_blocks(int vr, int mask, int P) {
  return std::min(mask, P - vr);
}

}  // namespace

sim::Task<> scatter_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                             Extent recv, Bytes block, int root) {
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const auto blk = static_cast<std::size_t>(block);
  PACC_EXPECTS(recv.size() == blk);
  const int tag = comm.begin_collective(me);
  const int vr = (me - root + P) % P;

  // tmp holds this rank's subtree in *relative* block order, starting at vr.
  Scratch tmp(self);
  int span_mask = 1;

  if (vr == 0) {
    PACC_EXPECTS(send.size() == static_cast<std::size_t>(P) * blk);
    tmp.resize(static_cast<std::size_t>(P) * blk);
    for (int i = 0; i < P; ++i) {
      // Relative block i belongs to actual rank (i + root) % P.
      copy_bytes(tmp.subspan(static_cast<std::size_t>(i) * blk, blk),
                 send.subspan(static_cast<std::size_t>((i + root) % P) * blk,
                              blk));
    }
    span_mask = ceil_pow2(P);
  } else {
    int mask = 1;
    while (mask < P) {
      if ((vr & mask) != 0) {
        const int parent = ((vr - mask) + root) % P;
        const int count = subtree_blocks(vr, mask, P);
        tmp.resize(static_cast<std::size_t>(count) * blk);
        co_await self.recv(comm.global_rank(parent), tag, tmp);
        span_mask = mask;
        break;
      }
      mask <<= 1;
    }
  }

  // Send phase: hand each child its subtree.
  for (int mask = span_mask >> 1; mask > 0; mask >>= 1) {
    const int child_vr = vr + mask;
    if (child_vr < P) {
      const int count = subtree_blocks(child_vr, mask, P);
      const auto offset = static_cast<std::size_t>(child_vr - vr) * blk;
      co_await self.send(
          comm.global_rank((child_vr + root) % P), tag,
          tmp.subspan(offset, static_cast<std::size_t>(count) * blk));
    }
  }

  copy_bytes(recv, tmp.first(blk));
}

sim::Task<> gather_binomial(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, Bytes block, int root) {
  const int P = comm.size();
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const auto blk = static_cast<std::size_t>(block);
  PACC_EXPECTS(send.size() == blk);
  const int tag = comm.begin_collective(me);
  const int vr = (me - root + P) % P;

  // tmp accumulates the subtree rooted at vr in relative block order.
  const int max_span = (vr == 0) ? P : subtree_blocks(vr, vr & -vr, P);
  Scratch tmp(self, static_cast<std::size_t>(max_span) * blk);
  copy_bytes(tmp.first(blk), send);

  int mask = 1;
  while (mask < P) {
    if ((vr & mask) == 0) {
      const int child_vr = vr + mask;
      if (child_vr < P) {
        const int count = subtree_blocks(child_vr, mask, P);
        const auto offset = static_cast<std::size_t>(child_vr - vr) * blk;
        co_await self.recv(
            comm.global_rank((child_vr + root) % P), tag,
            tmp.subspan(offset, static_cast<std::size_t>(count) * blk));
      }
    } else {
      const int parent = ((vr - mask) + root) % P;
      const int count = subtree_blocks(vr, mask, P);
      co_await self.send(comm.global_rank(parent), tag,
                         tmp.first(static_cast<std::size_t>(count) * blk));
      break;
    }
    mask <<= 1;
  }

  if (vr == 0) {
    PACC_EXPECTS(recv.size() == static_cast<std::size_t>(P) * blk);
    for (int i = 0; i < P; ++i) {
      copy_bytes(
          recv.subspan(static_cast<std::size_t>((i + root) % P) * blk, blk),
          tmp.subspan(static_cast<std::size_t>(i) * blk, blk));
    }
  }
}

namespace {

std::vector<std::size_t> prefix(std::span<const Bytes> counts) {
  std::vector<std::size_t> displs(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    PACC_EXPECTS(counts[i] >= 0);
    displs[i + 1] = displs[i] + static_cast<std::size_t>(counts[i]);
  }
  return displs;
}

}  // namespace

sim::Task<> scatterv_linear(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                            Extent recv, std::span<const Bytes> counts,
                            int root) {
  const int P = comm.size();
  PACC_EXPECTS(static_cast<int>(counts.size()) == P);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const int tag = comm.begin_collective(me);
  PACC_EXPECTS(recv.size() ==
               static_cast<std::size_t>(counts[static_cast<std::size_t>(me)]));

  if (me == root) {
    const auto displs = prefix(counts);
    PACC_EXPECTS(send.size() == displs.back());
    for (int peer = 0; peer < P; ++peer) {
      const auto p = static_cast<std::size_t>(peer);
      const auto segment =
          send.subspan(displs[p], static_cast<std::size_t>(counts[p]));
      if (peer == me) {
        copy_bytes(recv, segment);
      } else {
        co_await self.send(comm.global_rank(peer), tag, segment);
      }
    }
  } else {
    co_await self.recv(comm.global_rank(root), tag, recv);
  }
}

sim::Task<> gatherv_linear(mpi::Rank& self, mpi::Comm& comm, ConstExtent send,
                           Extent recv, std::span<const Bytes> counts,
                           int root) {
  const int P = comm.size();
  PACC_EXPECTS(static_cast<int>(counts.size()) == P);
  const int me = comm.comm_rank_of(self.id());
  PACC_EXPECTS(me >= 0);
  PACC_EXPECTS(root >= 0 && root < P);
  const int tag = comm.begin_collective(me);
  PACC_EXPECTS(send.size() ==
               static_cast<std::size_t>(counts[static_cast<std::size_t>(me)]));

  if (me == root) {
    const auto displs = prefix(counts);
    PACC_EXPECTS(recv.size() == displs.back());
    for (int peer = 0; peer < P; ++peer) {
      const auto p = static_cast<std::size_t>(peer);
      const auto segment =
          recv.subspan(displs[p], static_cast<std::size_t>(counts[p]));
      if (peer == me) {
        copy_bytes(segment, send);
      } else {
        co_await self.recv(comm.global_rank(peer), tag, segment);
      }
    }
  } else {
    co_await self.send(comm.global_rank(root), tag, send);
  }
}

}  // namespace pacc::coll
