// Common types for the collective layer.
//
// The enumerations (PowerScheme, ReduceOp, Op, …) live in coll/algo.hpp so
// registry consumers can compile against forward declarations; this header
// re-exports them and adds the helpers that the collective implementations
// themselves need (element-wise reduction, pow2 math) together with the
// mpi::Rank / mpi::Comm definitions every algorithm signature uses.
#pragma once

#include <cstddef>
#include <string>

#include "coll/algo.hpp"
#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "util/units.hpp"

namespace pacc::coll {

/// Applies `op` element-wise: accum[i] = accum[i] (op) in[i].
/// Buffers are interpreted as arrays of double (size % 8 == 0). A size-only
/// side (mpi/extent.hpp) makes it a no-op: there are no values to combine.
void reduce_bytes(ReduceOp op, Extent accum, ConstExtent in);

/// Smallest power of two >= x.
int ceil_pow2(int x);

/// True if x is a power of two.
bool is_pow2(int x);

/// floor(log2(x)) for x >= 1.
int floor_log2(int x);

}  // namespace pacc::coll
