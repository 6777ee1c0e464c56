#include "coll/power_scheme.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "hw/power.hpp"
#include "util/expect.hpp"

namespace pacc::coll {

std::string to_string(PowerScheme s) {
  switch (s) {
    case PowerScheme::kNone:
      return "no-power";
    case PowerScheme::kFreqScaling:
      return "freq-scaling";
    case PowerScheme::kProposed:
      return "proposed";
  }
  return "?";
}

std::string to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return "sum";
    case ReduceOp::kMax:
      return "max";
    case ReduceOp::kMin:
      return "min";
  }
  return "?";
}

void reduce_bytes(ReduceOp op, Extent accum, ConstExtent in) {
  PACC_EXPECTS(accum.size() == in.size());
  PACC_EXPECTS_MSG(accum.size() % sizeof(double) == 0,
                   "reduction buffers hold doubles");
  if (!accum.has_bytes() || !in.has_bytes()) return;
  auto* a = reinterpret_cast<double*>(accum.data());
  const auto* b = reinterpret_cast<const double*>(in.data());
  const std::size_t n = accum.size() / sizeof(double);
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i) a[i] += b[i];
      break;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) a[i] = std::max(a[i], b[i]);
      break;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) a[i] = std::min(a[i], b[i]);
      break;
  }
}

int ceil_pow2(int x) {
  PACC_EXPECTS(x >= 1);
  int p = 1;
  while (p < x) p <<= 1;
  return p;
}

bool is_pow2(int x) { return x >= 1 && (x & (x - 1)) == 0; }

int floor_log2(int x) {
  PACC_EXPECTS(x >= 1);
  int l = 0;
  while ((1 << (l + 1)) <= x) ++l;
  return l;
}

sim::Task<PowerScheme> negotiate_scheme(mpi::Rank& self, mpi::Comm& comm,
                                        PowerScheme requested) {
  if (requested == PowerScheme::kNone) co_return requested;
  fault::FaultInjector* inj = self.runtime().fault_injector();
  if (inj == nullptr) co_return requested;
  const int me = comm.comm_rank_of(self.id());
  if (!inj->scheme_entry_doomed(comm.context_id(), comm.next_call_seq(me)))
    co_return requested;
  // Doomed: the entry transition fails. Every member pays the (wasted)
  // O_dvfs wall-clock here by hand rather than through the machine's
  // transition path — the machine hook draws from per-core counter streams,
  // and consuming a draw on this shared verdict would shift every later
  // per-core outcome depending on comm membership.
  const TimePoint begin = self.engine().now();
  co_await self.engine().delay(self.machine().params().dvfs_overhead);
  if (auto* tr = self.engine().tracer(); tr != nullptr && tr->enabled()) {
    const auto track = tr->core_track(self.core());
    tr->complete_span(
        track, "dvfs", "power", begin,
        {{"mhz", static_cast<std::int64_t>(
             self.machine().params().fmin.hz() / 1e6)},
         {"failed", std::int64_t{1}},
         {"stretched", std::int64_t{0}}});
    tr->instant(track, "scheme_fallback", "fault",
                {{"requested", static_cast<std::int64_t>(requested)},
                 {"comm", std::int64_t{comm.context_id()}},
                 {"call", std::int64_t{comm.next_call_seq(me)}}});
  }
  if (me == 0) ++inj->stats().scheme_fallbacks;
  co_return PowerScheme::kNone;
}

sim::Task<> enter_low_power(mpi::Rank& self, PowerScheme scheme) {
  if (scheme == PowerScheme::kNone) co_return;
  co_await self.dvfs(self.machine().params().fmin);
}

sim::Task<> exit_low_power(mpi::Rank& self, PowerScheme scheme) {
  if (scheme == PowerScheme::kNone) co_return;
  co_await self.dvfs(self.machine().params().fmax);
}

sim::Task<> throttle_self(mpi::Rank& self, int tstate) {
  co_await self.throttle(tstate);
}

sim::Task<> unthrottle_self(mpi::Rank& self) {
  co_await self.throttle(hw::ThrottleLevel::kMin);
}

}  // namespace pacc::coll
