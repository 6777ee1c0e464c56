#include "sim/sync.hpp"

#include <utility>

#include "util/expect.hpp"

namespace pacc::sim {

void Signal::pulse() {
  // Swap out first: a resumed waiter may immediately wait again, and that
  // re-registration must target the *next* pulse.
  std::vector<std::coroutine_handle<>> batch;
  batch.swap(waiters_);
  for (auto h : batch) {
    engine_.resume_at(engine_.now(), h);
  }
}

void Latch::fire() {
  if (fired_) return;
  fired_ = true;
  std::vector<std::coroutine_handle<>> batch;
  batch.swap(waiters_);
  for (auto h : batch) {
    engine_.resume_at(engine_.now(), h);
  }
}

Barrier::Barrier(Engine& engine, std::size_t parties)
    : engine_(engine), parties_(parties) {
  PACC_EXPECTS(parties >= 1);
}

bool Barrier::arrive(std::coroutine_handle<> h) {
  PACC_ASSERT(waiting_.size() < parties_);
  if (waiting_.size() + 1 == parties_) {
    std::vector<std::coroutine_handle<>> batch;
    batch.swap(waiting_);
    for (auto w : batch) {
      engine_.resume_at(engine_.now(), w);
    }
    return false;  // last arriver continues without suspending
  }
  waiting_.push_back(h);
  return true;
}

}  // namespace pacc::sim
