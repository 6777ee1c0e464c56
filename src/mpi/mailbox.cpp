#include "mpi/mailbox.hpp"

#include <algorithm>

namespace pacc::mpi {

void Mailbox::deliver(Message msg) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    RecvAwaiter* p = *it;
    if (p->src_ == msg.src && p->tag_ == msg.tag) {
      posted_.erase(it);
      if (p->timer_ != 0) engine_.cancel(p->timer_);
      p->msg_ = std::move(msg);
      p->got_ = true;
      const auto h = p->handle_;
      engine_.resume_at(engine_.now(), h);
      return;
    }
  }
  unexpected_.push_back(std::move(msg));
}

std::optional<Message> Mailbox::try_take(int src, int tag) {
  const auto it = std::find_if(
      unexpected_.begin(), unexpected_.end(),
      [&](const Message& m) { return m.src == src && m.tag == tag; });
  if (it == unexpected_.end()) return std::nullopt;
  Message msg = std::move(*it);
  unexpected_.erase(it);
  return msg;
}

void Mailbox::RecvAwaiter::await_suspend(std::coroutine_handle<> h) {
  handle_ = h;
  box_.posted_.push_back(this);
  if (timeout_.ns() > 0) {
    timer_ = box_.engine_.schedule(timeout_,
                                   [this] { box_.on_timeout(this); });
  }
}

void Mailbox::on_timeout(RecvAwaiter* awaiter) {
  const auto it = std::find(posted_.begin(), posted_.end(), awaiter);
  PACC_ASSERT(it != posted_.end());  // deliver() cancels the timer first
  posted_.erase(it);
  awaiter->got_ = false;
  const auto h = awaiter->handle_;
  engine_.resume_at(engine_.now(), h);
}

}  // namespace pacc::mpi
