#pragma once
// Cooperative cancellation for the placement pipeline.
//
// A CancelToken is the flag a Deadline carries (base/deadline.hpp): the
// engines poll Deadline::expired(), which is true once the owner of the
// token (typically the batch driver, on behalf of a SIGINT handler or an
// RPC abort) requested cancellation, and stop early.
//
// A default-constructed token is inert — cancelled() is always false and
// costs one null-pointer test — so existing call sites pay nothing. Tokens
// copied from one make_cancellable() source share the flag: requesting
// cancellation on any copy is observed by all of them, across threads.
// Requesting cancellation is lock-free (a relaxed atomic store), so a
// signal handler may call request_cancel() directly.
//
// Cancellation is cooperative: an engine loop that sees it returns its best
// state so far with `deadline_hit` set. A flow that still ends with a legal
// placement reports Ok; any other cancelled flow reports
// StatusCode::Cancelled. The batch driver re-runs both kinds on a journal
// resume.

#include <atomic>
#include <memory>

namespace aplace::base {

class CancelToken {
 public:
  /// Inert token: never cancelled, copies share nothing.
  CancelToken() = default;

  /// A live token whose copies all observe request_cancel().
  [[nodiscard]] static CancelToken make_cancellable() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Request cancellation. Safe from any thread and from signal handlers
  /// (std::atomic<bool> is lock-free on every supported platform); no-op on
  /// an inert token.
  void request_cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  /// True once any copy requested cancellation.
  [[nodiscard]] bool cancelled() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace aplace::base
