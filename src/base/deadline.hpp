#pragma once
// The one stop handle of the placement pipeline: a wall-clock budget plus
// an optional cancel token.
//
// A Deadline is a cheap value type handed down through solver options: the
// Nesterov/CG iteration loops, the SA move loop, the MILP branch-and-bound
// node loop and the legalizer rounds all poll expired(), which is true once
// the time is up *or* a cancel was requested, and stop early. Engines never
// tell the two apart; they report `deadline_hit`. Only the flow layer asks
// cancelled(), where it chooses a status: Cancelled for a cancel,
// BudgetExhausted or a cheaper fallback for an expired budget.
//
// A default-constructed Deadline is unlimited and carries an inert token,
// so expired() costs one null-pointer test and one bool test.

#include <chrono>
#include <utility>

#include "base/cancel.hpp"

namespace aplace {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< unlimited, never cancelled

  /// Deadline `seconds` from now. Non-positive values are already expired
  /// (a zero budget is a valid adversarial input, not an error).
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.limited_ = true;
    d.end_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(
                                    seconds > 0 ? seconds : 0.0));
    return d;
  }

  /// This deadline, also stopped by `cancel`'s request_cancel().
  [[nodiscard]] Deadline with_cancel(base::CancelToken cancel) const {
    Deadline d = *this;
    d.cancel_ = std::move(cancel);
    return d;
  }

  /// Poll site: the time is up or a cancel was requested.
  [[nodiscard]] bool expired() const {
    return cancel_.cancelled() || (limited_ && Clock::now() >= end_);
  }

  /// A cancel was requested. Asked only where a status is chosen.
  [[nodiscard]] bool cancelled() const { return cancel_.cancelled(); }

 private:
  bool limited_ = false;
  Clock::time_point end_{};
  base::CancelToken cancel_;
};

}  // namespace aplace
