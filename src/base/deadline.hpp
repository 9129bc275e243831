#pragma once
// Shared wall-clock budget for the placement pipeline.
//
// A Deadline is a cheap value type handed down through solver options: the
// Nesterov/CG iteration loops, the SA move loop and the MILP branch-and-bound
// node loop all poll expired() and stop early, reporting BudgetExhausted up
// the flow instead of overrunning. A default-constructed Deadline is
// unlimited, so existing call sites pay nothing.

#include <chrono>

namespace aplace {

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  ///< unlimited

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

  [[nodiscard]] bool limited() const { return limited_; }
  [[nodiscard]] bool expired() const {
    return limited_ && Clock::now() >= end_;
  }

 private:
  bool limited_ = false;
  Clock::time_point end_{};
};

}  // namespace aplace
