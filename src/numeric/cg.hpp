#pragma once
// Nonlinear conjugate gradient (Polak-Ribiere+ with restart and a
// backtracking Armijo line search). This is the solver used by the
// NTUplace3-style prior-work global placer [11]/[10], which predates the
// Nesterov scheme of ePlace.
//
// The watchdog is always on: non-finite objective/gradient values are
// treated as rejected trial points; when the current state itself is
// poisoned the solver rolls back to the last healthy iterate and restarts
// once, damped.

#include <functional>
#include <span>

#include "base/cancel.hpp"
#include "base/deadline.hpp"
#include "numeric/vec.hpp"

namespace aplace::numeric {

struct CgOptions {
  int max_iters = 500;
  double initial_step = 0.05;
  /// Wall-clock budget polled once per iteration; unlimited by default.
  Deadline deadline;
  /// Cooperative cancellation, polled at the same per-iteration site.
  base::CancelToken cancel;
};

struct CgState {
  int iter = 0;
  double value = 0.0;
  double gradient_norm = 0.0;
};

/// Post-mortem of one minimize() call (all false on a clean run).
struct CgInfo {
  bool diverged = false;
  bool deadline_hit = false;
  bool cancelled = false;  ///< stopped by cooperative cancellation
  int restarts = 0;
};

class CgSolver {
 public:
  /// Value-and-gradient oracle: returns f(v) and fills grad.
  using ValueGradFn = std::function<double(std::span<const double> v,
                                           std::span<double> grad)>;
  using Callback =
      std::function<bool(const CgState&, std::span<const double> v)>;

  explicit CgSolver(CgOptions opts = {}) : opts_(opts) {}

  /// Minimize starting from v (updated in place). Returns iterations used.
  /// `info`, when given, reports divergence / deadline / restart outcomes.
  int minimize(Vec& v, const ValueGradFn& fg, const Callback& cb,
               CgInfo* info = nullptr) const;

 private:
  CgOptions opts_;
};

}  // namespace aplace::numeric
