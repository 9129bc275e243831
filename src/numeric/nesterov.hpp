#pragma once
// Nesterov accelerated gradient descent with Lipschitz-estimated step length,
// following ePlace (Lu et al., TCAD'15).
//
// The solver minimizes an implicit objective given only its gradient. The
// step length is the inverse of a local Lipschitz estimate
//   L_k ~= ||g(u_k) - g(u_{k-1})|| / ||u_k - u_{k-1}||
// with backtracking: a trial step is accepted once the step predicted *from*
// the trial point does not undershoot the trial step (ePlace Algorithm 1).
//
// The caller observes progress through a per-iteration callback and may stop
// early (e.g. when the density overflow target is reached) or mutate penalty
// weights between iterations (the gradient closure sees the new weights on
// the next evaluation).
//
// The watchdog is always on: a NaN/Inf iterate/gradient, or a gradient norm
// above 1e8 * max(initial norm, 1), counts as divergence. The solver rolls
// back to the last healthy iterate and retries once with a damped step
// before giving up.

#include <functional>
#include <span>

#include "base/deadline.hpp"
#include "numeric/vec.hpp"

namespace aplace::numeric {

struct NesterovOptions {
  int max_iters = 1000;
  double initial_step = 0.01;   ///< fallback when no curvature info yet
  /// Stop handle (budget or cancellation) polled once per iteration; unlimited
  /// by default.
  Deadline deadline;
};

struct NesterovState {
  int iter = 0;
  double step = 0.0;
  double gradient_norm = 0.0;
};

/// Post-mortem of one minimize() call (all false on a clean run).
struct NesterovInfo {
  bool diverged = false;      ///< watchdog gave up; v holds last good iterate
  bool deadline_hit = false;  ///< stopped by the budget or a cancellation
  int restarts = 0;           ///< damped watchdog restarts taken
};

class NesterovSolver {
 public:
  /// Gradient oracle: fills `grad` with the objective gradient at `v`.
  using GradientFn =
      std::function<void(std::span<const double> v, std::span<double> grad)>;
  /// Called after each accepted iterate; return false to stop.
  using Callback =
      std::function<bool(const NesterovState&, std::span<const double> v)>;

  explicit NesterovSolver(NesterovOptions opts = {}) : opts_(opts) {}

  /// Minimize starting from v (updated in place). Returns iterations used.
  /// `info`, when given, reports divergence / deadline / restart outcomes.
  int minimize(Vec& v, const GradientFn& grad, const Callback& cb,
               NesterovInfo* info = nullptr) const;

 private:
  NesterovOptions opts_;
};

}  // namespace aplace::numeric
