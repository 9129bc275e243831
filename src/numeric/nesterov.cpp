#include "numeric/nesterov.hpp"

#include <algorithm>
#include <cmath>

namespace aplace::numeric {
namespace {

constexpr int kBacktrackLimit = 10;  ///< max halvings per iteration
constexpr double kMinStep = 1e-12;
constexpr double kMaxStep = 1e6;
/// Watchdog: a gradient norm above this times max(initial norm, 1) counts
/// as divergence.
constexpr double kExplosionFactor = 1e8;

double lipschitz_step(const Vec& u_new, const Vec& u_old, const Vec& g_new,
                      const Vec& g_old) {
  const double du = norm2(sub(u_new, u_old));
  const double dg = norm2(sub(g_new, g_old));
  if (dg <= 1e-30 || du <= 1e-30) return kMaxStep;
  return std::clamp(du / dg, kMinStep, kMaxStep);
}

}  // namespace

int NesterovSolver::minimize(Vec& v, const GradientFn& grad, const Callback& cb,
                             NesterovInfo* info) const {
  NesterovInfo local;
  NesterovInfo& inf = info ? *info : local;
  inf = {};
  const std::size_t n = v.size();
  if (n == 0) return 0;

  // Notation per ePlace: v = major iterate, u = reference (lookahead) point.
  Vec v_cur = v;
  Vec u_cur = v;
  Vec g_cur(n), g_prev(n);
  Vec u_prev = u_cur;

  grad(u_cur, g_cur);
  if (!all_finite(v_cur) || !all_finite(g_cur)) {
    // Nothing to roll back to: the start state itself is poisoned.
    inf.diverged = true;
    return 0;
  }
  double a_cur = 1.0;
  double alpha = opts_.initial_step;
  const double g0 = norm2(g_cur);
  if (g0 > 1e-30) alpha = std::clamp(alpha, kMinStep, kMaxStep);
  // Gradient-explosion threshold, relative to the starting magnitude.
  const double explode = kExplosionFactor * std::max(g0, 1.0);

  Vec v_good = v_cur;  ///< last healthy major iterate (watchdog rollback)
  int iter = 0;
  Vec v_next(n), u_next(n), g_next(n);
  for (; iter < opts_.max_iters; ++iter) {
    if (opts_.deadline.expired()) {
      inf.deadline_hit = true;
      break;
    }
    if (opts_.cancel.cancelled()) {
      inf.cancelled = true;
      break;
    }
    // Backtracking on the trial step: accept once the Lipschitz step
    // re-estimated at the trial point does not collapse below the trial.
    double trial = alpha;
    const double a_next = (1.0 + std::sqrt(4.0 * a_cur * a_cur + 1.0)) / 2.0;
    const double lookahead = (a_cur - 1.0) / a_next;
    bool unhealthy = false;
    for (int bt = 0;; ++bt) {
      for (std::size_t i = 0; i < n; ++i) {
        v_next[i] = u_cur[i] - trial * g_cur[i];
        u_next[i] = v_next[i] + lookahead * (v_next[i] - v_cur[i]);
      }
      grad(u_next, g_next);
      if (!all_finite(v_next) || !all_finite(g_next)) {
        // Keep NaN/Inf out of the Lipschitz estimate: shrink and retry,
        // escalate to the watchdog when the step cannot shrink further.
        if (bt >= kBacktrackLimit || trial <= kMinStep) {
          unhealthy = true;
          break;
        }
        trial *= 0.5;
        continue;
      }
      const double predicted =
          lipschitz_step(u_next, u_cur, g_next, g_cur);
      if (predicted >= 0.95 * trial || bt >= kBacktrackLimit ||
          trial <= kMinStep) {
        trial = std::min(trial, predicted);
        break;
      }
      trial = std::max(predicted, trial * 0.5);
    }
    if (!unhealthy && norm2(g_next) > explode) {
      unhealthy = true;
    }

    if (unhealthy) {
      if (inf.restarts < 1) {
        // Roll back to the last good iterate and restart the momentum with
        // a damped step. One retry: a second blow-up means the objective
        // itself is pathological, not a transient overshoot.
        ++inf.restarts;
        v_cur = v_good;
        u_cur = v_good;
        grad(u_cur, g_cur);
        if (!all_finite(g_cur)) {
          inf.diverged = true;
          break;
        }
        a_cur = 1.0;
        alpha = std::max(kMinStep, 0.01 * alpha);
        continue;
      }
      inf.diverged = true;
      break;
    }

    u_prev = u_cur;
    g_prev = g_cur;
    v_cur = v_next;
    u_cur = u_next;
    g_cur = g_next;
    a_cur = a_next;
    alpha = std::clamp(lipschitz_step(u_cur, u_prev, g_cur, g_prev),
                       kMinStep, kMaxStep);
    v_good = v_cur;

    NesterovState st;
    st.iter = iter;
    st.step = trial;
    st.gradient_norm = norm2(g_cur);
    if (cb && !cb(st, v_cur)) {
      ++iter;
      break;
    }
  }
  // On divergence hand back the last healthy iterate, never the poisoned one.
  v = inf.diverged ? v_good : v_cur;
  return iter;
}

}  // namespace aplace::numeric
