#include "numeric/cg.hpp"

#include <algorithm>
#include <cmath>

namespace aplace::numeric {
namespace {

constexpr double kArmijoC = 1e-4;        ///< sufficient-decrease constant
constexpr double kBacktrackFactor = 0.5; ///< step shrink per rejected trial
constexpr int kMaxLineSearch = 20;       ///< trial steps per line search
constexpr double kGradTol = 1e-7;        ///< stop once ||g|| falls below

}  // namespace

int CgSolver::minimize(Vec& v, const ValueGradFn& fg, const Callback& cb,
                       CgInfo* info) const {
  CgInfo local;
  CgInfo& inf = info ? *info : local;
  inf = {};
  const std::size_t n = v.size();
  if (n == 0) return 0;

  Vec g(n), g_prev(n), dir(n), trial(n), g_trial(n);
  double f = fg(v, g);
  if (!std::isfinite(f) || !all_finite(v) || !all_finite(g)) {
    // The start state itself is poisoned; nothing to roll back to.
    inf.diverged = true;
    return 0;
  }
  for (std::size_t i = 0; i < n; ++i) dir[i] = -g[i];

  Vec v_good = v;  ///< last healthy iterate (watchdog rollback target)
  double step = opts_.initial_step;
  int iter = 0;
  for (; iter < opts_.max_iters; ++iter) {
    if (opts_.deadline.expired()) {
      inf.deadline_hit = true;
      break;
    }
    if (opts_.cancel.cancelled()) {
      inf.cancelled = true;
      break;
    }
    const double gnorm = norm2(g);
    if (gnorm <= kGradTol) break;

    // Ensure descent; restart on uphill directions.
    double dg = dot(dir, g);
    if (dg >= 0) {
      for (std::size_t i = 0; i < n; ++i) dir[i] = -g[i];
      dg = -gnorm * gnorm;
    }

    // Backtracking Armijo line search. Non-finite trial values (overflow in
    // the objective at a too-long step) count as rejections so the search
    // naturally backs off into the finite region.
    double t = step;
    double f_new = f;
    bool accepted = false;
    for (int ls = 0; ls < kMaxLineSearch; ++ls) {
      for (std::size_t i = 0; i < n; ++i) trial[i] = v[i] + t * dir[i];
      f_new = fg(trial, g_trial);
      const bool healthy = std::isfinite(f_new) && all_finite(g_trial) &&
                           all_finite(trial);
      if (healthy && f_new <= f + kArmijoC * t * dg) {
        accepted = true;
        break;
      }
      t *= kBacktrackFactor;
    }
    if (!accepted) {
      if (!(std::isfinite(f) && all_finite(g))) {
        // The *current* state is poisoned (the objective can inject NaNs
        // through mutated weights between calls). Roll back once, damped.
        if (inf.restarts < 1) {
          ++inf.restarts;
          v = v_good;
          f = fg(v, g);
          if (!std::isfinite(f) || !all_finite(g)) {
            inf.diverged = true;
            break;
          }
          for (std::size_t i = 0; i < n; ++i) dir[i] = -g[i];
          step = std::max(opts_.initial_step * 0.01, 1e-12);
          continue;
        }
        inf.diverged = true;
        break;
      }
      // Could not make progress along this direction; steepest-descent
      // restart with a tiny step, then give the callback a chance to stop.
      for (std::size_t i = 0; i < n; ++i) dir[i] = -g[i];
      step = std::max(step * kBacktrackFactor, 1e-12);
      CgState st{iter, f, gnorm};
      if (cb && !cb(st, v)) {
        ++iter;
        break;
      }
      if (step <= 1e-12) break;
      continue;
    }

    g_prev = g;
    v = trial;
    f = f_new;
    g = g_trial;
    v_good = v;
    // Grow the step cautiously after success so the search adapts upward.
    step = std::min(t * 2.0, opts_.initial_step * 100.0);

    // Polak-Ribiere+ beta.
    double num = 0;
    for (std::size_t i = 0; i < n; ++i) num += g[i] * (g[i] - g_prev[i]);
    const double den = dot(g_prev, g_prev);
    const double beta = den > 1e-30 ? std::max(0.0, num / den) : 0.0;
    for (std::size_t i = 0; i < n; ++i) dir[i] = -g[i] + beta * dir[i];

    CgState st{iter, f, norm2(g)};
    if (cb && !cb(st, v)) {
      ++iter;
      break;
    }
  }
  if (inf.diverged) v = v_good;
  return iter;
}

}  // namespace aplace::numeric
