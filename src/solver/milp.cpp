#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <tuple>
#include <vector>

namespace aplace::solver {
namespace {

struct Node {
  // Bound overrides: (var, lo, hi) triples accumulated down the branch.
  std::vector<std::tuple<int, double, double>> bounds;
};

// Most fractional integer variable (fractionality above 1e-6), or nullopt
// when integral.
std::optional<int> pick_branch_var(const LpProblem& p,
                                   const std::vector<double>& x) {
  int best = -1;
  double best_frac = 1e-6;
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    if (!p.is_integer(static_cast<int>(j))) continue;
    const double f = x[j] - std::floor(x[j]);
    const double frac = std::min(f, 1.0 - f);
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int>(j);
    }
  }
  if (best < 0) return std::nullopt;
  return best;
}

}  // namespace

MilpSolution solve_milp(const LpProblem& p, MilpOptions opts) {
  MilpSolution best;
  best.status = LpStatus::Infeasible;

  std::vector<Node> stack;
  stack.push_back(Node{});
  bool truncated = false;

  LpProblem work = p;  // bounds mutated per node, structure shared

  while (!stack.empty() && best.nodes_explored < opts.max_nodes) {
    if (opts.deadline.expired() || opts.cancel.cancelled()) {
      best.deadline_hit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;

    // Apply node bounds on a fresh copy of the original bounds.
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      work.set_bounds(static_cast<int>(j),
                      p.lower_bound(static_cast<int>(j)),
                      p.upper_bound(static_cast<int>(j)));
    }
    bool bounds_ok = true;
    for (auto [var, lo, hi] : node.bounds) {
      // Intersect with overrides applied earlier along this branch so a
      // later bound never loosens an earlier one.
      const double new_lo = std::max(lo, work.lower_bound(var));
      const double new_hi = std::min(hi, work.upper_bound(var));
      if (new_lo > new_hi) { bounds_ok = false; break; }
      work.set_bounds(var, new_lo, new_hi);
    }
    if (!bounds_ok) continue;

    const LpSolution rel = solve_lp(work);
    if (rel.status == LpStatus::Unbounded) {
      // MILP unbounded only if relaxation unbounded at the root.
      if (best.status == LpStatus::Infeasible && node.bounds.empty()) {
        best.status = LpStatus::Unbounded;
        return best;
      }
      continue;
    }
    if (!rel.ok()) continue;
    if (best.status == LpStatus::Optimal &&
        rel.objective >= best.objective - 1e-12) {
      continue;  // pruned by bound
    }

    const auto branch = pick_branch_var(p, rel.x);
    if (!branch) {
      // Integral: new incumbent.
      best.status = LpStatus::Optimal;
      best.x = rel.x;
      best.objective = rel.objective;
      continue;
    }

    const int var = *branch;
    const double val = rel.x[var];
    // Branch down then up; push "up" first so "down" (usually closer to the
    // relaxation) is explored first in DFS order.
    Node down = node, up = node;
    down.bounds.emplace_back(var, p.lower_bound(var), std::floor(val));
    up.bounds.emplace_back(var, std::ceil(val), p.upper_bound(var));
    // Tighten against any earlier override of the same variable.
    stack.push_back(std::move(up));
    stack.push_back(std::move(down));
  }
  if (!stack.empty()) truncated = true;
  best.proven_optimal = best.status == LpStatus::Optimal && !truncated;

  if (best.status != LpStatus::Optimal) {
    // Rounding fallback: solve the relaxation, fix every integer variable to
    // its rounded value, re-solve. Guarantees an answer when fixing keeps
    // the problem feasible (flipping binaries always do).
    const LpSolution rel = solve_lp(p);
    if (rel.ok()) {
      bool roundable = true;
      for (std::size_t j = 0; j < p.num_variables(); ++j) {
        const double lo = p.lower_bound(static_cast<int>(j));
        const double hi = p.upper_bound(static_cast<int>(j));
        work.set_bounds(static_cast<int>(j), lo, hi);
        if (p.is_integer(static_cast<int>(j))) {
          // Round toward the nearest integer *inside* the original bounds;
          // if none exists the problem has no integral solution here.
          double r = std::round(rel.x[j]);
          if (r < lo) r = std::ceil(lo - 1e-9);
          if (r > hi) r = std::floor(hi + 1e-9);
          if (r < lo - 1e-9 || r > hi + 1e-9) {
            roundable = false;
            break;
          }
          work.set_bounds(static_cast<int>(j), r, r);
        }
      }
      if (!roundable) return best;
      const LpSolution fixed = solve_lp(work);
      if (fixed.ok()) {
        best.status = LpStatus::Optimal;
        best.x = fixed.x;
        best.objective = fixed.objective;
        best.proven_optimal = false;
      }
    }
  }
  return best;
}

}  // namespace aplace::solver
