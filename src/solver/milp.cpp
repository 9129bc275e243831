#include "solver/milp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <tuple>
#include <vector>

#include "solver/simplex.hpp"

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

MilpSolution branch_and_bound(const LpProblem& p, const MilpOptions& opts,
                              detail::Work& done) {
  // One tableau for the whole search: the root is solved cold, every later
  // LP warm from whichever node was solved last (see simplex.hpp).
  detail::WarmLp lp;
  MilpSolution best;
  best.status = LpStatus::Infeasible;

  std::vector<Node> stack;
  stack.push_back(Node{});

  LpProblem work = p;  // bounds mutated per node, structure shared
  LpSolution root;     // the root relaxation, for the rounding fallback
  const auto reset_bounds = [&] {
    for (std::size_t j = 0; j < p.num_variables(); ++j) {
      work.set_bounds(static_cast<int>(j),
                      p.lower_bound(static_cast<int>(j)),
                      p.upper_bound(static_cast<int>(j)));
    }
  };

  while (!stack.empty() && best.nodes_explored < opts.max_nodes) {
    if (opts.deadline.expired()) {
      best.deadline_hit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    ++best.nodes_explored;

    // Apply node bounds on a fresh copy of the original bounds. Each
    // override is intersected with those applied earlier along this branch
    // (the same variable may be branched on again), so a later bound never
    // loosens an earlier one.
    reset_bounds();
    bool bounds_ok = true;
    for (auto [var, lo, hi] : node.bounds) {
      const double new_lo = std::max(lo, work.lower_bound(var));
      const double new_hi = std::min(hi, work.upper_bound(var));
      if (new_lo > new_hi) { bounds_ok = false; break; }
      work.set_bounds(var, new_lo, new_hi);
    }
    if (!bounds_ok) continue;

    LpSolution rel = lp.solve(work, done);
    if (node.bounds.empty()) root = rel;
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
      best.x = std::move(rel.x);
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
    stack.push_back(std::move(up));
    stack.push_back(std::move(down));
  }
  const bool truncated = !stack.empty();
  done.truncated += truncated ? 1 : 0;
  best.proven_optimal = best.status == LpStatus::Optimal && !truncated;
  if (best.status == LpStatus::Optimal) return best;

  // Rounding fallback: fix every integer variable to its rounded value in
  // the root relaxation and re-solve, warm like any node. Guarantees an
  // answer when fixing keeps the problem feasible (flipping binaries always
  // do). The root is solved here only when the search never reached it.
  reset_bounds();
  if (best.nodes_explored == 0) root = lp.solve(work, done);
  if (!root.ok()) return best;
  for (std::size_t j = 0; j < p.num_variables(); ++j) {
    const int v = static_cast<int>(j);
    if (!p.is_integer(v)) continue;
    // Round toward the nearest integer *inside* the original bounds; if none
    // exists the problem has no integral solution here.
    const double lo = p.lower_bound(v);
    const double hi = p.upper_bound(v);
    double r = std::round(root.x[j]);
    if (r < lo) r = std::ceil(lo - 1e-9);
    if (r > hi) r = std::floor(hi + 1e-9);
    if (r < lo - 1e-9 || r > hi + 1e-9) return best;
    work.set_bounds(v, r, r);
  }
  LpSolution fixed = lp.solve(work, done);
  if (fixed.ok()) {
    best.status = LpStatus::Optimal;
    best.x = std::move(fixed.x);
    best.objective = fixed.objective;
    best.proven_optimal = false;
  }
  return best;
}

}  // namespace

// Union-find over each row's variables; the root of a component is its
// first variable.
std::vector<MilpBlock> split_blocks(const LpProblem& p) {
  const std::size_t n = p.num_variables();
  std::vector<int> root(n);
  std::iota(root.begin(), root.end(), 0);
  const auto find = [&root](int v) {
    while (root[v] != v) v = root[v] = root[root[v]];
    return v;
  };
  std::size_t blocks = n;
  for (const LpConstraint& c : p.constraints()) {
    for (std::size_t k = 1; k < c.terms.size(); ++k) {
      const int a = find(c.terms[0].var);
      const int b = find(c.terms[k].var);
      if (a == b) continue;
      root[std::max(a, b)] = std::min(a, b);  // the root is the first variable
      --blocks;
    }
  }
  if (blocks <= 1) return {};

  std::vector<MilpBlock> out;
  std::vector<int> block_of(n), local(n);
  for (std::size_t j = 0; j < n; ++j) {
    const int v = static_cast<int>(j);
    const int r = find(v);
    if (r == v) {
      block_of[j] = static_cast<int>(out.size());
      out.emplace_back();
    } else {
      block_of[j] = block_of[r];
    }
    MilpBlock& b = out[block_of[j]];
    b.vars.push_back(v);
    local[j] = b.problem.add_variable(p.lower_bound(v), p.upper_bound(v),
                                      p.cost(v));
    b.problem.set_integer(local[j], p.is_integer(v));
  }
  for (const LpConstraint& c : p.constraints()) {
    // A row without terms constrains no variable; the first block keeps it.
    MilpBlock& b = out[c.terms.empty() ? 0 : block_of[c.terms[0].var]];
    std::vector<LpTerm> terms = c.terms;
    for (LpTerm& t : terms) t.var = local[t.var];
    b.problem.add_constraint(std::move(terms), c.relation, c.rhs);
  }
  return out;
}


MilpSolution solve_milp(const LpProblem& p, MilpOptions opts) {
  const std::vector<MilpBlock> blocks = split_blocks(p);
  detail::Work work;
  MilpSolution merged;
  if (blocks.empty()) {
    merged = branch_and_bound(p, opts, work);
  } else {
    merged.status = LpStatus::Optimal;
    merged.proven_optimal = true;
    merged.x.assign(p.num_variables(), 0.0);
    for (const MilpBlock& block : blocks) {
      const MilpSolution s = branch_and_bound(block.problem, opts, work);
      merged.nodes_explored += s.nodes_explored;
      merged.deadline_hit = merged.deadline_hit || s.deadline_hit;
      if (!s.ok()) {
        // The first failing block decides; the rest need not be solved.
        merged.status = s.status;
        merged.x.clear();
        merged.objective = 0.0;
        merged.proven_optimal = false;
        break;
      }
      merged.objective += s.objective;
      merged.proven_optimal = merged.proven_optimal && s.proven_optimal;
      for (std::size_t k = 0; k < s.x.size(); ++k) {
        merged.x[block.vars[k]] = s.x[k];
      }
    }
  }
  const bool answered = merged.ok();
  if (answered) {
    merged.max_residual = max_primal_residual(p, merged.x);
    if (merged.max_residual > kResidualTol) {
      merged.status = LpStatus::Uncertified;
      merged.proven_optimal = false;
    }
  }

  detail::flush_counters(work,
                         static_cast<std::uint64_t>(merged.nodes_explored),
                         answered ? merged.max_residual : -1.0);
  return merged;
}

}  // namespace aplace::solver
