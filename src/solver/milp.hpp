#pragma once
// Branch-and-bound MILP on top of the simplex LP solver.
//
// Depth-first search branching on the most fractional integer-marked
// variable, pruning on the incumbent objective. Analog detailed-placement
// instances have only a handful of fractional binaries at the relaxation
// optimum, so the tree stays tiny; a node limit guards the worst case and
// a rounding fallback guarantees an integral answer whenever the relaxation
// is feasible and rounding preserves feasibility (true for the flipping
// binaries, which never constrain other variables).

#include "base/cancel.hpp"
#include "base/deadline.hpp"
#include "solver/lp.hpp"

namespace aplace::solver {

struct MilpOptions {
  long max_nodes = 4000;
  /// Wall-clock budget polled once per branch-and-bound node; an expired
  /// deadline truncates the search (rounding fallback still runs, so a
  /// feasible relaxation keeps yielding an integral answer).
  Deadline deadline;
  /// Cooperative cancellation, polled at the same per-node site. A cancelled
  /// search truncates exactly like an expired deadline.
  base::CancelToken cancel;
};

struct MilpSolution {
  LpStatus status = LpStatus::IterLimit;
  std::vector<double> x;
  double objective = 0.0;
  long nodes_explored = 0;
  bool proven_optimal = false;  ///< false when the node limit truncated search
  bool deadline_hit = false;    ///< the wall-clock budget truncated the search

  [[nodiscard]] bool ok() const { return status == LpStatus::Optimal; }
};

[[nodiscard]] MilpSolution solve_milp(const LpProblem& p,
                                      MilpOptions opts = {});

}  // namespace aplace::solver
