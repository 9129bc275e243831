#pragma once
// Branch-and-bound MILP on top of the simplex LP solver.
//
// solve_milp() first splits the problem into independent blocks: the
// connected components of the graph in which every constraint row joins the
// variables it touches. The ILP detailed placer's formulation always splits
// into an x-block and a y-block (every row touches one axis, and the
// objective is a sum over the two). Each block is solved as its own MILP,
// one after the other on the calling thread, and the answers are merged in
// block order. A problem with one block is solved as it stands.
//
// Per block: depth-first search branching on the most fractional
// integer-marked variable, pruning on the incumbent objective. Analog
// detailed-placement instances have only a handful of fractional binaries
// at the relaxation optimum, so the tree stays tiny; a node limit guards
// the worst case and a rounding fallback guarantees an integral answer
// whenever the relaxation is feasible and rounding preserves feasibility
// (true for the flipping binaries, which never constrain other variables).
// The merged answer is certified against the whole problem (see lp.hpp).
//
// Counters: solver/lp_solves, solver/pivots, solver/bb_nodes and
// solver/truncated (block searches cut short by the node budget, the
// deadline or cancellation), flushed once per call.

#include "base/cancel.hpp"
#include "base/deadline.hpp"
#include "solver/lp.hpp"

namespace aplace::solver {

struct MilpOptions {
  /// Branch-and-bound node budget of each block.
  long max_nodes = 4000;
  /// Wall-clock budget polled once per branch-and-bound node; an expired
  /// deadline truncates the search (rounding fallback still runs, so a
  /// feasible relaxation keeps yielding an integral answer).
  Deadline deadline;
  /// Cooperative cancellation, polled at the same per-node site. A cancelled
  /// search truncates exactly like an expired deadline.
  base::CancelToken cancel;
};

/// Merged over the blocks in order: `objective` and `nodes_explored` are
/// sums. The first block that is not Optimal decides `status`, and the
/// blocks after it are not solved.
struct MilpSolution {
  LpStatus status = LpStatus::IterLimit;
  std::vector<double> x;  ///< empty unless some answer was found
  double objective = 0.0;
  long nodes_explored = 0;
  bool proven_optimal = false;  ///< false when a node limit truncated search
  bool deadline_hit = false;    ///< the wall-clock budget truncated a search
  /// max_primal_residual() of `x`; an answer above kResidualTol is reported
  /// Uncertified. 0 when `x` is empty.
  double max_residual = 0.0;

  [[nodiscard]] bool ok() const { return status == LpStatus::Optimal; }
};

[[nodiscard]] MilpSolution solve_milp(const LpProblem& p,
                                      MilpOptions opts = {});

}  // namespace aplace::solver
