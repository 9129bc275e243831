#pragma once
// Branch-and-bound MILP on top of the simplex LP solver.
//
// solve_milp() first splits the problem into independent blocks
// (split_blocks()): the connected components of the graph in which every
// constraint row joins the variables it touches. The ILP detailed placer's
// formulation always splits into an x-block and a y-block (every row
// touches one axis, and the objective is a sum over the two). Each block is
// solved as its own MILP, one after the other on the calling thread, and
// the answers are merged in block order. A problem with one block is solved
// as it stands.
//
// Per block: depth-first search branching on the most fractional
// integer-marked variable, pruning on the incumbent objective. Analog
// detailed-placement instances have only a handful of fractional binaries
// at the relaxation optimum, so the tree stays tiny; a node limit guards
// the worst case and a rounding fallback guarantees an integral answer
// whenever the relaxation is feasible and rounding preserves feasibility
// (true for the flipping binaries, which never constrain other variables).
// The fallback rounds the root relaxation the search already solved.
//
// Each block keeps one simplex tableau for its whole search. The root LP is
// solved cold (two-phase primal); every later node, and the rounding
// fallback's fixed problem, is re-solved from the tableau of the node
// solved last: its bound changes move the rhs, and dual simplex pivots
// restore optimality (detail::WarmLp in simplex.hpp). A node goes cold
// only when an upper bound turns finite or infinite relative to that
// tableau (lower bounds are always finite; for example branching down on
// an integer variable with an infinite upper bound, never for [0, 1]
// binaries), or when the dual simplex hits the iteration cap. The merged answer is certified against the whole problem
// (see lp.hpp).
//
// Counters: solver/lp_solves, solver/warm_solves (LPs answered from a kept
// tableau), solver/pivots, solver/bb_nodes and solver/truncated (block
// searches cut short by the node budget, the deadline or cancellation),
// flushed once per call; the certified answer's residual goes to the
// solver/max_residual histogram.

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

/// One independent block of a problem: its variables (indices into the
/// whole problem, ascending) and the sub-problem over them.
struct MilpBlock {
  std::vector<int> vars;
  LpProblem problem;
};

/// The independent blocks of `p`, numbered by their first variable, each
/// keeping the original variable and row order (a row without terms goes to
/// the first block). Empty when `p` is one block.
[[nodiscard]] std::vector<MilpBlock> split_blocks(const LpProblem& p);

[[nodiscard]] MilpSolution solve_milp(const LpProblem& p,
                                      MilpOptions opts = {});

}  // namespace aplace::solver
