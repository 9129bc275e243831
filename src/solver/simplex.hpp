#pragma once
// Solver-internal entry points shared by lp.cpp and milp.cpp.

#include <cstdint>
#include <memory>

#include "solver/lp.hpp"

namespace aplace::solver::detail {

/// Work of one solve_lp() / solve_milp() call, for the solver/ counters.
struct Work {
  std::uint64_t lp_solves = 0;
  std::uint64_t warm_solves = 0;  ///< LPs re-solved from a kept tableau
  std::uint64_t pivots = 0;
  std::uint64_t truncated = 0;  ///< searches stopped with open nodes left
};

class WarmLp;

/// The cold solve: solve_lp() without the certificate and the counter
/// flush, for callers that certify and count once per call. Runs the
/// two-phase primal simplex from scratch and adds the pivots it took to
/// `pivots`. With `keep`, an Optimal answer's final tableau is handed to
/// `keep` for warm re-solves; any earlier tableau there is dropped first,
/// so at most one tableau is alive.
[[nodiscard]] LpSolution simplex(const LpProblem& p, std::uint64_t& pivots,
                                 WarmLp* keep = nullptr);

/// Re-solves one problem under changing variable bounds, as
/// branch-and-bound does. Every problem passed to solve() must have the
/// rows, costs and variables of the first one; only bounds may differ.
///
/// The first solve runs simplex() cold and keeps its optimal tableau. A
/// later solve starts from the kept tableau, whichever solve left it: the
/// reduced costs depend only on the basis, so it is still dual feasible.
/// Each changed bound moves the rhs column in O(rows): a new lower bound
/// lo of x = lo + x' along the tableau column of x', a new upper bound
/// along the slack column of its upper-bound row. Dual simplex pivots
/// (most infeasible row; Bland's rule after a run of degenerate pivots)
/// then restore primal feasibility, or prove the bounds infeasible. The
/// solve goes cold instead when an upper bound turns finite or infinite
/// (its row appears or disappears), when the dual simplex hits
/// simplex()'s iteration cap, when an artificial left basic in a redundant
/// row would move off zero, or when no tableau is kept (the last cold solve
/// was not Optimal).
class WarmLp {
 public:
  WarmLp();
  ~WarmLp();
  WarmLp(const WarmLp&) = delete;
  WarmLp& operator=(const WarmLp&) = delete;

  /// Solve `p`; adds one LP solve, its pivots and, when the kept tableau
  /// answered, one warm solve to `work`.
  [[nodiscard]] LpSolution solve(const LpProblem& p, Work& work);

 private:
  friend LpSolution simplex(const LpProblem&, std::uint64_t&, WarmLp*);
  struct Kept;
  std::unique_ptr<Kept> kept_;
};

/// Add one call's work to the solver/ counters. `residual` is the
/// max_primal_residual() of the call's answer, recorded in the
/// solver/max_residual histogram; pass a negative value when there was no
/// answer to certify.
void flush_counters(const Work& work, std::uint64_t bb_nodes,
                    double residual);

}  // namespace aplace::solver::detail
