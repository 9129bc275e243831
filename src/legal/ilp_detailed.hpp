#pragma once
// Integrated ILP legalization + detailed placement of ePlace-A (paper
// Sec. IV-B, formulation 4a-4j).
//
// Single-stage minimization of  sum_e HPWL_e + mu * (H~*W + W~*H)/2  over an
// integer grid, subject to: net bounding boxes (4b), die coupling (4c),
// pin positions with device flipping binaries (4d), pairwise separation
// directions derived from the GP solution (4e / Fig. 4a), hard symmetry
// with free axis variables (4f), bottom / center alignment (4g, 4h),
// monotone ordering (4i) and integrality (4j). Every row touches one axis
// and the objective is a sum over the axes, so solver::solve_milp solves
// each round as an independent x-problem and y-problem, each with its own
// branch-and-bound over that axis's flipping binaries.
// Coordinates are snapped to the grid afterwards and the unsnapped (still
// feasible) solution is kept if snapping would break legality.

#include <span>
#include <vector>

#include "base/cancel.hpp"
#include "base/deadline.hpp"
#include "base/status.hpp"
#include "legal/formulation.hpp"
#include "legal/relative_order.hpp"
#include "netlist/compiled.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/placement.hpp"
#include "solver/milp.hpp"

namespace aplace::legal {

struct IlpOptions {
  double mu = 1.0;           ///< area weight in objective (4a)
  bool enable_flipping = true;
  /// Branch-and-bound node budget of round 0, per axis. The final flip
  /// re-optimization uses 8 per axis; the other rounds are single LPs.
  long max_nodes = 24;
  /// Direction-refinement rounds: re-derive every pair's separation
  /// direction from the solved placement and re-solve while the objective
  /// improves (monotone). Rounds after the first are single LPs.
  int refine_rounds = 10;
  /// Critical-chain reshaping attempts: flip one binding separation edge of
  /// the larger layout extent per attempt (single LP each).
  int reshape_attempts = 10;
  /// Wall-clock budget shared with the rest of the flow. Checked between
  /// rounds and inside branch-and-bound; an already-solved round is kept.
  Deadline deadline;
  /// Cooperative cancellation. Unlike an expired deadline — which still
  /// delivers the best solved round — a cancelled legalizer returns a
  /// Cancelled outcome immediately so the batch can drain fast.
  base::CancelToken cancel;
};

struct IlpResult {
  netlist::Placement placement;
  solver::LpStatus status = solver::LpStatus::IterLimit;
  double objective = 0.0;
  bool snapped = false;   ///< coordinates are on the integer grid
  long bb_nodes = 0;  ///< branch-and-bound nodes of every round, both axes
  int reshape_accepted = 0;  ///< accepted critical-chain flips
  int reshape_chain_len = 0; ///< last binding-chain length (diagnostics)
  /// Structured outcome: Ok when `placement` holds a solved round, otherwise
  /// why legalization produced nothing usable (Infeasible, BudgetExhausted,
  /// ...). Never trust `placement` when this is non-ok.
  aplace::Status outcome = aplace::Status::internal("ILP placer did not run");

  [[nodiscard]] bool ok() const {
    return outcome.ok() && status == solver::LpStatus::Optimal;
  }
};

class IlpDetailedPlacer {
 public:
  explicit IlpDetailedPlacer(netlist::CompiledRef compiled,
                             IlpOptions opts = {});

  /// Legalize + detail-place starting from GP device centers (x.., y..).
  [[nodiscard]] IlpResult place(std::span<const double> gp_positions) const;

  /// The MILP place() solves first (round 0: separation directions from
  /// `gp_positions`, flipping binaries free), for solver tests and
  /// benchmarks.
  [[nodiscard]] solver::LpProblem round0_problem(
      std::span<const double> gp_positions) const;

 private:
  /// LP variable indices of one round.
  struct RoundVars {
    DeviceVars dev;
    std::vector<int> fx, fy;  ///< flip binaries per device, -1 where none
  };

  /// The MILP of one round; fills `vars`. When `fixed_flips` is non-null
  /// the flipping variables are pinned, otherwise they are binaries.
  [[nodiscard]] solver::LpProblem build_round(
      const std::vector<PairOrder>& orders,
      const std::vector<geom::Orientation>* fixed_flips,
      RoundVars& vars) const;
  /// Build and solve one round. When `fixed_flips` is non-null the flipping
  /// variables are pinned (pure LP); otherwise they are binaries solved by
  /// branch-and-bound with `max_nodes` (0: opts_.max_nodes) per axis.
  [[nodiscard]] solver::MilpSolution solve_round(
      const std::vector<PairOrder>& orders,
      const std::vector<geom::Orientation>* fixed_flips, RoundVars& vars,
      IlpResult& result, long max_nodes = 0) const;
  void finish_placement(const solver::MilpSolution& sol, const RoundVars& vars,
                        IlpResult& result) const;

  netlist::CompiledRef compiled_;
  IlpOptions opts_;
};

}  // namespace aplace::legal
