#include "legal/two_stage_lp.hpp"

#include "legal/formulation.hpp"
#include "legal/projection.hpp"

namespace aplace::legal {

TwoStageLpLegalizer::TwoStageLpLegalizer(netlist::CompiledRef compiled,
                                         TwoStageOptions opts)
    : compiled_(std::move(compiled)), opts_(opts) {
  APLACE_CHECK(opts.grid_pitch > 0);
}

TwoStageResult TwoStageLpLegalizer::place(
    std::span<const double> gp_positions) const {
  const netlist::Circuit& c = compiled_->circuit();
  APLACE_CHECK(gp_positions.size() == 2 * c.num_devices());
  const std::vector<PairOrder> orders = start_orders(c, gp_positions);

  TwoStageResult result{netlist::Placement(c)};
  if (opts_.deadline.expired()) {
    result.outcome = aplace::Status::budget_exhausted(
        "time budget expired before two-stage LP legalization started");
    return result;
  }
  if (opts_.cancel.cancelled()) {
    result.outcome = aplace::Status::cancelled(
        "two-stage LP legalization cancelled before it ran");
    return result;
  }
  run_stages(orders, result);
  return result;
}

void TwoStageLpLegalizer::run_stages(const std::vector<PairOrder>& orders,
                                     TwoStageResult& result) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  const double gu = opts_.grid_pitch;
  // Rows shared by both stages, in the order of [11]'s formulation.
  auto skeleton = [&](solver::LpProblem& lp, double extent_cost) {
    const DeviceVars v = add_device_vars(lp, cc, gu, extent_cost);
    add_die_extents(lp, cc, gu, v);
    add_separation(lp, cc, gu, v, orders);
    add_symmetry(lp, cc, v);
    add_centroid(lp, cc, v);
    add_alignment(lp, cc, gu, v);
    return v;
  };

  // ---- stage 1: area compaction (min W + H) ---------------------------------
  solver::LpProblem lp1;
  const DeviceVars v1 = skeleton(lp1, /*extent_cost=*/1.0);
  const solver::LpSolution sol1 = solve_lp(lp1);
  result.status = sol1.status;
  if (!sol1.ok()) {
    result.outcome = status_from_lp(sol1.status, "stage-1 area LP");
    return;
  }
  result.stage1_width = sol1.x[v1.w];
  result.stage1_height = sol1.x[v1.h];

  // ---- stage 2: wirelength under the compacted extents -----------------------
  solver::LpProblem lp2;
  const DeviceVars v2 = skeleton(lp2, /*extent_cost=*/0.0);
  lp2.add_constraint({{v2.w, 1.0}}, solver::Relation::LessEq,
                     result.stage1_width + 1e-9);
  lp2.add_constraint({{v2.h, 1.0}}, solver::Relation::LessEq,
                     result.stage1_height + 1e-9);
  add_net_boxes(lp2, cc, gu, v2);
  const solver::LpSolution sol2 = solve_lp(lp2);
  result.status = sol2.status;
  if (!sol2.ok()) {
    result.outcome = status_from_lp(sol2.status, "stage-2 wirelength LP");
    return;
  }
  result.placement =
      placement_from_solution(compiled_->circuit(), sol2.x, v2, gu).placement;
  result.outcome = {};
}

}  // namespace aplace::legal
