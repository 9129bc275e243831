#include "legal/ilp_detailed.hpp"

#include <cmath>
#include <limits>

#include "legal/formulation.hpp"
#include "legal/projection.hpp"

namespace aplace::legal {

IlpDetailedPlacer::IlpDetailedPlacer(netlist::CompiledRef compiled,
                                     IlpOptions opts)
    : compiled_(std::move(compiled)), opts_(opts) {}

IlpResult IlpDetailedPlacer::place(std::span<const double> gp_positions) const {
  const netlist::Circuit& c = compiled_->circuit();
  const std::size_t n = c.num_devices();
  APLACE_CHECK(gp_positions.size() == 2 * n);
  const double gu = kGridPitch;

  // Initial separation directions from the (projected) GP solution, for
  // every pair (paper Fig. 4a).
  std::vector<PairOrder> orders = start_orders(c, gp_positions);

  IlpResult result{netlist::Placement(c)};
  if (opts_.deadline.expired()) {
    result.outcome = aplace::Status::budget_exhausted(
        "time budget expired before ILP legalization started");
    return result;
  }
  if (opts_.cancel.cancelled()) {
    result.outcome =
        aplace::Status::cancelled("ILP legalization cancelled before it ran");
    return result;
  }
  RoundVars vars;

  // Direction refinement: solve, re-derive every pair's direction from the
  // solved (legal) placement, re-solve. A legal placement always satisfies
  // its own re-derived constraints, so the objective is non-increasing;
  // stop at the first round without improvement.
  double best_obj = std::numeric_limits<double>::infinity();
  bool have_solution = false;
  std::vector<geom::Orientation> fixed_flips;
  for (int round = 0; round < opts_.refine_rounds; ++round) {
    if (round > 0 &&
        (opts_.deadline.expired() || opts_.cancel.cancelled())) {
      break;
    }
    // Round 0 decides the flipping binaries by branch-and-bound; later
    // refinement rounds keep them fixed so each round is a single LP.
    solver::MilpSolution sol =
        solve_round(orders, round == 0 ? nullptr : &fixed_flips, vars, result);
    if (!sol.ok()) {
      if (!have_solution) {
        // Nothing usable yet: report why instead of handing back the
        // default (origin pile-up) placement with only an LpStatus flag.
        result.outcome =
            sol.deadline_hit
                ? aplace::Status::budget_exhausted(
                      "branch-and-bound hit the time budget before finding "
                      "an integral solution")
                : status_from_lp(sol.status, "ILP legalization round 0");
        return result;
      }
      // A later refinement round failed; the placement from the previous
      // round is still valid — restore its status instead of leaking the
      // failed trial's (previously this returned a good placement marked
      // Infeasible).
      break;
    }
    if (round == 0 && opts_.enable_flipping) {
      fixed_flips.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        fixed_flips[i] = {vars.fx[i] >= 0 && sol.x[vars.fx[i]] > 0.5,
                          vars.fy[i] >= 0 && sol.x[vars.fy[i]] > 0.5};
      }
    }
    if (sol.objective >= best_obj - 1e-9) break;
    best_obj = sol.objective;
    finish_placement(sol, vars, result);
    have_solution = true;
    orders = solved_orders(c, sol.x, vars.dev, gu);
  }

  // --- critical-chain reshaping ------------------------------------------------
  // The layout extents are set by chains of binding separation constraints,
  // so the objective is insensitive to mu once directions are fixed. Try
  // flipping one edge of the binding chain of the larger extent from
  // horizontal to vertical (or vice versa) and keep the move when the
  // objective improves. Each attempt is a single LP (flips stay fixed).
  if (!have_solution) {
    result.outcome = aplace::Status::internal(
        "ILP legalization produced no solution (refine_rounds <= 0?)");
    return result;
  }
  for (int attempt = 0; attempt < opts_.reshape_attempts; ++attempt) {
    if (opts_.deadline.expired() || opts_.cancel.cancelled()) break;
    std::vector<double> pos(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point p = result.placement.position(DeviceId{i});
      pos[i] = p.x;
      pos[n + i] = p.y;
    }
    const geom::Rect bb = result.placement.bounding_box();
    const bool shrink_w = bb.width() >= bb.height();

    // Walk the binding chain of the critical dimension from its far edge.
    const std::span<const double> ext_arr =
        shrink_w ? compiled_->dev_width() : compiled_->dev_height();
    const auto extent = [&](std::size_t i) { return ext_arr[i]; };
    const auto coord = [&](std::size_t i) {
      return shrink_w ? pos[i] : pos[n + i];
    };
    std::size_t cur = 0;
    double far_edge = -1e300;
    for (std::size_t i = 0; i < n; ++i) {
      const double e = coord(i) + extent(i) / 2;
      if (e > far_edge) {
        far_edge = e;
        cur = i;
      }
    }
    std::vector<std::pair<std::size_t, std::size_t>> chain;  // (pred, succ)
    result.reshape_chain_len = 0;
    for (std::size_t guard = 0; guard < n; ++guard) {
      std::size_t pred = n;
      for (const PairOrder& po : orders) {
        if (po.horizontal != shrink_w) continue;
        if (po.right_or_top.index() != cur) continue;
        const std::size_t a = po.left_or_bottom.index();
        if (coord(a) + (extent(a) + extent(cur)) / 2 >= coord(cur) - 1e-6) {
          pred = a;
          break;
        }
      }
      if (pred == n) break;
      chain.emplace_back(pred, cur);
      ++result.reshape_chain_len;
      cur = pred;
    }

    bool improved = false;
    for (auto [a, b] : chain) {
      if (forced_direction(c, DeviceId{a}, DeviceId{b}).has_value()) continue;
      // Candidate: same edge, perpendicular direction, order by position.
      std::vector<PairOrder> trial = orders;
      for (PairOrder& po : trial) {
        const std::size_t x = po.left_or_bottom.index();
        const std::size_t y = po.right_or_top.index();
        if ((x == a && y == b) || (x == b && y == a)) {
          po.horizontal = !shrink_w;
          const std::size_t lo =
              (shrink_w ? pos[n + a] <= pos[n + b] : pos[a] <= pos[b]) ? a : b;
          po.left_or_bottom = DeviceId{lo};
          po.right_or_top = DeviceId{lo == a ? b : a};
          break;
        }
      }
      solver::MilpSolution sol =
          solve_round(trial, opts_.enable_flipping ? &fixed_flips : nullptr,
                      vars, result);
      if (sol.ok() && sol.objective < best_obj - 1e-9) {
        // The flipped edge may have carried transitive implications, so
        // verify the trial is actually overlap-free before accepting.
        SolvedPlacement trial_pl = placement_from_solution(
            c, sol.x, vars.dev, gu, vars.fx, vars.fy);
        if (!netlist::Evaluator(c).evaluate(trial_pl.placement).legal(1e-6)) {
          continue;
        }
        best_obj = sol.objective;
        result.placement = std::move(trial_pl.placement);
        result.snapped = trial_pl.snapped;
        orders = solved_orders(c, sol.x, vars.dev, gu);
        improved = true;
        ++result.reshape_accepted;
        break;
      }
    }
    if (!improved) break;
  }
  // --- final flip re-optimization ------------------------------------------------
  // The binaries were decided against the round-0 arrangement; refinement
  // and reshaping may have changed the topology enough that different flips
  // now win. One more branch-and-bound pass with the final direction set.
  if (opts_.enable_flipping && opts_.refine_rounds > 1 &&
      !opts_.deadline.expired() && !opts_.cancel.cancelled()) {
    // Small node budget: the relaxation is usually near-integral by now.
    solver::MilpSolution sol = solve_round(orders, nullptr, vars, result, 8);
    if (sol.ok() && sol.objective < best_obj - 1e-9) {
      best_obj = sol.objective;
      finish_placement(sol, vars, result);
    }
  }

  // Restore the best solution's status (reshape trials may have left a
  // rejected trial's status behind).
  result.status = solver::LpStatus::Optimal;
  result.objective = best_obj;
  result.outcome = {};
  return result;
}

solver::LpProblem IlpDetailedPlacer::round0_problem(
    std::span<const double> gp_positions) const {
  APLACE_CHECK(gp_positions.size() == 2 * compiled_->num_devices());
  RoundVars vars;
  return build_round(start_orders(compiled_->circuit(), gp_positions),
                     nullptr, vars);
}

/// zeta of objective (4a): the utilization that fixes the constants
/// W~ = H~ = sqrt(sum s_i / zeta). A constant of the formulation, separate
/// from GpCommonOptions::utilization, which sizes the GP region.
constexpr double kZeta = 0.55;

solver::LpProblem IlpDetailedPlacer::build_round(
    const std::vector<PairOrder>& orders,
    const std::vector<geom::Orientation>* fixed_flips,
    RoundVars& vars) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::size_t n = cc.num_devices();
  const double gu = kGridPitch;
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();

  // W~ = H~ = sqrt(sum s_i / zeta) in grid units (paper constants).
  double total_area_gu = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total_area_gu += (dev_w[i] / gu) * (dev_h[i] / gu);
  }
  const double wh_tilde = std::sqrt(total_area_gu / kZeta);

  solver::LpProblem lp;
  vars.dev = add_device_vars(lp, cc, gu, opts_.mu * wh_tilde / 2.0);
  vars.fx.assign(n, -1);
  vars.fy.assign(n, -1);
  if (opts_.enable_flipping) {
    // A flip variable only matters when some pin is offset from the device
    // center line in that dimension; otherwise skip it (fewer binaries).
    std::vector<char> fx_useful(n, 0), fy_useful(n, 0);
    const std::span<const std::uint32_t> pdev = cc.pin_device();
    const std::span<const double> pox = cc.pin_offset_x();
    const std::span<const double> poy = cc.pin_offset_y();
    for (std::size_t p = 0; p < cc.num_pins(); ++p) {
      const std::uint32_t i = pdev[p];
      if (std::abs(dev_w[i] - 2 * pox[p]) > 1e-12) fx_useful[i] = 1;
      if (std::abs(dev_h[i] - 2 * poy[p]) > 1e-12) fy_useful[i] = 1;
    }
    auto add_flip = [&](bool fixed_value) {
      const int var = lp.add_variable(0, 1, 0.0);
      if (fixed_flips == nullptr) {
        lp.set_integer(var);
      } else {
        const double f = fixed_value ? 1.0 : 0.0;
        lp.set_bounds(var, f, f);
      }
      return var;
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (fx_useful[i]) {
        vars.fx[i] = add_flip(fixed_flips && (*fixed_flips)[i].flip_x);
      }
      if (fy_useful[i]) {
        vars.fy[i] = add_flip(fixed_flips && (*fixed_flips)[i].flip_y);
      }
    }
  }
  add_net_boxes(lp, cc, gu, vars.dev, vars.fx, vars.fy);
  add_die_extents(lp, cc, gu, vars.dev);
  add_separation(lp, cc, gu, vars.dev, orders);
  add_symmetry(lp, cc, vars.dev);
  add_alignment(lp, cc, gu, vars.dev);
  add_centroid(lp, cc, vars.dev);
  return lp;
}

solver::MilpSolution IlpDetailedPlacer::solve_round(
    const std::vector<PairOrder>& orders,
    const std::vector<geom::Orientation>* fixed_flips, RoundVars& vars,
    IlpResult& result, long max_nodes) const {
  const solver::LpProblem lp = build_round(orders, fixed_flips, vars);
  solver::MilpOptions mopts;
  mopts.max_nodes = max_nodes > 0 ? max_nodes : opts_.max_nodes;
  mopts.deadline = opts_.deadline;
  mopts.cancel = opts_.cancel;
  solver::MilpSolution sol = solver::solve_milp(lp, mopts);
  result.status = sol.status;
  result.objective = sol.objective;
  result.bb_nodes += sol.nodes_explored;
  return sol;
}

void IlpDetailedPlacer::finish_placement(const solver::MilpSolution& sol,
                                         const RoundVars& vars,
                                         IlpResult& result) const {
  SolvedPlacement solved =
      placement_from_solution(compiled_->circuit(), sol.x, vars.dev,
                              kGridPitch, vars.fx, vars.fy);
  result.placement = std::move(solved.placement);
  result.snapped = solved.snapped;
}

}  // namespace aplace::legal
