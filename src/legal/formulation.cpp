#include "legal/formulation.hpp"

#include <algorithm>
#include <cmath>

#include "legal/projection.hpp"
#include "netlist/evaluator.hpp"

namespace aplace::legal {

using solver::Relation;

DeviceVars add_device_vars(solver::LpProblem& lp,
                           const netlist::CompiledCircuit& cc, double gu,
                           double extent_cost) {
  const std::size_t n = cc.num_devices();
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  DeviceVars v;
  v.x.resize(n);
  v.y.resize(n);
  double max_w = 0, max_h = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v.x[i] = lp.add_variable(dev_w[i] / gu / 2, solver::kInf, 0.0);
    v.y[i] = lp.add_variable(dev_h[i] / gu / 2, solver::kInf, 0.0);
    max_w = std::max(max_w, dev_w[i] / gu);
    max_h = std::max(max_h, dev_h[i] / gu);
  }
  v.w = lp.add_variable(max_w, solver::kInf, extent_cost);
  v.h = lp.add_variable(max_h, solver::kInf, extent_cost);
  return v;
}

void add_net_boxes(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                   double gu, const DeviceVars& v, std::span<const int> fx,
                   std::span<const int> fy) {
  const std::size_t ne = cc.num_nets();
  const std::span<const double> net_weight = cc.net_weight();
  const int first = static_cast<int>(lp.num_variables());
  for (std::size_t e = 0; e < ne; ++e) {
    const double w = net_weight[e];
    lp.add_variable(0, solver::kInf, -w);  // xmin
    lp.add_variable(0, solver::kInf, +w);  // xmax
    lp.add_variable(0, solver::kInf, -w);  // ymin
    lp.add_variable(0, solver::kInf, +w);  // ymax
  }

  const std::span<const std::uint32_t> pin_device = cc.pin_device();
  const std::span<const double> pin_off_x = cc.pin_offset_x();
  const std::span<const double> pin_off_y = cc.pin_offset_y();
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  // vmin <= pos + c0 [+ flip * dflip] <= vmax.
  auto bound = [&](int vmin, int vmax, int vpos, int vflip, double c0,
                   double dflip) {
    if (vflip >= 0 && dflip != 0.0) {
      lp.add_constraint({{vmin, 1.0}, {vpos, -1.0}, {vflip, -dflip}},
                        Relation::LessEq, c0);
      lp.add_constraint({{vpos, 1.0}, {vmax, -1.0}, {vflip, +dflip}},
                        Relation::LessEq, -c0);
    } else {
      lp.add_constraint({{vmin, 1.0}, {vpos, -1.0}}, Relation::LessEq, c0);
      lp.add_constraint({{vpos, 1.0}, {vmax, -1.0}}, Relation::LessEq, -c0);
    }
  };
  for (std::size_t e = 0; e < ne; ++e) {
    const int vnet = first + 4 * static_cast<int>(e);
    for (std::uint32_t pid : cc.net_pins(e)) {
      const std::size_t i = pin_device[pid];
      // Offsets from the device *center* in grid units; flipping adds
      // f * (w - 2*xpin).
      const double cx = (pin_off_x[pid] - dev_w[i] / 2) / gu;
      const double cy = (pin_off_y[pid] - dev_h[i] / 2) / gu;
      const double dx = (dev_w[i] - 2 * pin_off_x[pid]) / gu;
      const double dy = (dev_h[i] - 2 * pin_off_y[pid]) / gu;
      bound(vnet, vnet + 1, v.x[i], fx.empty() ? -1 : fx[i], cx, dx);
      bound(vnet + 2, vnet + 3, v.y[i], fy.empty() ? -1 : fy[i], cy, dy);
    }
  }
}

void add_die_extents(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                     double gu, const DeviceVars& v) {
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  for (std::size_t i = 0; i < cc.num_devices(); ++i) {
    lp.add_constraint({{v.x[i], 1.0}, {v.w, -1.0}}, Relation::LessEq,
                      -(dev_w[i] / gu) / 2);
    lp.add_constraint({{v.y[i], 1.0}, {v.h, -1.0}}, Relation::LessEq,
                      -(dev_h[i] / gu) / 2);
  }
}

void add_separation(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                    double gu, const DeviceVars& v,
                    const std::vector<PairOrder>& orders) {
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  for (const PairOrder& po : orders) {
    const std::size_t a = po.left_or_bottom.index();
    const std::size_t b = po.right_or_top.index();
    if (po.horizontal) {
      lp.add_constraint({{v.x[a], 1.0}, {v.x[b], -1.0}}, Relation::LessEq,
                        -(dev_w[a] / gu + dev_w[b] / gu) / 2);
    } else {
      lp.add_constraint({{v.y[a], 1.0}, {v.y[b], -1.0}}, Relation::LessEq,
                        -(dev_h[a] / gu + dev_h[b] / gu) / 2);
    }
  }
}

void add_symmetry(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                  const DeviceVars& v) {
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const bool vert = cc.sym_axis(g) == netlist::Axis::Vertical;
    const int vm = lp.add_variable(0, solver::kInf, 0.0);
    auto mir_var = [&](std::size_t d) { return vert ? v.x[d] : v.y[d]; };
    auto ort_var = [&](std::size_t d) { return vert ? v.y[d] : v.x[d]; };
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      lp.add_constraint(
          {{mir_var(pa[k]), 1.0}, {mir_var(pb[k]), 1.0}, {vm, -2.0}},
          Relation::Equal, 0.0);
      lp.add_constraint({{ort_var(pa[k]), 1.0}, {ort_var(pb[k]), -1.0}},
                        Relation::Equal, 0.0);
    }
    for (std::uint32_t d : cc.sym_self(g)) {
      lp.add_constraint({{mir_var(d), 1.0}, {vm, -1.0}}, Relation::Equal,
                        0.0);
    }
  }
}

void add_alignment(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                   double gu, const DeviceVars& v) {
  const std::span<const double> dev_h = cc.dev_height();
  for (std::size_t k = 0; k < cc.num_alignments(); ++k) {
    const std::size_t a = cc.align_a()[k], b = cc.align_b()[k];
    switch (cc.align_kind()[k]) {
      case netlist::AlignmentKind::Bottom:
        lp.add_constraint({{v.y[a], 1.0}, {v.y[b], -1.0}}, Relation::Equal,
                          (dev_h[a] / gu - dev_h[b] / gu) / 2);
        break;
      case netlist::AlignmentKind::VerticalCenter:
        lp.add_constraint({{v.x[a], 1.0}, {v.x[b], -1.0}}, Relation::Equal,
                          0.0);
        break;
      case netlist::AlignmentKind::HorizontalCenter:
        lp.add_constraint({{v.y[a], 1.0}, {v.y[b], -1.0}}, Relation::Equal,
                          0.0);
        break;
    }
  }
}

void add_centroid(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                  const DeviceVars& v) {
  for (std::size_t q = 0; q < cc.num_centroids(); ++q) {
    const std::size_t a1 = cc.cent_a1()[q], a2 = cc.cent_a2()[q];
    const std::size_t b1 = cc.cent_b1()[q], b2 = cc.cent_b2()[q];
    lp.add_constraint(
        {{v.x[a1], 1.0}, {v.x[a2], 1.0}, {v.x[b1], -1.0}, {v.x[b2], -1.0}},
        Relation::Equal, 0.0);
    lp.add_constraint(
        {{v.y[a1], 1.0}, {v.y[a2], 1.0}, {v.y[b1], -1.0}, {v.y[b2], -1.0}},
        Relation::Equal, 0.0);
  }
}

std::vector<PairOrder> start_orders(const netlist::Circuit& circuit,
                                    std::span<const double> gp_positions) {
  std::vector<double> start(gp_positions.begin(), gp_positions.end());
  sanitize_positions(circuit, start);
  project_symmetry(circuit, start);
  project_ordering(circuit, start);
  project_centroid(circuit, start);
  return reduce_transitive(derive_pair_orders(circuit, start),
                           circuit.num_devices());
}

std::vector<PairOrder> solved_orders(const netlist::Circuit& circuit,
                                     std::span<const double> sol,
                                     const DeviceVars& v, double gu) {
  const std::size_t n = circuit.num_devices();
  std::vector<double> pos(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = sol[v.x[i]] * gu;
    pos[n + i] = sol[v.y[i]] * gu;
  }
  return reduce_transitive(derive_pair_orders(circuit, pos), n);
}

SolvedPlacement placement_from_solution(const netlist::Circuit& circuit,
                                        std::span<const double> sol,
                                        const DeviceVars& v, double gu,
                                        std::span<const int> fx,
                                        std::span<const int> fy) {
  const std::size_t n = circuit.num_devices();
  auto build = [&](bool snap) {
    netlist::Placement pl(circuit);
    for (std::size_t i = 0; i < n; ++i) {
      double x = sol[v.x[i]];
      double y = sol[v.y[i]];
      if (snap) {
        x = std::round(x);
        y = std::round(y);
      }
      pl.set_position(DeviceId{i}, {x * gu, y * gu});
      if (!fx.empty()) {
        pl.set_orientation(DeviceId{i}, {fx[i] >= 0 && sol[fx[i]] > 0.5,
                                         fy[i] >= 0 && sol[fy[i]] > 0.5});
      }
    }
    pl.normalize_to_origin();
    return pl;
  };
  // Snap to the grid; keep the raw (feasible) solution if snapping breaks
  // legality (possible when the LP optimum is fractional).
  SolvedPlacement out{build(true), true};
  if (!netlist::Evaluator(circuit).evaluate(out.placement).legal(1e-6)) {
    out.placement = build(false);
    out.snapped = false;
  }
  return out;
}

}  // namespace aplace::legal
