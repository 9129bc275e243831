#pragma once
// The LP formulation shared by the ILP detailed placer of ePlace-A (paper
// Sec. IV-B, 4a-4j) and the two-stage LP legalizer of [11].
//
// Both legalizers place device centers on an integer grid of pitch `gu` um
// under the same constraint rows; they differ only in objective and
// flipping. Each builds its LP by calling one function per constraint
// family below, in its own fixed order (row order steers the simplex, so
// it is part of each legalizer's contract). The module also holds the
// steps around the solve: pair orders from the GP hand-off before it, the
// grid-snapped placement after it.

#include <span>
#include <vector>

#include "legal/relative_order.hpp"
#include "netlist/compiled.hpp"
#include "netlist/placement.hpp"
#include "solver/lp.hpp"

namespace aplace::legal {

/// LP variable indices of the device centers and layout extents (grid units).
struct DeviceVars {
  std::vector<int> x, y;
  int w = -1, h = -1;
};

/// Device centers x_i >= w_i/2, y_i >= h_i/2 (cost 0, added x/y per device),
/// then the extents W >= max w_i and H >= max h_i, each costing
/// `extent_cost`.
[[nodiscard]] DeviceVars add_device_vars(solver::LpProblem& lp,
                                         const netlist::CompiledCircuit& cc,
                                         double gu, double extent_cost);

/// (4b)+(4d): bound variables xmin, xmax, ymin, ymax per net (costs -w, +w,
/// -w, +w for net weight w), then per pin xmin <= x_pin <= xmax and
/// ymin <= y_pin <= ymax. `fx`/`fy` hold a flip variable per device (-1
/// where none) and add its term f * (w - 2 * pin offset); empty spans mean
/// no flipping.
void add_net_boxes(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                   double gu, const DeviceVars& v,
                   std::span<const int> fx = {}, std::span<const int> fy = {});

/// (4c): every device inside [0, W] x [0, H].
void add_die_extents(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                     double gu, const DeviceVars& v);

/// (4e)+(4i): one separation row per pair order.
void add_separation(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                    double gu, const DeviceVars& v,
                    const std::vector<PairOrder>& orders);

/// (4f): hard symmetry about a free axis variable per group.
void add_symmetry(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                  const DeviceVars& v);

/// (4g)+(4h): bottom and center alignment equalities.
void add_alignment(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                   double gu, const DeviceVars& v);

/// Common centroid: diagonal-sum equalities in x and y per quad.
void add_centroid(solver::LpProblem& lp, const netlist::CompiledCircuit& cc,
                  const DeviceVars& v);

/// Separation directions for every pair from a GP hand-off (x.., y.. in um):
/// the positions are sanitized and projected onto the symmetry, ordering
/// and centroid constraints first, and the orders transitively reduced.
[[nodiscard]] std::vector<PairOrder> start_orders(
    const netlist::Circuit& circuit, std::span<const double> gp_positions);

/// Separation directions for every pair re-derived from a solved LP,
/// transitively reduced.
[[nodiscard]] std::vector<PairOrder> solved_orders(
    const netlist::Circuit& circuit, std::span<const double> sol,
    const DeviceVars& v, double gu);

struct SolvedPlacement {
  netlist::Placement placement;
  bool snapped = false;  ///< coordinates are on the integer grid
};

/// Placement of a solved LP, normalized to the origin: coordinates snapped
/// to the grid, or left unsnapped (still feasible) when snapping would
/// break legality. Non-empty `fx`/`fy` (as in add_net_boxes) also set each
/// device's orientation from its flip variables.
[[nodiscard]] SolvedPlacement placement_from_solution(
    const netlist::Circuit& circuit, std::span<const double> sol,
    const DeviceVars& v, double gu, std::span<const int> fx = {},
    std::span<const int> fy = {});

}  // namespace aplace::legal
