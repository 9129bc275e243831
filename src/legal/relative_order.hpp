#pragma once
// Pairwise separation directions derived from a global-placement solution
// (paper Fig. 4a): for every device pair, decide whether legalization should
// separate them horizontally or vertically, and in which order.
//
// Overlapping pairs use the paper's rule — overlap width dx < dy goes to the
// horizontal set P^H (cheapest push), otherwise vertical. Non-overlapping
// pairs keep their current separating dimension (larger gap wins) so the
// optimizer cannot create *new* overlaps while compacting.

#include <optional>
#include <span>
#include <vector>

#include "netlist/circuit.hpp"

namespace aplace::legal {

struct PairOrder {
  DeviceId left_or_bottom;
  DeviceId right_or_top;
  bool horizontal = true;  ///< true: member of P^H, false: P^V
};

/// Derive a separation constraint for every device pair. Pairs whose
/// direction is forced by a constraint group (symmetry / alignment /
/// ordering) take that direction. Devices tied by an equality in one
/// dimension separate in the other; the rest follow the rules above.
[[nodiscard]] std::vector<PairOrder> derive_pair_orders(
    const netlist::Circuit& circuit, std::span<const double> positions);

/// Direction forced by a constraint group between two devices, if any:
/// true = must separate horizontally, false = vertically, nullopt = free.
[[nodiscard]] std::optional<bool> forced_direction(
    const netlist::Circuit& circuit, DeviceId a, DeviceId b);

/// Drop separation constraints implied transitively within one dimension:
/// a left-of b and b left-of c implies a left-of c with slack >= w_b > 0, so
/// the (a, c) edge is redundant. Cuts the all-pairs O(n^2) constraint set to
/// roughly the adjacency structure, which is what makes the LP/ILP solves
/// fast at analog sizes.
[[nodiscard]] std::vector<PairOrder> reduce_transitive(
    std::vector<PairOrder> orders, std::size_t num_devices);

}  // namespace aplace::legal
