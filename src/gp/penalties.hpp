#pragma once
// Soft analog-constraint penalties for global placement (paper Eq. 3).
//
//   Sym(v):   for devices i,j mirrored about a free axis m,
//             (orth_i - orth_j)^2 + (mir_i + mir_j - 2m)^2, and
//             (mir_r - m)^2 for self-symmetric devices. The axis position is
//             chosen optimally per evaluation (envelope theorem: its
//             gradient contribution vanishes at the optimum).
//   Align(v): squared alignment residuals (bottom / center alignment).
//   Order(v): squared hinge on monotone-order gap violations.
//   Bound(v): quadratic pull-back of device edges into the placement region
//             (keeps the density model's charges inside the domain).
//
// All terms iterate the CompiledCircuit's flattened constraint tables and
// flat device half-extents — no AoS constraint walking in the hot loop.

#include <span>

#include "geom/rect.hpp"
#include "netlist/compiled.hpp"

namespace aplace::gp {

class ConstraintPenalties {
 public:
  explicit ConstraintPenalties(netlist::CompiledRef compiled);

  /// Each evaluates at v = (x.., y..), adds scale * gradient, returns value.
  double symmetry(std::span<const double> v, std::span<double> grad,
                  double scale) const;
  double alignment(std::span<const double> v, std::span<double> grad,
                   double scale) const;
  double ordering(std::span<const double> v, std::span<double> grad,
                  double scale) const;
  /// Common-centroid quads: squared diagonal-sum mismatch in x and y.
  double common_centroid(std::span<const double> v, std::span<double> grad,
                         double scale) const;
  double boundary(std::span<const double> v, std::span<double> grad,
                  double scale, const geom::Rect& region) const;

  /// Project v so every symmetry group is exactly mirrored about its
  /// current optimal axis (used by the hard-constraint GP variant).
  void project_symmetry(std::span<double> v) const;

 private:
  netlist::CompiledRef compiled_;
  std::size_t n_;
};

}  // namespace aplace::gp
