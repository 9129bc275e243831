#pragma once
// Bell-shaped density penalty (NTUplace3, Chen et al. TCAD'08) used by the
// prior-work analytical placer [11].
//
// Each device spreads a smooth "potential" over nearby bins via the
// separable bell function p(d) (quadratic core, quadratic tail, compact
// support); the penalty is sum_b (D_b - M_b)^2 where D_b is the smoothed
// density of bin b and M_b the uniform expected density. Normalization
// constants c_i keep each device's total contribution equal to its area and
// are treated as constants in the gradient (as in NTUplace3).

#include <span>

#include "density/bin_grid.hpp"
#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"

namespace aplace::density {

/// Bell spreading profile for one dimension.
/// d = |center - bin_center|, w = device extent, wb = bin extent.
[[nodiscard]] double bell_value(double d, double w, double wb);
/// d(bell)/dd (negative for d > 0 inside the support).
[[nodiscard]] double bell_derivative(double d, double w, double wb);

class BellDensity {
 public:
  BellDensity(netlist::CompiledRef compiled, const geom::Rect& region,
              std::size_t nx, std::size_t ny, double target_density);

  [[nodiscard]] const BinGrid& grid() const { return grid_; }

  /// Penalty value at v; adds scale * gradient into grad. Refreshes
  /// overflow() (computed from true footprints, as in ElectroDensity).
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale);

  [[nodiscard]] double overflow() const { return overflow_; }

 private:
  /// Per-device bell support range on the bin grid.
  struct Support {
    std::size_t cx0, cx1, cy0, cy1;
  };

  netlist::CompiledRef compiled_;
  BinGrid grid_;
  double target_;
  // Device footprints, viewing the compiled snapshot's flat arrays.
  std::span<const double> dev_w_, dev_h_, dev_area_;
  double overflow_ = 1.0;
  // Evaluation scratch, hoisted so the CG hot loop stays allocation-free.
  numeric::Matrix dmat_, occ_, resid_;
  std::vector<double> norm_;
  std::vector<Support> support_;
};

}  // namespace aplace::density
