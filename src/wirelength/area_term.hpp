#pragma once
// Smoothed layout-area term Area(v) = WA_x(v) * WA_y(v) (paper Sec. IV-A).
//
// WA_x smooths the horizontal extent max_{i,j} |x_i - x_j| over all device
// *edges* (each device contributes its left and right edge so footprints are
// respected), WA_y the vertical extent; the product approximates the layout
// bounding-box area. Analog placement optimizes this explicitly — dropping
// it costs >20% area and HPWL (paper Fig. 2).

#include <span>

#include "netlist/compiled.hpp"

namespace aplace::wirelength {

class WaAreaTerm {
 public:
  explicit WaAreaTerm(netlist::CompiledRef compiled);

  void set_gamma(double gamma) {
    APLACE_CHECK(gamma > 0);
    gamma_ = gamma;
  }
  [[nodiscard]] double gamma() const { return gamma_; }

  /// Smoothed area at v; adds scale * d(Area)/dv into grad.
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) const;

  /// Exact bounding-box area over device rectangles at v.
  [[nodiscard]] double exact_area(std::span<const double> v) const;

 private:
  netlist::CompiledRef compiled_;
  std::size_t n_;
  // Device half-extents, viewing the compiled snapshot's flat arrays.
  std::span<const double> half_w_, half_h_;
  // Per-axis edge-derivative scratch, hoisted so the optimizer hot loop
  // stays allocation-free (assign() below reuses the capacity).
  mutable std::vector<double> dx_, dy_;
  double gamma_ = 1.0;
};

}  // namespace aplace::wirelength
