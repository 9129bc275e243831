#include "wirelength/area_term.hpp"

#include <algorithm>
#include <cmath>

namespace aplace::wirelength {
namespace {

// WA smooth extent over edge coordinates; every device owns two edges whose
// derivative w.r.t. the device center is 1. Returns extent; writes d/dcenter.
double wa_edge_extent(std::span<const double> centers,
                      std::span<const double> half, double gamma,
                      std::vector<double>& dcenter) {
  const std::size_t n = centers.size();
  dcenter.assign(n, 0.0);

  double cmax = -1e300, cmin = 1e300;
  for (std::size_t i = 0; i < n; ++i) {
    cmax = std::max(cmax, centers[i] + half[i]);
    cmin = std::min(cmin, centers[i] - half[i]);
  }

  double num_p = 0, den_p = 0, num_m = 0, den_m = 0;
  auto acc = [&](double c) {
    const double ep = std::exp((c - cmax) / gamma);
    const double em = std::exp(-(c - cmin) / gamma);
    num_p += c * ep;
    den_p += ep;
    num_m += c * em;
    den_m += em;
  };
  for (std::size_t i = 0; i < n; ++i) {
    acc(centers[i] - half[i]);
    acc(centers[i] + half[i]);
  }
  const double f_max = num_p / den_p;
  const double f_min = num_m / den_m;

  for (std::size_t i = 0; i < n; ++i) {
    for (const double c : {centers[i] - half[i], centers[i] + half[i]}) {
      const double ap = std::exp((c - cmax) / gamma) / den_p;
      const double am = std::exp(-(c - cmin) / gamma) / den_m;
      dcenter[i] += ap * (1.0 + (c - f_max) / gamma) -
                    am * (1.0 - (c - f_min) / gamma);
    }
  }
  return f_max - f_min;
}

}  // namespace

WaAreaTerm::WaAreaTerm(netlist::CompiledRef compiled)
    : compiled_(std::move(compiled)),
      n_(compiled_->num_devices()),
      half_w_(compiled_->dev_half_width()),
      half_h_(compiled_->dev_half_height()) {}

double WaAreaTerm::value_and_grad(std::span<const double> v,
                                  std::span<double> grad, double scale) const {
  APLACE_DCHECK(v.size() == 2 * n_ && grad.size() == v.size());
  const double wx = wa_edge_extent(v.subspan(0, n_), half_w_, gamma_, dx_);
  const double wy = wa_edge_extent(v.subspan(n_, n_), half_h_, gamma_, dy_);
  for (std::size_t i = 0; i < n_; ++i) {
    grad[i] += scale * dx_[i] * wy;
    grad[n_ + i] += scale * wx * dy_[i];
  }
  return wx * wy;
}

double WaAreaTerm::exact_area(std::span<const double> v) const {
  double xlo = 1e300, xhi = -1e300, ylo = 1e300, yhi = -1e300;
  for (std::size_t i = 0; i < n_; ++i) {
    xlo = std::min(xlo, v[i] - half_w_[i]);
    xhi = std::max(xhi, v[i] + half_w_[i]);
    ylo = std::min(ylo, v[n_ + i] - half_h_[i]);
    yhi = std::max(yhi, v[n_ + i] + half_h_[i]);
  }
  return (xhi - xlo) * (yhi - ylo);
}

}  // namespace aplace::wirelength
