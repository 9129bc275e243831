#pragma once
// Scalar reference implementations of the placer's hot kernels, kept out
// of the production types: the placer runs one path per kernel, and these
// serial loops are what the parity tests compare it against, and what
// bench_micro_kernels times as its "scalar" and "naive" rows.
//
//  * wirelength_value_and_grad — WA/LSE smoothed wirelength over the
//    CompiledCircuit wirelength table, element by element with std::exp.
//  * build_density — per-bin BinGrid::splat of every device's effective
//    (inflated) and real footprint, then charge normalization and the
//    overflow metric, as density::ElectroDensity::build_density defines
//    them.
//  * overlap_force — the per-bin overlap-weighted force loop over an
//    ElectroDensity's last potential/field matrices.
//  * DenseBasis and dct2d/idct2d/isxcy2d/icxsy2d — O(n^2) dense cos/sin
//    basis transforms, the oracle of numeric::fft's FftPlan and its 2D
//    in-place passes (tests/numeric_test.cpp, tests/simd_test.cpp) and the
//    "spectral-naive" rows of bench_micro_kernels.
//  * pack_naive — the O(n^2) longest-path sequence-pair packer, the oracle
//    of SequencePair's LCS packer (tests/sa_test.cpp) and the
//    "seqpair-pack-naive" rows of bench_micro_kernels.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>
#include <vector>

#include "density/bin_grid.hpp"
#include "density/electro.hpp"
#include "geom/rect.hpp"
#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"
#include "sa/sequence_pair.hpp"

namespace aplace::oracle {

// ---- wirelength -------------------------------------------------------------

// Weighted-average smooth max minus smooth min over coords[0..k), with
// gradient d(WA)/d(coord_i) written to dcoord. Numerically stabilized by
// shifting exponents by the max/min coordinate: den_p/den_m always contain
// an exp(0) = 1 term, so no finite coordinate spread can overflow — extreme
// spreads only underflow far-away pins to weight 0.
inline double wa_extent_scalar(const double* coords, std::size_t k,
                               double gamma, double* dcoord) {
  const double cmax = *std::max_element(coords, coords + k);
  const double cmin = *std::min_element(coords, coords + k);

  double num_p = 0, den_p = 0, num_m = 0, den_m = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    const double ep = std::exp((c - cmax) / gamma);
    const double em = std::exp(-(c - cmin) / gamma);
    num_p += c * ep;
    den_p += ep;
    num_m += c * em;
    den_m += em;
  }
  const double f_max = num_p / den_p;
  const double f_min = num_m / den_m;

  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    const double ap = std::exp((c - cmax) / gamma) / den_p;
    const double am = std::exp(-(c - cmin) / gamma) / den_m;
    const double dmax = ap * (1.0 + (c - f_max) / gamma);
    const double dmin = am * (1.0 - (c - f_min) / gamma);
    dcoord[i] = dmax - dmin;
  }
  return f_max - f_min;
}

// LSE smooth extent: gamma*ln(sum e^{c/g}) + gamma*ln(sum e^{-c/g}).
inline double lse_extent_scalar(const double* coords, std::size_t k,
                                double gamma, double* dcoord) {
  const double cmax = *std::max_element(coords, coords + k);
  const double cmin = *std::min_element(coords, coords + k);

  double sp = 0, sm = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    sp += std::exp((c - cmax) / gamma);
    sm += std::exp(-(c - cmin) / gamma);
  }
  const double f_max = cmax + gamma * std::log(sp);
  const double f_min = cmin - gamma * std::log(sm);
  for (std::size_t i = 0; i < k; ++i) {
    const double c = coords[i];
    dcoord[i] = std::exp((c - cmax) / gamma) / sp -
                std::exp(-(c - cmin) / gamma) / sm;
  }
  return f_max - f_min;
}

enum class Smoothing { kWa, kLse };

/// Serial reference of SmoothWirelength::value_and_grad: evaluates the
/// smoothed weighted wirelength at v = (x.., y..) and *adds* its gradient
/// into grad.
inline double wirelength_value_and_grad(const netlist::CompiledCircuit& cc,
                                        Smoothing kind, double gamma,
                                        std::span<const double> v,
                                        std::span<double> grad) {
  const std::size_t n = cc.num_devices();
  std::vector<double> coords, dcoord;
  double total = 0;
  for (std::size_t ni = 0; ni < cc.num_wl_nets(); ++ni) {
    const std::span<const std::uint32_t> devs = cc.wl_pin_device(ni);
    const double weight = cc.wl_weight()[ni];
    for (const std::size_t dim : {std::size_t{0}, n}) {
      const std::span<const double> offs =
          dim == 0 ? cc.wl_pin_dx(ni) : cc.wl_pin_dy(ni);
      coords.resize(devs.size());
      dcoord.resize(devs.size());
      for (std::size_t i = 0; i < devs.size(); ++i) {
        coords[i] = v[dim + devs[i]] + offs[i];
      }
      total += weight * (kind == Smoothing::kWa
                             ? wa_extent_scalar(coords.data(), devs.size(),
                                                gamma, dcoord.data())
                             : lse_extent_scalar(coords.data(), devs.size(),
                                                 gamma, dcoord.data()));
      for (std::size_t i = 0; i < devs.size(); ++i) {
        grad[dim + devs[i]] += weight * dcoord[i];
      }
    }
  }
  return total;
}

// ---- electrostatic density --------------------------------------------------

/// Device i's effective (inflated to >= sqrt(2) bin pitch, charge-
/// preserving) and real footprints at v, centered at the nearest position
/// that keeps the effective footprint inside the region — the geometry
/// ElectroDensity splats and samples.
struct Footprints {
  geom::Rect eff, real;
};

inline Footprints footprints(const netlist::CompiledCircuit& cc,
                             const density::BinGrid& grid,
                             std::span<const double> v, std::size_t i) {
  const std::size_t n = cc.num_devices();
  const double real_w = cc.dev_width()[i], real_h = cc.dev_height()[i];
  const double w = std::max(real_w, std::numbers::sqrt2 * grid.bin_w());
  const double h = std::max(real_h, std::numbers::sqrt2 * grid.bin_h());
  const geom::Rect& rg = grid.region();
  auto clamp1 = [](double x, double lo, double hi) {
    return lo <= hi ? std::clamp(x, lo, hi) : 0.5 * (lo + hi);
  };
  const geom::Point c{clamp1(v[i], rg.xlo() + w / 2, rg.xhi() - w / 2),
                      clamp1(v[n + i], rg.ylo() + h / 2, rg.yhi() - h / 2)};
  return {geom::Rect::centered(c, w, h),
          geom::Rect::centered(c, real_w, real_h)};
}

/// Reference charge-density build: rho (charge per unit area, rows = y
/// bins) and occupancy (real footprint area per bin) at v, both overwritten.
/// Returns the overflow metric (occupancy beyond a full bin, normalized by
/// total device area).
inline double build_density(const netlist::CompiledCircuit& cc,
                            const density::BinGrid& grid,
                            std::span<const double> v, numeric::Matrix& rho,
                            numeric::Matrix& occupancy) {
  rho.fill(0.0);
  occupancy.fill(0.0);
  for (std::size_t i = 0; i < cc.num_devices(); ++i) {
    const Footprints f = footprints(cc, grid, v, i);
    grid.splat(f.eff, cc.dev_area()[i], rho);
    grid.splat(f.real, cc.dev_area()[i], occupancy);
  }
  for (double& x : rho.data()) x /= grid.bin_area();
  double over = 0;
  for (double o : occupancy.data()) over += std::max(0.0, o - grid.bin_area());
  const double total_area = cc.total_device_area();
  return total_area > 0 ? over / total_area : 0.0;
}

/// Reference force pass over ed's last potential/field matrices: per device,
/// overlap-weighted averages of psi/E_x/E_y across the bins its effective
/// footprint covers. Adds scale * dN/dv into grad and returns the energy N.
inline double overlap_force(const netlist::CompiledCircuit& cc,
                            const density::ElectroDensity& ed,
                            std::span<const double> v, std::span<double> grad,
                            double scale) {
  const std::size_t n = cc.num_devices();
  const density::BinGrid& grid = ed.grid();
  double energy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Rect rect = footprints(cc, grid, v, i).eff;
    const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
    const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
    double psi_acc = 0, ex_acc = 0, ey_acc = 0, area_acc = 0;
    for (std::size_t r = cy0; r <= cy1; ++r) {
      for (std::size_t c = cx0; c <= cx1; ++c) {
        const double ov = grid.bin_rect(r, c).overlap_area(rect);
        if (ov <= 0) continue;
        psi_acc += ov * ed.potential()(r, c);
        ex_acc += ov * ed.field_x()(r, c);
        ey_acc += ov * ed.field_y()(r, c);
        area_acc += ov;
      }
    }
    if (area_acc <= 0) continue;
    const double q_over_a = cc.dev_area()[i] / area_acc;
    energy += 0.5 * q_over_a * psi_acc;
    grad[i] += scale * (-q_over_a * ex_acc);
    grad[n + i] += scale * (-q_over_a * ey_acc);
  }
  return energy;
}

// ---- spectral transforms ----------------------------------------------------

/// Dense cos/sin basis of size n with the numeric::fft conventions:
///   dct            a_k = (2/n) w(k) sum_j v_j cos(pi k (2j+1) / (2n)),
///                  w(0) = 1/2, w(k>0) = 1
///   idct           v_j = sum_k a_k cos(pi k (2j+1) / (2n))
///   sine_synthesis s_j = sum_k a_k sin(pi k (2j+1) / (2n))
/// O(n^2) per transform over precomputed tables; any n >= 1.
class DenseBasis {
 public:
  explicit DenseBasis(std::size_t n) : n_(n), cos_(n * n), sin_(n * n) {
    const double pi = std::numbers::pi;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t j = 0; j < n; ++j) {
        const double arg = pi * static_cast<double>(k) *
                           (2.0 * static_cast<double>(j) + 1.0) /
                           (2.0 * static_cast<double>(n));
        cos_[k * n + j] = std::cos(arg);
        sin_[k * n + j] = std::sin(arg);
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return n_; }
  /// cos(pi k (2j+1) / (2n)).
  [[nodiscard]] double cosine(std::size_t k, std::size_t j) const {
    return cos_[k * n_ + j];
  }
  /// sin(pi k (2j+1) / (2n)).
  [[nodiscard]] double sine(std::size_t k, std::size_t j) const {
    return sin_[k * n_ + j];
  }

  [[nodiscard]] std::vector<double> dct(const std::vector<double>& v) const {
    std::vector<double> a(n_);
    for (std::size_t k = 0; k < n_; ++k) {
      double s = 0;
      for (std::size_t j = 0; j < n_; ++j) s += v[j] * cos_[k * n_ + j];
      const double w = (k == 0) ? 0.5 : 1.0;
      a[k] = (2.0 / static_cast<double>(n_)) * w * s;
    }
    return a;
  }

  [[nodiscard]] std::vector<double> idct(const std::vector<double>& a) const {
    return synthesize(a, cos_, 0);
  }

  /// a_0 is ignored (sin(0) = 0).
  [[nodiscard]] std::vector<double> sine_synthesis(
      const std::vector<double>& a) const {
    return synthesize(a, sin_, 1);
  }

 private:
  [[nodiscard]] std::vector<double> synthesize(const std::vector<double>& a,
                                               const std::vector<double>& table,
                                               std::size_t k0) const {
    std::vector<double> v(n_, 0.0);
    for (std::size_t k = k0; k < n_; ++k) {
      if (a[k] == 0.0) continue;
      for (std::size_t j = 0; j < n_; ++j) v[j] += a[k] * table[k * n_ + j];
    }
    return v;
  }

  std::size_t n_;
  std::vector<double> cos_, sin_;  // [k * n + j]
};

using DenseTransform =
    std::vector<double> (DenseBasis::*)(const std::vector<double>&) const;

/// Rows of m (x, with bx) then columns (y, with by), each copied into a
/// vector and transformed on the dense basis.
inline numeric::Matrix dense_2d(numeric::Matrix m, const DenseBasis& bx,
                                const DenseBasis& by, DenseTransform tx,
                                DenseTransform ty) {
  std::vector<double> line;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    line.resize(m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) line[c] = m(r, c);
    line = (bx.*tx)(line);
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = line[c];
  }
  for (std::size_t c = 0; c < m.cols(); ++c) {
    line.resize(m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r) line[r] = m(r, c);
    line = (by.*ty)(line);
    for (std::size_t r = 0; r < m.rows(); ++r) m(r, c) = line[r];
  }
  return m;
}

/// Reference of numeric::fft::dct2d_inplace.
inline numeric::Matrix dct2d(const numeric::Matrix& m, const DenseBasis& bx,
                             const DenseBasis& by) {
  return dense_2d(m, bx, by, &DenseBasis::dct, &DenseBasis::dct);
}

/// Reference of numeric::fft::idct2d_inplace.
inline numeric::Matrix idct2d(const numeric::Matrix& a, const DenseBasis& bx,
                              const DenseBasis& by) {
  return dense_2d(a, bx, by, &DenseBasis::idct, &DenseBasis::idct);
}

/// Reference of numeric::fft::isxcy2d_inplace.
inline numeric::Matrix isxcy2d(const numeric::Matrix& a, const DenseBasis& bx,
                               const DenseBasis& by) {
  return dense_2d(a, bx, by, &DenseBasis::sine_synthesis, &DenseBasis::idct);
}

/// Reference of numeric::fft::icxsy2d_inplace.
inline numeric::Matrix icxsy2d(const numeric::Matrix& a, const DenseBasis& bx,
                               const DenseBasis& by) {
  return dense_2d(a, bx, by, &DenseBasis::idct, &DenseBasis::sine_synthesis);
}

// ---- sequence-pair packing --------------------------------------------------

/// O(n^2) longest-path packing of sp: block c is left of b iff it precedes
/// b in both sequences, below b iff it succeeds b in gamma+ and precedes it
/// in gamma-. The same max/+ reductions over the same operand sets as
/// SequencePair::pack, so the coordinates are bit-identical.
inline sa::SequencePair::Packing pack_naive(
    const sa::SequencePair& sp, const std::vector<double>& widths,
    const std::vector<double>& heights) {
  const std::size_t n = sp.size();
  const std::vector<std::size_t>& minus = sp.gamma_minus();
  std::vector<std::size_t> pos_plus(n);
  for (std::size_t p = 0; p < n; ++p) pos_plus[sp.gamma_plus()[p]] = p;

  sa::SequencePair::Packing out;
  out.x.assign(n, 0.0);
  out.y.assign(n, 0.0);
  // Process blocks in gamma- order: every processed block that precedes
  // the current one in gamma+ is to its left, every one that succeeds it
  // is below.
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t b = minus[p];
    double x = 0;
    for (std::size_t q = 0; q < p; ++q) {
      const std::size_t c = minus[q];
      if (pos_plus[c] < pos_plus[b]) x = std::max(x, out.x[c] + widths[c]);
    }
    out.x[b] = x;
    out.width = std::max(out.width, x + widths[b]);
  }
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t b = minus[p];
    double y = 0;
    for (std::size_t q = 0; q < p; ++q) {
      const std::size_t c = minus[q];
      if (pos_plus[c] > pos_plus[b]) y = std::max(y, out.y[c] + heights[c]);
    }
    out.y[b] = y;
    out.height = std::max(out.height, y + heights[b]);
  }
  return out;
}

}  // namespace aplace::oracle
