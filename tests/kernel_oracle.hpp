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
//    ElectroDensity's last field matrices and a potential matrix, and
//    synthesized_potential — that potential, built on the dense basis
//    from the last charge density (ElectroDensity itself only computes
//    the energy, by Parseval).
//  * DenseBasis and dct2d/idct2d/isxcy2d/icxsy2d — O(n^2) dense cos/sin
//    basis transforms, the accuracy oracle of numeric::fft's FftPlan and
//    its 2D in-place passes (tests/numeric_test.cpp, tests/simd_test.cpp)
//    and the "spectral-naive" rows of bench_micro_kernels.
//  * LineFftPlan and line_dct2d/idct2d/isxcy2d/icxsy2d — strided
//    one-line-at-a-time FFT transforms, the bit-identity oracle of
//    numeric::fft's four-line batched passes (tests/numeric_test.cpp).
//  * pack_naive — the O(n^2) longest-path sequence-pair packer, the oracle
//    of SequencePair's LCS packer (tests/sa_test.cpp) and the
//    "seqpair-pack-naive" rows of bench_micro_kernels.
//  * ReferenceChain and reference_anneal — sa::SaPlacer's annealing loop
//    as it ran before it skipped the extra cost term on moves the
//    Metropolis test rejects anyway: the term on every move, the test on
//    the full cost. The bit-identity oracle of that skip
//    (tests/sa_test.cpp, tests/flow_test.cpp).
//  * DenseGnn — the GNN on a dense n x n A~, a full feature matrix and
//    numeric::Matrix products for every layer, the bitwise oracle of
//    gnn::CircuitGraph + gnn::GnnModel (tests/gnn_test.cpp) and the
//    "oracle" column of bench_micro_kernels' GNN table.
//  * ColdBranchAndBound — depth-first branch-and-bound that solves every
//    node's LP cold with solve_lp(), as solve_milp() did per block before
//    its nodes were re-solved warm; the oracle of the warm search
//    (tests/solver_test.cpp).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "density/bin_grid.hpp"
#include "density/electro.hpp"
#include "geom/rect.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"
#include "sa/annealer.hpp"
#include "sa/sequence_pair.hpp"
#include "solver/lp.hpp"
#include "solver/milp.hpp"

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

/// Reference force pass: per device, overlap-weighted averages of the
/// potential psi and of ed's last field matrices across the bins its
/// effective footprint covers. Adds scale * dN/dv into grad and returns the
/// energy N = 1/2 sum_i q_i psi_i. ElectroDensity takes its energy from the
/// DCT coefficients and never forms psi; synthesized_potential() below
/// builds it from ed's charge density.
inline double overlap_force(const netlist::CompiledCircuit& cc,
                            const density::ElectroDensity& ed,
                            const numeric::Matrix& psi,
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
        psi_acc += ov * psi(r, c);
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

/// Cosine synthesis along x and y (the exact inverse of dct2d); builds the
/// potential in synthesized_potential() and checks round trips.
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

/// The electrostatic potential of ed's last charge density,
/// psi = sum_{(u,v) != (0,0)} a_{u,v} / (w_u^2 + w_v^2) cos(w_u x) cos(w_v y),
/// with a = dct2d(rho) and w_u = pi u / (nx bin_w), w_v = pi v / (ny bin_h),
/// analysed and synthesized on the dense basis.
inline numeric::Matrix synthesized_potential(
    const density::ElectroDensity& ed) {
  const density::BinGrid& grid = ed.grid();
  const std::size_t nx = grid.nx(), ny = grid.ny();
  const DenseBasis bx(nx), by(ny);
  numeric::Matrix a = dct2d(ed.rho(), bx, by);
  const double pi = std::numbers::pi;
  for (std::size_t r = 0; r < ny; ++r) {
    const double wv = pi * static_cast<double>(r) / static_cast<double>(ny) /
                      grid.bin_h();
    for (std::size_t c = 0; c < nx; ++c) {
      const double wu = pi * static_cast<double>(c) /
                        static_cast<double>(nx) / grid.bin_w();
      const double w2 = wu * wu + wv * wv;
      a(r, c) = w2 > 0 ? a(r, c) / w2 : 0.0;
    }
  }
  return idct2d(a, bx, by);
}

/// One-line-at-a-time radix-2 FFT transforms with numeric::fft's
/// conventions, strided so one plan runs the rows (stride 1) and the
/// columns (stride = row length) of a row-major matrix. Plain scalar loops:
/// each line is copied into scratch through the Makhoul permutation,
/// bit-reversed by swaps, then run through the butterfly stages one stage
/// at a time. Every lane of numeric::fft::FftPlan's four-line batches
/// performs exactly these floating-point operations in this order, so the
/// two agree bit for bit (tests/numeric_test.cpp). Any power-of-two n >= 2.
class LineFftPlan {
 public:
  explicit LineFftPlan(std::size_t n)
      : n_(n), rev_(n), wre_(n - 1), wim_(n - 1), qre_(n), qim_(n), re_(n),
        im_(n) {
    const double pi = std::numbers::pi;
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n) ++log2n;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2n; ++b) {
        r |= ((i >> b) & 1) << (log2n - 1 - b);
      }
      rev_[i] = r;
    }
    for (std::size_t half = 1; half < n; half <<= 1) {
      for (std::size_t m = 0; m < half; ++m) {
        const double ang =
            pi * static_cast<double>(m) / static_cast<double>(half);
        wre_[half - 1 + m] = std::cos(ang);
        wim_[half - 1 + m] = -std::sin(ang);
      }
    }
    for (std::size_t k = 0; k < n; ++k) {
      const double ang =
          pi * static_cast<double>(k) / (2.0 * static_cast<double>(n));
      qre_[k] = std::cos(ang);
      qim_[k] = std::sin(ang);
    }
  }

  [[nodiscard]] std::size_t size() const { return n_; }

  // Each transform reads n values at in[t * in_stride] and writes n values
  // at out[t * out_stride]; in == out is fine.

  void dct2(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const {
    const std::size_t h = n_ / 2;
    for (std::size_t j = 0; j < h; ++j) {
      re_[j] = in[(2 * j) * in_stride];
      re_[n_ - 1 - j] = in[(2 * j + 1) * in_stride];
    }
    std::fill(im_.begin(), im_.end(), 0.0);
    transform(false);
    const double s = 2.0 / static_cast<double>(n_);
    out[0] = (0.5 * s) * re_[0];
    for (std::size_t k = 1; k < n_; ++k) {
      out[k * out_stride] = s * (qre_[k] * re_[k] + qim_[k] * im_[k]);
    }
  }

  void dct3(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const {
    re_[0] = in[0];
    im_[0] = 0.0;
    for (std::size_t k = 1; k < n_; ++k) {
      const double x = 0.5 * in[k * in_stride];
      const double y = 0.5 * in[(n_ - k) * in_stride];
      re_[k] = qre_[k] * x + qim_[k] * y;
      im_[k] = qim_[k] * x - qre_[k] * y;
    }
    synthesize(out, out_stride, 1.0);
  }

  void dst3(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const {
    re_[0] = 0.0;
    im_[0] = 0.0;
    for (std::size_t k = 1; k < n_; ++k) {
      const double x = 0.5 * in[(n_ - k) * in_stride];
      const double y = 0.5 * in[k * in_stride];
      re_[k] = qre_[k] * x + qim_[k] * y;
      im_[k] = qim_[k] * x - qre_[k] * y;
    }
    synthesize(out, out_stride, -1.0);
  }

 private:
  void transform(bool inverse) const {
    for (std::size_t i = 0; i < n_; ++i) {
      const std::size_t j = rev_[i];
      if (i < j) {
        std::swap(re_[i], re_[j]);
        std::swap(im_[i], im_[j]);
      }
    }
    for (std::size_t half = 1; half < n_; half <<= 1) {
      const std::size_t len = half << 1;
      for (std::size_t start = 0; start < n_; start += len) {
        for (std::size_t m = 0; m < half; ++m) {
          const std::size_t i = start + m;
          const std::size_t j = i + half;
          const double wr = wre_[half - 1 + m];
          const double wi = inverse ? -wim_[half - 1 + m] : wim_[half - 1 + m];
          const double tr = wr * re_[j] - wi * im_[j];
          const double ti = wr * im_[j] + wi * re_[j];
          re_[j] = re_[i] - tr;
          im_[j] = im_[i] - ti;
          re_[i] += tr;
          im_[i] += ti;
        }
      }
    }
  }

  void synthesize(double* out, std::size_t out_stride, double sign) const {
    transform(true);
    const std::size_t h = n_ / 2;
    for (std::size_t j = 0; j < h; ++j) {
      out[(2 * j) * out_stride] = re_[j];
      out[(2 * j + 1) * out_stride] = sign * re_[n_ - 1 - j];
    }
  }

  std::size_t n_;
  std::vector<std::size_t> rev_;
  std::vector<double> wre_, wim_, qre_, qim_;
  mutable std::vector<double> re_, im_;
};

using LineTransform = void (LineFftPlan::*)(const double*, std::size_t,
                                            double*, std::size_t) const;

/// Rows of m with px (tx), then columns with py (ty), one line at a time in
/// place: the pass numeric::fft's 2D transforms batch four lines at a time.
inline numeric::Matrix line_2d(numeric::Matrix m, const LineFftPlan& px,
                               const LineFftPlan& py, LineTransform tx,
                               LineTransform ty) {
  double* d = m.data().data();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    (px.*tx)(d + r * cols, 1, d + r * cols, 1);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    (py.*ty)(d + c, cols, d + c, cols);
  }
  return m;
}

/// Per-line reference of numeric::fft::dct2d_inplace.
inline numeric::Matrix line_dct2d(const numeric::Matrix& m,
                                  const LineFftPlan& px,
                                  const LineFftPlan& py) {
  return line_2d(m, px, py, &LineFftPlan::dct2, &LineFftPlan::dct2);
}

/// Cosine synthesis along x and y (exact inverse of line_dct2d). The
/// Poisson solve never synthesizes the potential, so production has no
/// counterpart; round-trip tests use this one.
inline numeric::Matrix line_idct2d(const numeric::Matrix& a,
                                   const LineFftPlan& px,
                                   const LineFftPlan& py) {
  return line_2d(a, px, py, &LineFftPlan::dct3, &LineFftPlan::dct3);
}

/// Per-line reference of numeric::fft::isxcy2d_inplace.
inline numeric::Matrix line_isxcy2d(const numeric::Matrix& a,
                                    const LineFftPlan& px,
                                    const LineFftPlan& py) {
  return line_2d(a, px, py, &LineFftPlan::dst3, &LineFftPlan::dct3);
}

/// Per-line reference of numeric::fft::icxsy2d_inplace.
inline numeric::Matrix line_icxsy2d(const numeric::Matrix& a,
                                    const LineFftPlan& px,
                                    const LineFftPlan& py) {
  return line_2d(a, px, py, &LineFftPlan::dct3, &LineFftPlan::dst3);
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

// ---- simulated annealing ----------------------------------------------------

/// What reference_anneal reports: the sa::SaResult fields it fills.
struct ReferenceAnneal {
  netlist::Placement placement;
  double cost = 0.0;
  long moves_evaluated = 0;
  long moves_accepted = 0;
};

/// One chain of sa::SaPlacer as it annealed before its move loop skipped
/// extra_cost: the same blocks, moves, IncrementalCost protocol and
/// schedule, with extra_cost (when set) called on every move and the
/// Metropolis test `delta <= 0 || u < exp(-delta / T)` on the full cost.
/// The deadline and cancellation are not polled. Run once per instance.
class ReferenceChain {
 public:
  ReferenceChain(const netlist::CompiledRef& compiled, sa::SaOptions opts)
      : compiled_(compiled), opts_(std::move(opts)), engine_(compiled) {
    const netlist::Circuit& circuit = compiled_->circuit();
    const std::size_t n = circuit.num_devices();
    single_block_of_.assign(n, kNoBlock);
    orient_.assign(n, {});
    std::vector<char> in_island(n, 0);
    for (const netlist::SymmetryGroup& g :
         circuit.constraints().symmetry_groups) {
      islands_.emplace_back(circuit, g);
      for (const sa::Island::Member& m : islands_.back().members()) {
        in_island[m.device.index()] = 1;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!in_island[i]) singles_.push_back(DeviceId{i});
    }
    const std::size_t nb = islands_.size() + singles_.size();
    w_.resize(nb);
    h_.resize(nb);
    for (std::size_t b = 0; b < islands_.size(); ++b) {
      w_[b] = islands_[b].width();
      h_[b] = islands_[b].height();
    }
    for (std::size_t s = 0; s < singles_.size(); ++s) {
      const std::size_t b = islands_.size() + s;
      const netlist::Device& d = circuit.device(singles_[s]);
      w_[b] = d.width;
      h_[b] = d.height;
      single_block_of_[singles_[s].index()] = b;
    }
    single_scratch_.resize(1);
    engine_.configure_blocks(block_members());
  }

  ReferenceAnneal run(std::uint64_t chain_seed) {
    numeric::Rng rng(chain_seed);
    const std::size_t nb = w_.size();
    sp_ = sa::SequencePair(nb);
    sp_.shuffle(rng);
    sp_.pack_into(w_, h_, pack_);

    netlist::Placement pl(compiled_->circuit());
    realize(pl);
    const double hpwl0 = std::max(pl.total_hpwl(), 1e-9);
    const double area0 = std::max(pack_.width * pack_.height, 1e-9);
    const double penalty0 = std::max(std::sqrt(area0), 1e-9);
    engine_.set_weights({opts_.area_weight, opts_.constraint_weight, hpwl0,
                         area0, penalty0});
    engine_.reset(block_members(), pack_.x.data(), pack_.y.data(),
                  pack_.width, pack_.height);

    double cur_cost = engine_.cost();
    if (opts_.extra_cost) cur_cost += opts_.extra_cost(engine_.placement());
    ReferenceAnneal best{pl, cur_cost};

    std::vector<double> deltas;
    if (nb >= 2) {
      for (int k = 0; k < 40; ++k) {
        Move mv;
        mv.kind = 1;
        mv.i = draw_index(rng, nb);
        mv.j = draw_distinct(rng, mv.i, nb);
        sp_.swap_in_both(mv.i, mv.j);
        stage_trial(mv);
        double probe = engine_.trial_cost();
        if (opts_.extra_cost) {
          probe += opts_.extra_cost(engine_.trial_placement());
        }
        engine_.rollback();
        sp_.swap_in_both(mv.i, mv.j);
        deltas.push_back(std::abs(probe - cur_cost));
      }
    }
    double t0 = 0.3;
    if (!deltas.empty()) {
      double mean = 0;
      for (double d : deltas) mean += d;
      mean /= static_cast<double>(deltas.size());
      t0 = std::max(mean * 1.5, 1e-6);
    }

    double temp = t0;
    const double t_stop = t0 * opts_.stop_temperature_ratio;
    const long moves_per_temp =
        static_cast<long>(opts_.moves_per_temp_per_block) *
        static_cast<long>(std::max<std::size_t>(nb, 1));
    long moves = 0;
    while (temp > t_stop) {
      for (long m = 0; m < moves_per_temp; ++m) {
        if (opts_.max_moves > 0 && moves >= opts_.max_moves) break;
        const Move mv = propose_move(rng);
        if (mv.kind < 0) continue;
        ++moves;
        stage_trial(mv);
        double new_cost = engine_.trial_cost();
        if (opts_.extra_cost) {
          new_cost += opts_.extra_cost(engine_.trial_placement());
        }
        const double delta = new_cost - cur_cost;
        const bool accept =
            delta <= 0 || rng.uniform() < std::exp(-delta / temp);
        if (accept) {
          cur_cost = new_cost;
          ++best.moves_accepted;
          engine_.commit();
          if (mv.kind == 0 || mv.kind == 1) std::swap(pack_, pack_trial_);
          if (new_cost < best.cost) {
            best.cost = new_cost;
            best.placement = engine_.placement();
          }
        } else {
          engine_.rollback();
          undo_move(mv);
        }
      }
      if (opts_.max_moves > 0 && moves >= opts_.max_moves) break;
      temp *= opts_.cooling;
    }
    best.moves_evaluated = moves;
    best.placement.normalize_to_origin();
    return best;
  }

 private:
  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

  struct Move {
    int kind = -1;  ///< 0 swap+, 1 swap both, 2 flip, 3 row swap, 4 mirror
    std::size_t i = 0, j = 0;
    std::size_t isl = 0, r1 = 0, r2 = 0;
    DeviceId flip_dev;
    bool flip_axis_x = false;
  };

  static std::size_t draw_index(numeric::Rng& rng, std::size_t count) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(count) - 1));
  }
  static std::size_t draw_distinct(numeric::Rng& rng, std::size_t i,
                                   std::size_t count) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const std::size_t j = draw_index(rng, count);
      if (j != i) return j;
    }
    return (i + 1) % count;
  }

  std::vector<std::vector<sa::Island::Member>> block_members() const {
    std::vector<std::vector<sa::Island::Member>> blocks(w_.size());
    for (std::size_t b = 0; b < islands_.size(); ++b) {
      blocks[b] = islands_[b].members();
    }
    for (std::size_t s = 0; s < singles_.size(); ++s) {
      const std::size_t b = islands_.size() + s;
      const DeviceId dev = singles_[s];
      blocks[b] = {sa::Island::Member{
          dev, {w_[b] / 2, h_[b] / 2}, orient_[dev.index()]}};
    }
    return blocks;
  }

  void realize(netlist::Placement& pl) const {
    for (std::size_t b = 0; b < islands_.size(); ++b) {
      const geom::Point origin{pack_.x[b], pack_.y[b]};
      for (const sa::Island::Member& m : islands_[b].members()) {
        pl.set_position(m.device, origin + m.center);
        pl.set_orientation(m.device, m.orientation);
      }
    }
    for (std::size_t s = 0; s < singles_.size(); ++s) {
      const std::size_t b = islands_.size() + s;
      const DeviceId dev = singles_[s];
      pl.set_position(dev,
                      {pack_.x[b] + w_[b] / 2, pack_.y[b] + h_[b] / 2});
      pl.set_orientation(dev, orient_[dev.index()]);
    }
  }

  Move propose_move(numeric::Rng& rng) {
    const std::size_t nb = w_.size();
    Move mv;
    const int kind = rng.uniform_int(0, 99);
    if (kind < 35 && nb >= 2) {
      mv.i = draw_index(rng, nb);
      mv.j = draw_distinct(rng, mv.i, nb);
      sp_.swap_in_plus(mv.i, mv.j);
      mv.kind = 0;
    } else if (kind < 70 && nb >= 2) {
      mv.i = draw_index(rng, nb);
      mv.j = draw_distinct(rng, mv.i, nb);
      sp_.swap_in_both(mv.i, mv.j);
      mv.kind = 1;
    } else if (kind < 85 && !singles_.empty()) {
      mv.flip_dev = singles_[draw_index(rng, singles_.size())];
      mv.flip_axis_x = rng.bernoulli();
      flip(mv);
      mv.kind = 2;
    } else if (!islands_.empty()) {
      mv.isl = draw_index(rng, islands_.size());
      sa::Island& island = islands_[mv.isl];
      if (island.num_rows() >= 2 && rng.bernoulli()) {
        mv.r1 = draw_index(rng, island.num_rows());
        mv.r2 = draw_distinct(rng, mv.r1, island.num_rows());
        island.swap_rows(mv.r1, mv.r2);
        mv.kind = 3;
      } else {
        mv.r1 = draw_index(rng, island.num_rows());
        island.mirror_row(mv.r1);
        mv.kind = 4;
      }
    }
    return mv;
  }

  void flip(const Move& mv) {
    geom::Orientation& o = orient_[mv.flip_dev.index()];
    if (mv.flip_axis_x) o.flip_x = !o.flip_x;
    else o.flip_y = !o.flip_y;
  }

  void undo_move(const Move& mv) {
    switch (mv.kind) {
      case 0: sp_.swap_in_plus(mv.i, mv.j); break;
      case 1: sp_.swap_in_both(mv.i, mv.j); break;
      case 2: flip(mv); break;
      case 3: islands_[mv.isl].swap_rows(mv.r1, mv.r2); break;
      case 4: islands_[mv.isl].mirror_row(mv.r1); break;
      default: break;
    }
  }

  void stage_trial(const Move& mv) {
    if (mv.kind == 0 || mv.kind == 1) {
      sp_.pack_into(w_, h_, pack_trial_);
      engine_.begin_trial(pack_trial_.x.data(), pack_trial_.y.data(),
                          pack_trial_.width, pack_trial_.height);
    } else {
      engine_.begin_trial(pack_.x.data(), pack_.y.data(), pack_.width,
                          pack_.height);
    }
    if (mv.kind == 3 || mv.kind == 4) {
      islands_[mv.isl].members_into(member_scratch_);
      engine_.refresh_block(mv.isl, member_scratch_);
    } else if (mv.kind == 2) {
      const std::size_t b = single_block_of_[mv.flip_dev.index()];
      single_scratch_[0] = sa::Island::Member{
          mv.flip_dev, {w_[b] / 2, h_[b] / 2}, orient_[mv.flip_dev.index()]};
      engine_.refresh_block(b, single_scratch_);
    }
  }

  netlist::CompiledRef compiled_;
  sa::SaOptions opts_;
  std::vector<sa::Island> islands_;
  std::vector<DeviceId> singles_;
  std::vector<std::size_t> single_block_of_;
  std::vector<double> w_, h_;
  std::vector<geom::Orientation> orient_;
  sa::SequencePair sp_{0};
  sa::SequencePair::Packing pack_, pack_trial_;
  sa::IncrementalCost engine_;
  std::vector<sa::Island::Member> member_scratch_, single_scratch_;
};

/// sa::SaPlacer::place() over ReferenceChain: chain c on split_seed(seed,
/// c), one after another, the lowest final cost winning (ties: lowest
/// chain index), move counts summed over chains.
inline ReferenceAnneal reference_anneal(const netlist::CompiledRef& compiled,
                                        const sa::SaOptions& opts) {
  std::optional<ReferenceAnneal> best;
  long moves = 0, accepts = 0;
  for (int c = 0; c < std::max(opts.num_chains, 1); ++c) {
    ReferenceAnneal r = ReferenceChain(compiled, opts).run(
        numeric::split_seed(opts.seed, static_cast<std::uint64_t>(c)));
    moves += r.moves_evaluated;
    accepts += r.moves_accepted;
    if (!best || r.cost < best->cost) best = std::move(r);
  }
  best->moves_evaluated = moves;
  best->moves_accepted = accepts;
  return std::move(*best);
}

// ---- GNN --------------------------------------------------------------------

/// The dense forward/backward gnn::GnnModel ran before its sparse kernel:
/// A~ as a dense n x n matrix, the full feature matrix per evaluation and
/// a numeric::Matrix product (zero-skipping over ascending k) for every
/// layer. Built from the same compiled circuit, coordinate scale and
/// parameter vector as a CircuitGraph/GnnModel pair, it agrees with them
/// bit for bit.
class DenseGnn {
 public:
  static constexpr std::size_t kHidden = gnn::kHiddenDim;
  static constexpr std::size_t kMlp = gnn::kMlpDim;

  struct Features {
    numeric::Matrix x;  ///< n x kFeatureDim
    std::vector<double> lap_sign_x, lap_sign_y;
  };
  struct Activations {
    numeric::Matrix x, ax, a1, h1, ah1, a2, h2;
    std::vector<double> g, a3, u;
    double logit = 0, phi = 0;
  };

  DenseGnn(const netlist::CompiledCircuit& cc, double coord_scale,
           std::span<const double> params)
      : n_(cc.num_devices()),
        scale_(coord_scale),
        adj_(n_, n_),
        static_features_(n_, gnn::kFeatureDim),
        w1_(gnn::kFeatureDim, kHidden),
        w2_(kHidden, kHidden),
        w3_(kHidden, kMlp),
        b1_(kHidden),
        b2_(kHidden),
        b3_(kMlp),
        w4_(kMlp) {
    // Clique for nets with <= 6 devices, star from the first otherwise;
    // self loops; row normalization.
    numeric::Matrix a(n_, n_);
    std::vector<double> degree(n_, 0.0);
    for (std::size_t ni = 0; ni < cc.num_nets(); ++ni) {
      const std::span<const std::uint32_t> devs = cc.net_devices(ni);
      if (devs.size() < 2) continue;
      auto connect = [&](std::size_t u, std::size_t w) {
        if (u == w) return;
        a(u, w) = 1.0;
        a(w, u) = 1.0;
      };
      if (devs.size() <= 6) {
        for (std::size_t i = 0; i < devs.size(); ++i)
          for (std::size_t j = i + 1; j < devs.size(); ++j)
            connect(devs[i], devs[j]);
      } else {
        for (std::size_t j = 1; j < devs.size(); ++j) connect(devs[0], devs[j]);
      }
    }
    for (std::size_t i = 0; i < n_; ++i) a(i, i) = 1.0;
    for (std::size_t i = 0; i < n_; ++i) {
      double row = 0;
      for (std::size_t j = 0; j < n_; ++j) row += a(i, j);
      for (std::size_t j = 0; j < n_; ++j) adj_(i, j) = a(i, j) / row;
      degree[i] = row - 1.0;
    }

    const std::span<const double> dev_w = cc.dev_width();
    const std::span<const double> dev_h = cc.dev_height();
    double max_dim = 1e-9;
    for (std::size_t i = 0; i < n_; ++i) {
      max_dim = std::max({max_dim, dev_w[i], dev_h[i]});
    }
    for (std::size_t i = 0; i < n_; ++i) {
      static_features_(i, 2) = dev_w[i] / max_dim;
      static_features_(i, 3) = dev_h[i] / max_dim;
      static_features_(i, 4 + static_cast<std::size_t>(cc.dev_type()[i])) =
          1.0;
      static_features_(i, 4 + gnn::kNumDeviceTypes) =
          degree[i] / static_cast<double>(std::max<std::size_t>(n_ - 1, 1));
    }

    set_parameters(params);
  }

  /// Loads a gnn::GnnModel::parameters() vector.
  void set_parameters(std::span<const double> params) {
    std::size_t k = 0;
    auto pull_m = [&](numeric::Matrix& m) {
      for (double& v : m.data()) v = params[k++];
    };
    auto pull_v = [&](std::vector<double>& v) {
      for (double& x : v) x = params[k++];
    };
    pull_m(w1_);
    pull_v(b1_);
    pull_m(w2_);
    pull_v(b2_);
    pull_m(w3_);
    pull_v(b3_);
    pull_v(w4_);
    b4_ = params[k++];
  }

  [[nodiscard]] const numeric::Matrix& adjacency() const { return adj_; }
  [[nodiscard]] const numeric::Matrix& static_features() const {
    return static_features_;
  }

  /// Feature matrix for the positions v = (x.., y..), with the laplacian
  /// signs accumulate_position_grad needs.
  [[nodiscard]] Features features(std::span<const double> v) const {
    Features out{static_features_, std::vector<double>(n_),
                 std::vector<double>(n_)};
    numeric::Matrix& f = out.x;
    const std::size_t lx = gnn::kFeatureDim - 4, ly = gnn::kFeatureDim - 3;
    const std::size_t ax = gnn::kFeatureDim - 2, ay = gnn::kFeatureDim - 1;
    for (std::size_t i = 0; i < n_; ++i) {
      f(i, 0) = v[i] / scale_;
      f(i, 1) = v[n_ + i] / scale_;
      double mx = 0, my = 0;
      for (std::size_t j = 0; j < n_; ++j) {
        mx += adj_(i, j) * v[j];
        my += adj_(i, j) * v[n_ + j];
      }
      f(i, lx) = (v[i] - mx) / scale_;
      f(i, ly) = (v[n_ + i] - my) / scale_;
      f(i, ax) = std::abs(f(i, lx));
      f(i, ay) = std::abs(f(i, ly));
      out.lap_sign_x[i] = f(i, lx) >= 0 ? 1.0 : -1.0;
      out.lap_sign_y[i] = f(i, ly) >= 0 ? 1.0 : -1.0;
    }
    return out;
  }

  double forward(const numeric::Matrix& x, Activations& act) const {
    using numeric::Matrix;
    act.x = x;
    act.ax = Matrix::multiply(adj_, x);
    act.a1 = add_bias_rows(Matrix::multiply(act.ax, w1_), b1_);
    act.h1 = relu(act.a1);
    act.ah1 = Matrix::multiply(adj_, act.h1);
    act.a2 = add_bias_rows(Matrix::multiply(act.ah1, w2_), b2_);
    act.h2 = relu(act.a2);

    act.g.assign(kHidden, 0.0);
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t j = 0; j < kHidden; ++j)
        act.g[j] += act.h2(i, j) / static_cast<double>(n_);

    act.a3.assign(kMlp, 0.0);
    for (std::size_t j = 0; j < kMlp; ++j) {
      double s = b3_[j];
      for (std::size_t k = 0; k < kHidden; ++k) s += act.g[k] * w3_(k, j);
      act.a3[j] = s;
    }
    act.u = act.a3;
    for (double& v : act.u) v = std::max(v, 0.0);

    double logit = b4_;
    for (std::size_t j = 0; j < kMlp; ++j) logit += act.u[j] * w4_[j];
    act.logit = logit;
    act.phi = 1.0 / (1.0 + std::exp(-logit));
    return act.phi;
  }

  /// Adds the weight gradient into param_grad (parameters() layout) and,
  /// when x_grad is non-null, writes d(loss)/dX into it.
  void backward(const Activations& act, double dlogit,
                std::span<double> param_grad,
                numeric::Matrix* x_grad) const {
    using numeric::Matrix;
    const std::size_t off_w1 = 0;
    const std::size_t off_b1 = off_w1 + w1_.size();
    const std::size_t off_w2 = off_b1 + b1_.size();
    const std::size_t off_b2 = off_w2 + w2_.size();
    const std::size_t off_w3 = off_b2 + b2_.size();
    const std::size_t off_b3 = off_w3 + w3_.size();
    const std::size_t off_w4 = off_b3 + b3_.size();
    const std::size_t off_b4 = off_w4 + w4_.size();

    std::vector<double> du(kMlp);
    for (std::size_t j = 0; j < kMlp; ++j) {
      param_grad[off_w4 + j] += dlogit * act.u[j];
      du[j] = dlogit * w4_[j];
    }
    param_grad[off_b4] += dlogit;

    std::vector<double> da3(kMlp);
    for (std::size_t j = 0; j < kMlp; ++j)
      da3[j] = act.a3[j] > 0 ? du[j] : 0.0;

    std::vector<double> dg(kHidden, 0.0);
    for (std::size_t k = 0; k < kHidden; ++k) {
      for (std::size_t j = 0; j < kMlp; ++j) {
        param_grad[off_w3 + k * kMlp + j] += act.g[k] * da3[j];
        dg[k] += w3_(k, j) * da3[j];
      }
    }
    for (std::size_t j = 0; j < kMlp; ++j) param_grad[off_b3 + j] += da3[j];

    Matrix dh2(n_, kHidden);
    for (std::size_t i = 0; i < n_; ++i)
      for (std::size_t j = 0; j < kHidden; ++j)
        dh2(i, j) = dg[j] / static_cast<double>(n_);

    const Matrix da2 = relu_backward(act.a2, std::move(dh2));
    {
      const Matrix dw2 = Matrix::multiply(act.ah1.transposed(), da2);
      for (std::size_t k = 0; k < dw2.size(); ++k)
        param_grad[off_w2 + k] += dw2.data()[k];
      for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < kHidden; ++j)
          param_grad[off_b2 + j] += da2(i, j);
    }
    const Matrix adj_t = adj_.transposed();
    const Matrix dh1 =
        Matrix::multiply(Matrix::multiply(adj_t, da2), w2_.transposed());
    const Matrix da1 = relu_backward(act.a1, dh1);
    {
      const Matrix dw1 = Matrix::multiply(act.ax.transposed(), da1);
      for (std::size_t k = 0; k < dw1.size(); ++k)
        param_grad[off_w1 + k] += dw1.data()[k];
      for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = 0; j < kHidden; ++j)
          param_grad[off_b1 + j] += da1(i, j);
    }
    if (x_grad != nullptr) {
      *x_grad =
          Matrix::multiply(Matrix::multiply(adj_t, da1), w1_.transposed());
    }
  }

  /// Chain rule from feature gradients back to positions, added into
  /// grad_v.
  void accumulate_position_grad(const numeric::Matrix& fg, const Features& f,
                                std::span<double> grad_v) const {
    const std::size_t lx = gnn::kFeatureDim - 4, ly = gnn::kFeatureDim - 3;
    const std::size_t ax = gnn::kFeatureDim - 2, ay = gnn::kFeatureDim - 1;
    for (std::size_t i = 0; i < n_; ++i) {
      grad_v[i] += fg(i, 0) / scale_;
      grad_v[n_ + i] += fg(i, 1) / scale_;
      const double gx = fg(i, lx) + fg(i, ax) * f.lap_sign_x[i];
      const double gy = fg(i, ly) + fg(i, ay) * f.lap_sign_y[i];
      grad_v[i] += gx / scale_;
      grad_v[n_ + i] += gy / scale_;
      for (std::size_t k = 0; k < n_; ++k) {
        grad_v[k] -= gx * adj_(i, k) / scale_;
        grad_v[n_ + k] -= gy * adj_(i, k) / scale_;
      }
    }
  }

  /// Phi(v), with dPhi/dv added into grad_v: what gnn::PhiTerm computed
  /// (the weight gradient goes to a discarded buffer, as it did).
  double phi_and_position_grad(std::span<const double> v,
                               std::span<double> grad_v) const {
    const Features f = features(v);
    Activations act;
    const double phi = forward(f.x, act);
    std::vector<double> dummy(gnn::GnnModel::kNumParameters, 0.0);
    numeric::Matrix x_grad;
    backward(act, phi * (1.0 - phi), dummy, &x_grad);
    accumulate_position_grad(x_grad, f, grad_v);
    return phi;
  }

 private:
  static numeric::Matrix add_bias_rows(numeric::Matrix m,
                                       const std::vector<double>& b) {
    for (std::size_t i = 0; i < m.rows(); ++i)
      for (std::size_t j = 0; j < m.cols(); ++j) m(i, j) += b[j];
    return m;
  }
  static numeric::Matrix relu(numeric::Matrix m) {
    for (double& v : m.data()) v = std::max(v, 0.0);
    return m;
  }
  // dA = dH masked where the pre-activation is <= 0.
  static numeric::Matrix relu_backward(const numeric::Matrix& pre,
                                       numeric::Matrix dh) {
    for (std::size_t i = 0; i < pre.rows(); ++i)
      for (std::size_t j = 0; j < pre.cols(); ++j)
        if (pre(i, j) <= 0) dh(i, j) = 0;
    return dh;
  }

  std::size_t n_;
  double scale_;
  numeric::Matrix adj_, static_features_;
  numeric::Matrix w1_, w2_, w3_;
  std::vector<double> b1_, b2_, b3_, w4_;
  double b4_ = 0;
};

// ---- branch-and-bound ---------------------------------------------------------

// Branch-and-bound over one problem (no split into blocks), every node's
// relaxation solved from scratch by solve_lp(): depth-first, branching on
// the most fractional integer variable (down child first), pruning on the
// incumbent. It has no rounding fallback, so it answers only with an
// integral point it found; `proven_optimal` says the tree was exhausted.
class ColdBranchAndBound {
 public:
  explicit ColdBranchAndBound(long max_nodes) : max_nodes_(max_nodes) {}

  [[nodiscard]] solver::MilpSolution solve(const solver::LpProblem& p) {
    using solver::LpStatus;
    solver::MilpSolution best;
    best.status = LpStatus::Infeasible;
    std::vector<std::vector<std::tuple<int, double, double>>> stack(1);
    solver::LpProblem work = p;
    while (!stack.empty() && best.nodes_explored < max_nodes_) {
      const std::vector<std::tuple<int, double, double>> node =
          std::move(stack.back());
      stack.pop_back();
      ++best.nodes_explored;
      for (std::size_t j = 0; j < p.num_variables(); ++j) {
        const int v = static_cast<int>(j);
        work.set_bounds(v, p.lower_bound(v), p.upper_bound(v));
      }
      bool bounds_ok = true;
      for (auto [var, lo, hi] : node) {
        const double new_lo = std::max(lo, work.lower_bound(var));
        const double new_hi = std::min(hi, work.upper_bound(var));
        if (new_lo > new_hi) { bounds_ok = false; break; }
        work.set_bounds(var, new_lo, new_hi);
      }
      if (!bounds_ok) continue;

      const solver::LpSolution rel = solver::solve_lp(work);
      ++lp_solves_;
      if (rel.status == LpStatus::Unbounded && node.empty()) {
        best.status = LpStatus::Unbounded;
        return best;
      }
      if (!rel.ok()) continue;
      if (best.status == LpStatus::Optimal &&
          rel.objective >= best.objective - 1e-12) {
        continue;
      }
      int var = -1;
      double best_frac = 1e-6;
      for (std::size_t j = 0; j < p.num_variables(); ++j) {
        if (!p.is_integer(static_cast<int>(j))) continue;
        const double f = rel.x[j] - std::floor(rel.x[j]);
        if (std::min(f, 1.0 - f) > best_frac) {
          best_frac = std::min(f, 1.0 - f);
          var = static_cast<int>(j);
        }
      }
      if (var < 0) {
        best.status = LpStatus::Optimal;
        best.x = rel.x;
        best.objective = rel.objective;
        continue;
      }
      auto down = node, up = node;
      down.emplace_back(var, p.lower_bound(var), std::floor(rel.x[var]));
      up.emplace_back(var, std::ceil(rel.x[var]), p.upper_bound(var));
      stack.push_back(std::move(up));
      stack.push_back(std::move(down));
    }
    best.proven_optimal = best.status == LpStatus::Optimal && stack.empty();
    return best;
  }

  /// LPs solved by every solve() so far.
  [[nodiscard]] long lp_solves() const { return lp_solves_; }

 private:
  long max_nodes_;
  long lp_solves_ = 0;
};

}  // namespace aplace::oracle
