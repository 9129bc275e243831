#include "density/electro.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::density {
namespace {

using base::padded4;
using simd::Vec4d;

// Per-column overlap lengths of `rect` against x-bins [c0, c1], written to
// ov[0..count) with zeroed pad lanes; mirrors bin_rect()/overlap_area()
// arithmetic exactly (min(xhi) - max(xlo), clamped at 0), so the separable
// product ov_x * ov_y is bit-identical to BinGrid's per-bin overlap.
std::size_t fill_overlaps(double region_lo, double bin_len, std::size_t b0,
                          std::size_t b1, double rect_lo, double rect_hi,
                          double* ov) {
  const std::size_t count = b1 - b0 + 1;
  for (std::size_t j = 0; j < count; ++j) {
    const double lo = region_lo + static_cast<double>(b0 + j) * bin_len;
    const double d = std::min(lo + bin_len, rect_hi) - std::max(lo, rect_lo);
    ov[j] = d > 0 ? d : 0.0;
  }
  for (std::size_t j = count; j < padded4(count); ++j) ov[j] = 0.0;
  return count;
}

// 4-lane separable splat: into(r, c) += (amount/area) * ov_y(r) * ov_x(c),
// streaming each bin row left to right (rows are contiguous in the
// row-major matrix, so this is cache-blocked by construction).
void splat(const BinGrid& grid, const geom::Rect& rect, double amount,
           numeric::Matrix& into,
           std::pair<base::AlignedVec&, base::AlignedVec&> scratch) {
  if (rect.area() <= 0) return;
  const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
  const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
  double* ovx = scratch.first.data();
  double* ovy = scratch.second.data();
  const std::size_t nxd = fill_overlaps(grid.region().xlo(), grid.bin_w(),
                                        cx0, cx1, rect.xlo(), rect.xhi(), ovx);
  fill_overlaps(grid.region().ylo(), grid.bin_h(), cy0, cy1, rect.ylo(),
                rect.yhi(), ovy);
  const double per_area = amount / rect.area();
  for (std::size_t r = cy0; r <= cy1; ++r) {
    const double w = per_area * ovy[r - cy0];
    if (w <= 0) continue;
    double* row = &into(r, cx0);
    const Vec4d wv = Vec4d::broadcast(w);
    std::size_t j = 0;
    for (; j + 4 <= nxd; j += 4) {
      Vec4d::mul_add(wv, Vec4d::load(ovx + j), Vec4d::loadu(row + j))
          .storeu(row + j);
    }
    for (; j < nxd; ++j) row[j] += w * ovx[j];
  }
}

struct ForceAcc {
  double ex = 0, ey = 0, area = 0;
};

// 4-lane separable field interpolation: per-row dot products of the
// per-column overlaps against the ex/ey rows (two fused accumulators
// sharing one ovx load), each scaled by the row overlap; the overlapped
// area factors into (sum ov_x) * (sum ov_y).
ForceAcc force(const BinGrid& grid, const numeric::Matrix& exm,
               const numeric::Matrix& eym, const geom::Rect& rect,
               std::pair<base::AlignedVec&, base::AlignedVec&> scratch) {
  ForceAcc acc;
  const auto [cx0, cx1] = grid.x_range(rect.xlo(), rect.xhi());
  const auto [cy0, cy1] = grid.y_range(rect.ylo(), rect.yhi());
  double* ovx = scratch.first.data();
  double* ovy = scratch.second.data();
  const std::size_t nxd = fill_overlaps(grid.region().xlo(), grid.bin_w(),
                                        cx0, cx1, rect.xlo(), rect.xhi(), ovx);
  const std::size_t nyd = fill_overlaps(grid.region().ylo(), grid.bin_h(),
                                        cy0, cy1, rect.ylo(), rect.yhi(), ovy);
  double sum_x = 0, sum_y = 0;
  for (std::size_t j = 0; j < nxd; ++j) sum_x += ovx[j];
  for (std::size_t j = 0; j < nyd; ++j) sum_y += ovy[j];
  acc.area = sum_x * sum_y;
  for (std::size_t r = 0; r < nyd; ++r) {
    const double wy = ovy[r];
    if (wy <= 0) continue;
    const std::size_t row_off = (cy0 + r) * exm.cols() + cx0;
    const double* xrow = exm.data().data() + row_off;
    const double* yrow = eym.data().data() + row_off;
    Vec4d ax = Vec4d::zero(), ay = Vec4d::zero();
    std::size_t j = 0;
    for (; j + 4 <= nxd; j += 4) {
      const Vec4d w = Vec4d::load(ovx + j);
      ax = Vec4d::mul_add(w, Vec4d::loadu(xrow + j), ax);
      ay = Vec4d::mul_add(w, Vec4d::loadu(yrow + j), ay);
    }
    if (j < nxd) {
      // Masked tail: ovx pad lanes are zero, matrix rows are loaded through
      // a partial copy so the read never crosses the row's end.
      const std::size_t rem = nxd - j;
      const Vec4d w = Vec4d::load(ovx + j);
      ax = Vec4d::mul_add(w, Vec4d::load_partial(xrow + j, rem), ax);
      ay = Vec4d::mul_add(w, Vec4d::load_partial(yrow + j, rem), ay);
    }
    acc.ex += wy * simd::hsum_ordered(ax);
    acc.ey += wy * simd::hsum_ordered(ay);
  }
  return acc;
}

}  // namespace

ElectroDensity::ElectroDensity(netlist::CompiledRef compiled,
                               const geom::Rect& region, std::size_t nx,
                               std::size_t ny, double target_density)
    : compiled_(std::move(compiled)),
      grid_(region, nx, ny),
      target_(target_density),
      plan_x_(nx),
      plan_y_(ny),
      wu_(nx),
      wv_(ny),
      rho_(ny, nx),
      ex_(ny, nx),
      ey_(ny, nx),
      occupancy_(ny, nx) {
  APLACE_CHECK_MSG(target_density > 0 && target_density <= 1.0,
                   "target density must be in (0, 1]");
  const double pi = std::numbers::pi;
  for (std::size_t c = 0; c < nx; ++c) {
    wu_[c] = pi * static_cast<double>(c) / static_cast<double>(nx) /
             grid_.bin_w();
  }
  for (std::size_t r = 0; r < ny; ++r) {
    wv_[r] = pi * static_cast<double>(r) / static_cast<double>(ny) /
             grid_.bin_h();
  }
  // ePlace-style local smoothing: devices smaller than sqrt(2) * bin pitch
  // are inflated (charge preserved) so the density signal stays smooth.
  // The inflation depends on the bin grid, so this per-instance table stays
  // here; footprints come from the compiled flat arrays.
  const netlist::CompiledCircuit& cc = *compiled_;
  const double min_w = std::numbers::sqrt2 * grid_.bin_w();
  const double min_h = std::numbers::sqrt2 * grid_.bin_h();
  devices_.reserve(cc.num_devices());
  for (std::size_t i = 0; i < cc.num_devices(); ++i) {
    DeviceInfo info;
    info.real_w = cc.dev_width()[i];
    info.real_h = cc.dev_height()[i];
    info.w = std::max(info.real_w, min_w);
    info.h = std::max(info.real_h, min_h);
    info.charge = cc.dev_area()[i];
    devices_.push_back(info);
  }
  ovx_.resize(padded4(nx));
  ovy_.resize(padded4(ny));
}

geom::Point ElectroDensity::clamped_center(const geom::Point& c,
                                           const DeviceInfo& d) const {
  const geom::Rect& rg = grid_.region();
  auto clamp1 = [](double v, double lo, double hi) {
    // A device larger than the region has lo > hi: center it.
    return lo <= hi ? std::clamp(v, lo, hi) : 0.5 * (lo + hi);
  };
  return {clamp1(c.x, rg.xlo() + d.w / 2, rg.xhi() - d.w / 2),
          clamp1(c.y, rg.ylo() + d.h / 2, rg.yhi() - d.h / 2)};
}

void ElectroDensity::build_density(std::span<const double> v) {
  const std::size_t n = devices_.size();
  APLACE_DCHECK(v.size() == 2 * n);

  // Clamp the lookup position into the region: a device dragged outside
  // by the wirelength pull still deposits charge into the boundary bins
  // (and in the force pass, samples the field there), so its Neumann mirror
  // image produces the force that pulls it back inside.
  rho_.fill(0.0);
  occupancy_.fill(0.0);  // true footprint area
  for (std::size_t i = 0; i < n; ++i) {
    const DeviceInfo& d = devices_[i];
    const geom::Point c = clamped_center({v[i], v[n + i]}, d);
    const geom::Rect eff = geom::Rect::centered(c, d.w, d.h);
    const geom::Rect real = geom::Rect::centered(c, d.real_w, d.real_h);
    splat(grid_, eff, d.charge, rho_, {ovx_, ovy_});
    splat(grid_, real, d.charge, occupancy_, {ovx_, ovy_});
  }
  // Convert charge per bin into density (charge / bin area).
  for (double& x : rho_.data()) x /= grid_.bin_area();

  // --- overflow metric ------------------------------------------------------
  // Analog scale: devices are much larger than bins, so a bin interior to a
  // single device is legitimately 100% occupied. Overflow therefore counts
  // occupancy beyond a *full* bin — i.e. actual device overlap — normalized
  // by total device area. (target_ still sizes the placement region.)
  double over = 0;
  const double cap = grid_.bin_area();
  for (double o : occupancy_.data()) over += std::max(0.0, o - cap);
  const double total_area = compiled_->total_device_area();
  overflow_ = total_area > 0 ? over / total_area : 0.0;
}

double ElectroDensity::value_and_grad(std::span<const double> v,
                                      std::span<double> grad, double scale) {
  // One histogram sample per eval (two clock reads on a >=µs operation);
  // the spectral transforms inside count themselves via fft/transforms2d.
  static const obs::Counter evals = obs::counter("density/evals");
  static const obs::Histogram eval_seconds =
      obs::histogram("density/eval_seconds");
  const bool record = obs::enabled();
  const double obs_t0 = record ? obs::now_seconds() : 0.0;
  evals.inc();

  const std::size_t n = devices_.size();
  APLACE_DCHECK(v.size() == 2 * n && grad.size() == v.size());

  // --- charge density + overflow --------------------------------------------
  build_density(v);

  // --- spectral Poisson solve ----------------------------------------------
  // All transforms run in place on the member matrices: ex_ first holds the
  // DCT coefficients a, from which both field synthesis inputs and the
  // Parseval energy are produced, so the whole solve allocates nothing.
  using namespace numeric::fft;
  const std::size_t nx = grid_.nx(), ny = grid_.ny();

  std::copy(rho_.data().begin(), rho_.data().end(), ex_.data().begin());
  dct2d_inplace(ex_, plan_x_, plan_y_);
  // N = 1/2 binArea sum a^2 / w^2 g_u g_v with g_0 = n, g_k = n/2.
  const double gx = 0.5 * static_cast<double>(nx);
  const double gy = 0.5 * static_cast<double>(ny);
  double energy_sum = 0;
  for (std::size_t r = 0; r < ny; ++r) {
    const double wv = wv_[r];
    double row_sum = 0;
    for (std::size_t c = 0; c < nx; ++c) {
      const double wu = wu_[c];
      const double w2 = wu * wu + wv * wv;
      if (w2 <= 0) {  // (0,0): mean removed
        ex_(r, c) = 0.0;
        ey_(r, c) = 0.0;
        continue;
      }
      const double a = ex_(r, c);
      const double coef = a / w2;
      row_sum += (c == 0 ? 2.0 * gx : gx) * (a * coef);
      ex_(r, c) = coef * wu;
      ey_(r, c) = coef * wv;
    }
    energy_sum += (r == 0 ? 2.0 * gy : gy) * row_sum;
  }
  const double energy = 0.5 * grid_.bin_area() * energy_sum;
  isxcy2d_inplace(ex_, plan_x_, plan_y_);
  icxsy2d_inplace(ey_, plan_x_, plan_y_);

  // --- per-device forces ---------------------------------------------------
  for (std::size_t i = 0; i < n; ++i) {
    const DeviceInfo& d = devices_[i];
    const geom::Point c = clamped_center({v[i], v[n + i]}, d);
    const geom::Rect rect = geom::Rect::centered(c, d.w, d.h);
    const ForceAcc acc = force(grid_, ex_, ey_, rect, {ovx_, ovy_});
    if (acc.area <= 0) continue;  // region degenerate beyond clamping
    const double q_over_a = d.charge / acc.area;
    grad[i] += scale * (-q_over_a * acc.ex);
    grad[n + i] += scale * (-q_over_a * acc.ey);
  }
  if (record) eval_seconds.record(obs::now_seconds() - obs_t0);
  return energy;
}

}  // namespace aplace::density
