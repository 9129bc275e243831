#pragma once
// Electrostatics-based density system (ePlace, Lu et al. TCAD'15).
//
// Devices are positive charges with magnitude = footprint area. The charge
// density rho on a bin grid drives a Poisson solve with Neumann boundary
// conditions via 2D DCT (numeric/fft's row/column passes on two FftPlans):
//
//   a_{u,v}   = DCT2(rho)
//   psi_{x,y} = sum a_{u,v} / (w_u^2 + w_v^2) cos(w_u x) cos(w_v y)
//   E_x       = sum a_{u,v} w_u / (w_u^2 + w_v^2) sin(..) cos(..)
//
// with w_u = pi*u/M in bin units ((u,v) = (0,0) excluded, which implicitly
// removes the mean charge as Neumann solvability requires). The potential
// energy N(v) = 1/2 sum_i q_i psi(x_i) is the smoothed overlap term of the
// placement objective; its gradient w.r.t. a device center is -q_i * E
// averaged over the device footprint.
//
// Only the two field components are synthesized: three 2D transforms per
// evaluation (one analysis, two syntheses). The potential itself is never
// formed. Nothing steers by the energy value (the Nesterov loop reads the
// gradient only; the value feeds traces), and Parseval's identity for the
// orthogonal cosine basis gives it from the coefficients directly:
//
//   N = 1/2 binArea sum_bins rho psi
//     = 1/2 binArea sum_{u,v} a_{u,v}^2 / (w_u^2 + w_v^2) g_u g_v,
//
// g_0 = n, g_k = n/2 (the squared norms of the cosine basis vectors). It
// equals the force-pass average 1/2 sum_i q_i psi(x_i) whenever every
// footprint lies inside the region (tests/simd_test.cpp checks it against
// oracle::overlap_force on a synthesized psi to 1e-12 relative).
//
// The bilinear splat and the field interpolation are 4-lane simd::Vec4d
// kernels that exploit separability — overlap(bin, rect) = ov_x(col) *
// ov_y(row) exactly — precomputing per-column overlaps once per device and
// streaming each bin row 4 columns at a time (cache-blocked by
// construction: rows are contiguous in the row-major matrices). Both loop
// over the devices in index order on the calling thread, so every sum, and
// every bit of the result, is independent of the thread count. The per-bin
// reference (BinGrid::splat and the overlap_area force loop) lives in
// tests/kernel_oracle.hpp; the two agree to <= 1e-12 relative
// (tests/simd_test.cpp).

#include <span>

#include "base/aligned.hpp"
#include "density/bin_grid.hpp"
#include "netlist/compiled.hpp"
#include "numeric/fft.hpp"

namespace aplace::density {

class ElectroDensity {
 public:
  /// nx and ny must be powers of two >= 4 (checked): the Poisson solve runs
  /// on one FftPlan per axis, four lines per pass.
  ElectroDensity(netlist::CompiledRef compiled, const geom::Rect& region,
                 std::size_t nx, std::size_t ny, double target_density);

  [[nodiscard]] const BinGrid& grid() const { return grid_; }
  [[nodiscard]] double target_density() const { return target_; }

  /// Phase 1 of value_and_grad: splat charge + occupancy at v, normalize
  /// rho, refresh overflow(). Exposed so the splat kernel can be timed in
  /// isolation (bench_micro_kernels); value_and_grad calls it internally.
  void build_density(std::span<const double> v);

  /// Evaluate the potential energy N (by Parseval, see the header) at
  /// v = (x.., y..) and *add*
  /// scale * dN/dv into grad. Also refreshes overflow(). Devices whose
  /// footprint has escaped the region are evaluated at the nearest
  /// in-region position, so they always feel a restoring density force.
  /// Allocation-free after construction.
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale);

  /// Density overflow after the last evaluation: sum over bins of
  /// max(0, occupancy - target*binArea) normalized by total device area.
  /// The classic ePlace stopping metric.
  [[nodiscard]] double overflow() const { return overflow_; }

  /// Last computed per-bin charge density (for tests / inspection).
  [[nodiscard]] const numeric::Matrix& rho() const { return rho_; }
  [[nodiscard]] const numeric::Matrix& field_x() const { return ex_; }
  [[nodiscard]] const numeric::Matrix& field_y() const { return ey_; }

 private:
  struct DeviceInfo {
    double w, h;        // effective (possibly inflated) footprint
    double charge;      // true area
    double real_w, real_h;
  };

  /// Device center clamped so its inflated footprint stays inside the
  /// region (escaped devices are looked up at the nearest boundary bins).
  [[nodiscard]] geom::Point clamped_center(const geom::Point& c,
                                           const DeviceInfo& d) const;

  netlist::CompiledRef compiled_;
  BinGrid grid_;
  double target_;
  numeric::fft::FftPlan plan_x_, plan_y_;
  std::vector<DeviceInfo> devices_;

  // Angular frequencies w_u = pi u / (nx binW) and w_v = pi v / (ny binH).
  std::vector<double> wu_, wv_;

  // Scratch matrices reused across evaluations: value_and_grad performs no
  // heap allocation after construction (the Nesterov hot loop).
  numeric::Matrix rho_, ex_, ey_, occupancy_;
  double overflow_ = 1.0;

  // Padded per-column / per-row overlap lengths of the device being
  // processed (separable splat/force kernels).
  base::AlignedVec ovx_, ovy_;
};

}  // namespace aplace::density
