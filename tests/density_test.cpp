// Density models: bin-grid splatting conservation, electrostatic field
// behaviour and overflow semantics, bell-shaped penalty values/derivatives.

#include <gtest/gtest.h>

#include "density/bell.hpp"
#include "density/bin_grid.hpp"
#include "density/electro.hpp"
#include "gp/eplace_gp.hpp"
#include "test_util.hpp"

namespace aplace::density {
namespace {

TEST(BinGridTest, Geometry) {
  const BinGrid g({0, 0, 8, 4}, 4, 2);
  EXPECT_DOUBLE_EQ(g.bin_w(), 2.0);
  EXPECT_DOUBLE_EQ(g.bin_h(), 2.0);
  EXPECT_DOUBLE_EQ(g.bin_center_x(0), 1.0);
  EXPECT_DOUBLE_EQ(g.bin_center_y(1), 3.0);
  EXPECT_EQ(g.bin_rect(1, 2), geom::Rect(4, 2, 6, 4));
}

TEST(BinGridTest, RangeClamping) {
  const BinGrid g({0, 0, 8, 8}, 4, 4);
  const auto [a, b] = g.x_range(3.0, 5.0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  const auto [c, d] = g.x_range(-5.0, -1.0);
  EXPECT_EQ(c, 0u);
  EXPECT_EQ(d, 0u);
  const auto [e, f] = g.x_range(9.0, 12.0);
  EXPECT_EQ(e, 3u);
  EXPECT_EQ(f, 3u);
}

TEST(BinGridTest, SplatConservesAmountInside) {
  const BinGrid g({0, 0, 8, 8}, 8, 8);
  numeric::Matrix m(8, 8);
  g.splat(geom::Rect(1.3, 2.1, 4.6, 5.2), 10.0, m);
  double total = 0;
  for (double v : m.data()) total += v;
  EXPECT_NEAR(total, 10.0, 1e-9);
}

TEST(BinGridTest, SplatDropsOutsideArea) {
  const BinGrid g({0, 0, 4, 4}, 4, 4);
  numeric::Matrix m(4, 4);
  // Half of the rect lies left of the region.
  g.splat(geom::Rect(-2, 0, 2, 4), 8.0, m);
  double total = 0;
  for (double v : m.data()) total += v;
  EXPECT_NEAR(total, 4.0, 1e-9);
}

TEST(ElectroTest, FieldPushesApart) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 16, 16, 0.8);
  // Both devices near the center, side by side with overlap.
  std::vector<double> v{7.6, 8.4, 8.0, 8.0};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  // Descent direction -g must separate them further in x.
  EXPECT_GT(g[0], 0.0) << "left device pushed left";
  EXPECT_LT(g[1], 0.0) << "right device pushed right";
}

TEST(ElectroTest, EnergyDropsWhenSpread) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 16, 16, 0.8);
  std::vector<double> g(4, 0.0);
  const std::vector<double> vs{8, 8, 8, 8};
  const std::vector<double> vp{4, 12, 8, 8};
  const double stacked = ed.value_and_grad(vs, g, 0.0);
  const double spread = ed.value_and_grad(vp, g, 0.0);
  EXPECT_LT(spread, stacked);
}

TEST(ElectroTest, OverflowMeasuresOverlapOnly) {
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 16, 16, 0.8);
  std::vector<double> g(4, 0.0);
  // Disjoint placement: overflow ~ 0 (bins inside devices are exactly full).
  const std::vector<double> vp{4, 12, 8, 8};
  const std::vector<double> vs{8, 8, 8, 8};
  ed.value_and_grad(vp, g, 0.0);
  EXPECT_LT(ed.overflow(), 0.05);
  // Fully stacked at the same spot: most of the smaller device overlaps.
  ed.value_and_grad(vs, g, 0.0);
  EXPECT_GT(ed.overflow(), 0.2);
}

TEST(ElectroTest, GradientRoughlyMatchesFiniteDifference) {
  // The electrostatic gradient is exact for the spectral field but the
  // per-device averaging makes it an approximation; check direction and
  // magnitude within a loose factor.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 32, 32, 0.8);
  const std::vector<double> v{7.0, 9.0, 8.0, 8.2};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return ed.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-4);
  for (int i = 0; i < 4; ++i) {
    if (std::abs(fd[i]) < 1e-3) continue;
    EXPECT_GT(g[i] * fd[i], 0.0) << "sign mismatch at " << i;
    // Per-device field averaging makes this a fairly coarse approximation
    // of the finite-difference derivative; direction and rough magnitude
    // are what the optimizer relies on.
    EXPECT_NEAR(g[i], fd[i], 0.75 * std::abs(fd[i]) + 1e-2) << i;
  }
}

TEST(ElectroTest, EscapedDeviceFeelsRestoringForce) {
  // A device dragged fully outside the region used to accumulate zero
  // overlap and silently feel no density force; the clamped lookup must
  // give it a nonzero gradient pointing back inside.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 16, 16, 0.8);
  // Device 0 escaped far left of the region, device 1 well inside.
  const std::vector<double> v{-6.0, 8.0, 8.0, 8.0};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  // Descent direction -g must move device 0 in +x (back toward the region):
  // its charge lands in the boundary bins, and the Neumann mirror image
  // repels it inward.
  EXPECT_LT(g[0], 0.0) << "escaped device must be pulled back inside";
  EXPECT_NE(g[0], 0.0);

  // Same on the other axis: escaped above the region, pulled down.
  const std::vector<double> vy{8.0, 8.0, 23.0, 8.0};
  std::fill(g.begin(), g.end(), 0.0);
  ed.value_and_grad(vy, g, 1.0);
  EXPECT_GT(g[2], 0.0) << "escaped device must be pulled back down";
}

TEST(ElectroDensityTest, RejectsNonPowerOfTwoBins) {
  // The Poisson solve runs on one FftPlan per axis, which needs a
  // power-of-two length; there is no dense fallback.
  const netlist::Circuit c = test::two_device_circuit();
  EXPECT_THROW(ElectroDensity(c, {0, 0, 16, 16}, 12, 12, 0.8), CheckError);
  EXPECT_THROW(ElectroDensity(c, {0, 0, 16, 16}, 16, 12, 0.8), CheckError);
}

TEST(ElectroDensityTest, RejectsFewerThanFourBins) {
  // Each FFT pass batches four lines, one per SIMD lane, so every axis
  // needs at least four bins.
  const netlist::Circuit c = test::two_device_circuit();
  EXPECT_THROW(ElectroDensity(c, {0, 0, 16, 16}, 2, 2, 0.8), CheckError);
  EXPECT_THROW(ElectroDensity(c, {0, 0, 16, 16}, 16, 2, 0.8), CheckError);
  EXPECT_NO_THROW(ElectroDensity(c, {0, 0, 16, 16}, 4, 4, 0.8));
}

TEST(ElectroDensityTest, EPlaceRoundsSmallBinCountsUpToFour) {
  // ePlace-A accepts 2 and 3 bins per side and runs them on a 4 x 4 grid;
  // without the rounding the density solve would reject them.
  const netlist::Circuit c = test::two_device_circuit();
  for (const std::size_t bins : {std::size_t{2}, std::size_t{3}}) {
    gp::EPlaceGpOptions opts;
    opts.bins = bins;
    opts.num_starts = 1;
    opts.max_iters = 5;
    opts.min_iters = 1;
    gp::EPlaceGlobalPlacer placer(c, opts);
    const gp::GpResult r = placer.run();
    EXPECT_EQ(r.positions.size(), 4u) << bins;
  }
}

TEST(ElectroTest, GradientMatchesFiniteDifferenceOnFftPath) {
  // Finite-difference sanity of the gradient at a finer grid than the test
  // above. Tolerances are loose for the same reason as above: the
  // per-device field averaging is an approximation of dN/dv.
  const netlist::Circuit c = test::two_device_circuit();
  ElectroDensity ed(c, {0, 0, 16, 16}, 64, 64, 0.8);
  const std::vector<double> v{6.5, 9.5, 8.5, 7.5};
  std::vector<double> g(4, 0.0);
  ed.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return ed.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-4);
  for (int i = 0; i < 4; ++i) {
    if (std::abs(fd[i]) < 1e-3) continue;
    EXPECT_GT(g[i] * fd[i], 0.0) << "sign mismatch at " << i;
    EXPECT_NEAR(g[i], fd[i], 0.75 * std::abs(fd[i]) + 1e-2) << i;
  }
}

TEST(BellTest, ValueProfile) {
  const double w = 4, wb = 1;
  EXPECT_NEAR(bell_value(0, w, wb), 1.0, 1e-12);
  // Support ends at w/2 + 2wb = 4.
  EXPECT_NEAR(bell_value(4.0, w, wb), 0.0, 1e-12);
  EXPECT_NEAR(bell_value(5.0, w, wb), 0.0, 1e-12);
  // Continuity at the branch point d1 = 3.
  EXPECT_NEAR(bell_value(3.0 - 1e-9, w, wb), bell_value(3.0 + 1e-9, w, wb),
              1e-6);
  // Monotone decreasing on [0, 4].
  double prev = 2;
  for (double d = 0; d <= 4.01; d += 0.25) {
    const double val = bell_value(d, w, wb);
    EXPECT_LE(val, prev + 1e-12);
    prev = val;
  }
}

TEST(BellTest, DerivativeMatchesFiniteDifference) {
  const double w = 3, wb = 0.7;
  for (double d : {-3.0, -1.2, -0.3, 0.4, 1.1, 2.0, 2.6}) {
    const double fd =
        (bell_value(d + 1e-6, w, wb) - bell_value(d - 1e-6, w, wb)) / 2e-6;
    EXPECT_NEAR(bell_derivative(d, w, wb), fd, 1e-5) << "d=" << d;
  }
}

TEST(BellDensityTest, PenaltyDropsWhenSpread) {
  // Needs bins fine enough that the bell-smoothed density can exceed a full
  // bin where the devices overlap (32 bins -> 0.5 um over 2-4 um devices).
  const netlist::Circuit c = test::two_device_circuit();
  BellDensity bd(c, {0, 0, 16, 16}, 32, 32, 0.8);
  std::vector<double> g(4, 0.0);
  const std::vector<double> vs{8, 8, 8, 8};
  const std::vector<double> vp{4, 12, 8, 8};
  const double stacked = bd.value_and_grad(vs, g, 0.0);
  const double spread = bd.value_and_grad(vp, g, 0.0);
  EXPECT_LT(spread, stacked);
}

TEST(BellDensityTest, GradientMatchesFiniteDifference) {
  const netlist::Circuit c = test::two_device_circuit();
  BellDensity bd(c, {0, 0, 16, 16}, 16, 16, 0.8);
  const std::vector<double> v{7.2, 9.1, 7.9, 8.3};
  std::vector<double> g(4, 0.0);
  bd.value_and_grad(v, g, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(4, 0.0);
        return bd.value_and_grad(x, tmp, 0.0);
      },
      v, 1e-5);
  for (int i = 0; i < 4; ++i) {
    // Normalizers are held constant in the analytic gradient (NTUplace3
    // convention), so allow a modest tolerance.
    EXPECT_NEAR(g[i], fd[i], 0.2 * std::abs(fd[i]) + 0.05) << i;
  }
}

}  // namespace
}  // namespace aplace::density
