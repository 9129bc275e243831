// SIMD layer contract tests (tests/simd_test.cpp):
//  * Vec4d lane-op semantics: masked loads/stores, ordered reductions,
//    4x4 transposes, scatter-accumulate order, nearest-even rounding.
//  * The rounding contract every backend shares: mul_add rounds twice and
//    hsum_ordered/hsum4 use one fixed association each (exact tests).
//  * exp4 accuracy (<= simd::kExpMaxRelError over the clamped domain) and
//    saturation behaviour beyond the clamp.
//  * Registry-wide property: every hot kernel (WA/LSE wirelength,
//    electrostatic splat/force, DCT/DST butterflies) agrees with its scalar
//    reference in tests/kernel_oracle.hpp (oracle::DenseBasis for the FFT)
//    to <= 1e-12 relative on all ten paper circuits.
//  * Overflow regression: WA/LSE stay finite (and oracle-consistent) at a
//    1e6-unit coordinate spread where naive exp() would overflow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/simd.hpp"
#include "circuits/testcases.hpp"
#include "density/electro.hpp"
#include "kernel_oracle.hpp"
#include "numeric/fft.hpp"
#include "test_util.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace {
namespace {

using simd::Vec4d;

constexpr double kRelTol = 1e-12;

/// |a - b| <= tol * max(1, |a|, |b|): the "1e-12 relative" kernel contract
/// with an absolute floor so near-zero entries compare by absolute error.
void expect_rel_close(double a, double b, double tol = kRelTol) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  EXPECT_LE(std::abs(a - b), tol * scale) << "a=" << a << " b=" << b;
}

void expect_vectors_close(const std::vector<double>& a,
                          const std::vector<double>& b,
                          double tol = kRelTol) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 1.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    scale = std::max({scale, std::abs(a[i]), std::abs(b[i])});
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_LE(std::abs(a[i] - b[i]), tol * scale)
        << "index " << i << ": " << a[i] << " vs " << b[i];
  }
}

/// Deterministic spread-out positions inside [0, extent]^2.
std::vector<double> registry_positions(const netlist::Circuit& c,
                                       double extent) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const double fi = static_cast<double>(i);
    v[i] = extent * (0.5 + 0.45 * std::sin(1.7 * fi + 0.3));
    v[n + i] = extent * (0.5 + 0.45 * std::cos(2.3 * fi + 1.1));
  }
  return v;
}

// ---- Vec4d lane semantics ---------------------------------------------------

TEST(SimdTest, SetLaneRoundTrip) {
  const Vec4d v = Vec4d::set(1.5, -2.25, 3.0, -0.0);
  EXPECT_EQ(v.lane(0), 1.5);
  EXPECT_EQ(v.lane(1), -2.25);
  EXPECT_EQ(v.lane(2), 3.0);
  EXPECT_EQ(v.lane(3), 0.0);
}

TEST(SimdTest, LoadPartialZeroFillsTail) {
  const double src[3] = {7.0, 8.0, 9.0};
  const Vec4d v = Vec4d::load_partial(src, 3);
  EXPECT_EQ(v.lane(0), 7.0);
  EXPECT_EQ(v.lane(1), 8.0);
  EXPECT_EQ(v.lane(2), 9.0);
  EXPECT_EQ(v.lane(3), 0.0);
  const Vec4d none = Vec4d::load_partial(src, 0);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(none.lane(i), 0.0);
}

TEST(SimdTest, StorePartialLeavesTailUntouched) {
  double dst[4] = {-1.0, -1.0, -1.0, -1.0};
  Vec4d::set(1, 2, 3, 4).store_partial(dst, 2);
  EXPECT_EQ(dst[0], 1.0);
  EXPECT_EQ(dst[1], 2.0);
  EXPECT_EQ(dst[2], -1.0);
  EXPECT_EQ(dst[3], -1.0);
}

TEST(SimdTest, KeepFirstMasksExactlyIncludingInfNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Vec4d v = Vec4d::set(inf, nan, 3.0, 4.0).keep_first(2);
  EXPECT_TRUE(std::isinf(v.lane(0)));
  EXPECT_TRUE(std::isnan(v.lane(1)));
  EXPECT_EQ(v.lane(2), 0.0);
  EXPECT_EQ(v.lane(3), 0.0);
  // keep_first(4) is the identity.
  const Vec4d w = Vec4d::set(1, 2, 3, 4).keep_first(4);
  EXPECT_EQ(w.lane(3), 4.0);
}

TEST(SimdTest, Transpose4SwapsRowsAndColumnsExactly) {
  Vec4d a = Vec4d::set(0, 1, 2, 3), b = Vec4d::set(4, 5, 6, 7),
        c = Vec4d::set(8, 9, 10, -0.0),
        d = Vec4d::set(12, 13, std::numeric_limits<double>::infinity(), 15);
  simd::transpose4(a, b, c, d);
  const Vec4d rows[4] = {a, b, c, d};
  const double inf = std::numeric_limits<double>::infinity();
  const double want[4][4] = {
      {0, 4, 8, 12}, {1, 5, 9, 13}, {2, 6, 10, inf}, {3, 7, -0.0, 15}};
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t l = 0; l < 4; ++l) {
      EXPECT_EQ(rows[r].lane(l), want[r][l]) << r << " " << l;
    }
  }
  EXPECT_TRUE(std::signbit(d.lane(2)));
}

TEST(SimdTest, GatherReadsThroughIndexTable) {
  const double base[6] = {0, 10, 20, 30, 40, 50};
  const std::uint32_t idx[4] = {5, 0, 3, 3};
  const Vec4d v = Vec4d::gather(base, idx);
  EXPECT_EQ(v.lane(0), 50.0);
  EXPECT_EQ(v.lane(1), 0.0);
  EXPECT_EQ(v.lane(2), 30.0);
  EXPECT_EQ(v.lane(3), 30.0);
}

TEST(SimdTest, ScatterAddAccumulatesDuplicatesInLaneOrder) {
  double base[2] = {100.0, 0.0};
  const std::uint32_t idx[4] = {0, 1, 0, 1};
  Vec4d::set(1, 2, 4, 8).scatter_add(base, idx, 4);
  EXPECT_EQ(base[0], ((100.0 + 1.0) + 4.0));
  EXPECT_EQ(base[1], (2.0 + 8.0));
  // Masked scatter touches only the first n lanes.
  double base2[2] = {0.0, 0.0};
  Vec4d::set(1, 2, 4, 8).scatter_add(base2, idx, 1);
  EXPECT_EQ(base2[0], 1.0);
  EXPECT_EQ(base2[1], 0.0);
}

TEST(SimdTest, HsumOrderedUsesDocumentedAssociation) {
  // Catastrophic-cancellation probe: only the documented association
  // ((l0 + l1) + l2) + l3 yields exactly 1.0 here.
  const double a = 1e16, b = 1.0, c = -1e16, d = 1.0;
  const Vec4d v = Vec4d::set(a, b, c, d);
  EXPECT_EQ(simd::hsum_ordered(v), ((a + b) + c) + d);
  EXPECT_EQ(simd::hsum_ordered(v), 1.0);
}

TEST(SimdTest, HmaxHminIgnoreLaneOrder) {
  const Vec4d v = Vec4d::set(-3.0, 7.5, 0.0, -11.0);
  EXPECT_EQ(simd::hmax(v), 7.5);
  EXPECT_EQ(simd::hmin(v), -11.0);
}

TEST(SimdTest, RoundNearestTiesToEven) {
  const Vec4d v = Vec4d::round_nearest(Vec4d::set(2.5, 3.5, -2.5, 0.5));
  EXPECT_EQ(v.lane(0), 2.0);
  EXPECT_EQ(v.lane(1), 4.0);
  EXPECT_EQ(v.lane(2), -2.0);
  EXPECT_EQ(v.lane(3), 0.0);
}

TEST(SimdTest, MulAddRoundsTwiceOnEveryBackend) {
  // (1+e)(1-e) = 1 - e^2 with e = 2^-27: the product rounds to exactly 1.0,
  // so mul + add gives 0, while a fused multiply-add keeps -e^2 = -2^-54.
  const double e = std::ldexp(1.0, -27);
  const Vec4d r = Vec4d::mul_add(Vec4d::broadcast(1.0 + e),
                                 Vec4d::broadcast(1.0 - e),
                                 Vec4d::broadcast(-1.0));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(r.lane(i), 0.0) << i;
}

TEST(SimdTest, Hsum4UsesPairwiseAssociationOnEveryBackend) {
  // 1e16 has an ulp of 2, so 1e16 + 1 rounds back to 1e16 (ties to even).
  // For a and b the documented (l0+l2)+(l1+l3) gives 2 where the
  // (l0+l1)+(l2+l3) association gives 0; c is the other way round.
  const double big = 1e16;
  const Vec4d a = Vec4d::set(big, 1.0, -big, 1.0);
  const Vec4d b = Vec4d::set(1.0, big, 1.0, -big);
  const Vec4d c = Vec4d::set(big, -big, 1.0, 1.0);
  const Vec4d d = Vec4d::set(0.5, 0.25, 0.125, 3.0);
  const Vec4d r = simd::hsum4(a, b, c, d);
  EXPECT_EQ(r.lane(0), 2.0);
  EXPECT_EQ(r.lane(1), 2.0);
  EXPECT_EQ(r.lane(2), 0.0);
  EXPECT_EQ(r.lane(3), 3.875);
}

TEST(SimdTest, ZeroTailAndPadded4) {
  static_assert(base::padded4(0) == 0);
  static_assert(base::padded4(1) == 4);
  static_assert(base::padded4(4) == 4);
  static_assert(base::padded4(5) == 8);
  base::AlignedVec buf(base::padded4(6), -1.0);
  simd::zero_tail(buf.data(), 6, buf.size());
  EXPECT_EQ(buf[5], -1.0);
  EXPECT_EQ(buf[6], 0.0);
  EXPECT_EQ(buf[7], 0.0);
}

TEST(SimdTest, AlignedVecIs32ByteAligned) {
  base::AlignedVec v(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % 32, 0u);
}

// ---- exp4 -------------------------------------------------------------------

TEST(SimdTest, Exp4AccuracyOverClampedDomain) {
  // Dense sweep of the full clamped domain, four staggered lanes per step.
  double max_rel = 0.0;
  for (double x = -simd::kExpClamp; x <= simd::kExpClamp; x += 0.377) {
    const Vec4d in = Vec4d::set(x, x + 0.091, x + 0.173, x + 0.311);
    const Vec4d out = simd::exp4(in);
    for (std::size_t l = 0; l < 4; ++l) {
      const double xi = in.lane(l);
      if (xi > simd::kExpClamp) continue;
      const double ref = std::exp(xi);
      const double got = out.lane(l);
      ASSERT_TRUE(std::isfinite(got)) << "x=" << xi;
      ASSERT_GT(got, 0.0) << "x=" << xi;
      max_rel = std::max(max_rel, std::abs(got - ref) / ref);
    }
  }
  EXPECT_LE(max_rel, simd::kExpMaxRelError);
}

TEST(SimdTest, Exp4ExactAtZeroAndSaturatesBeyondClamp) {
  EXPECT_EQ(simd::exp4(Vec4d::zero()).lane(0), 1.0);
  const Vec4d big = simd::exp4(Vec4d::set(1e9, 800.0, -1e9, -800.0));
  // Clamped arguments saturate to exp(+/-700) — finite, positive, no inf.
  expect_rel_close(big.lane(0), std::exp(700.0), simd::kExpMaxRelError);
  expect_rel_close(big.lane(1), std::exp(700.0), simd::kExpMaxRelError);
  EXPECT_TRUE(std::isfinite(big.lane(0)));
  EXPECT_GT(big.lane(2), 0.0);
  EXPECT_EQ(big.lane(2), big.lane(3));
}

// ---- kernel vs. scalar oracle (full registry) -------------------------------

class SimdKernelParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SimdKernelParityTest, WirelengthScalarVsSimd) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const netlist::CompiledCircuit cc(c);
  const std::vector<double> v = registry_positions(c, 48.0);

  for (const bool lse : {false, true}) {
    std::unique_ptr<wirelength::SmoothWirelength> wl;
    if (lse) {
      wl = std::make_unique<wirelength::LseWirelength>(c);
    } else {
      wl = std::make_unique<wirelength::WaWirelength>(c);
    }
    wl->set_gamma(0.8);

    std::vector<double> g_scalar(v.size(), 0.0), g_simd(v.size(), 0.0);
    const double val_scalar = oracle::wirelength_value_and_grad(
        cc, lse ? oracle::Smoothing::kLse : oracle::Smoothing::kWa, 0.8, v,
        g_scalar);
    const double val_simd = wl->value_and_grad(v, g_simd);

    ASSERT_TRUE(std::isfinite(val_scalar));
    ASSERT_TRUE(std::isfinite(val_simd));
    expect_rel_close(val_scalar, val_simd);
    expect_vectors_close(g_scalar, g_simd);
  }
}

TEST_P(SimdKernelParityTest, ElectroDensityScalarVsSimd) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const netlist::CompiledCircuit cc(c);
  const double extent = 64.0;
  const std::vector<double> v = registry_positions(c, extent);

  density::ElectroDensity ed(c, {0, 0, extent, extent}, 64, 64, 0.8);
  std::vector<double> g_simd(v.size(), 0.0);
  const double val_simd = ed.value_and_grad(v, g_simd, 1.0);
  const std::vector<double> rho_simd(ed.rho().data().begin(),
                                     ed.rho().data().end());

  // Charge build and force pass of the oracle; the force pass samples the
  // field the production solve just computed and the potential synthesized
  // from its charge density on the dense basis.
  numeric::Matrix rho(64, 64), occupancy(64, 64);
  const double ovf_scalar = oracle::build_density(cc, ed.grid(), v, rho,
                                                  occupancy);
  const std::vector<double> rho_scalar(rho.data().begin(), rho.data().end());
  std::vector<double> g_scalar(v.size(), 0.0);
  const double val_scalar = oracle::overlap_force(
      cc, ed, oracle::synthesized_potential(ed), v, g_scalar, 1.0);

  ASSERT_TRUE(std::isfinite(val_scalar));
  expect_rel_close(val_scalar, val_simd);
  expect_rel_close(ovf_scalar, ed.overflow());
  expect_vectors_close(rho_scalar, rho_simd);
  expect_vectors_close(g_scalar, g_simd);
}

TEST_P(SimdKernelParityTest, ParsevalEnergyMatchesSynthesizedPotential) {
  // At the ePlace-A operating point (32 x 32 bins), the energy
  // value_and_grad computes from the DCT coefficients equals the
  // force-pass energy 1/2 sum_i q_i psi_i on the potential synthesized as
  // idct2d(a / w^2), for a clustered and a spread placement.
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const netlist::CompiledCircuit cc(c);
  const double extent = 48.0;
  density::ElectroDensity ed(c, {0, 0, extent, extent}, 32, 32, 0.8);
  for (const double spread : {0.5 * extent, extent}) {
    SCOPED_TRACE(spread);
    std::vector<double> v = registry_positions(c, spread);
    for (double& x : v) x += 0.5 * (extent - spread);
    std::vector<double> g(v.size(), 0.0), g_oracle(v.size(), 0.0);
    const double energy = ed.value_and_grad(v, g, 1.0);
    const double energy_oracle = oracle::overlap_force(
        cc, ed, oracle::synthesized_potential(ed), v, g_oracle, 1.0);
    ASSERT_GT(energy_oracle, 0.0);
    expect_rel_close(energy_oracle, energy);
  }
}

INSTANTIATE_TEST_SUITE_P(FullRegistry, SimdKernelParityTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// ---- FFT/DCT vs. the dense spectral basis -----------------------------------

TEST(SimdFftTest, SpectralTransformsScalarVsSimd) {
  using numeric::fft::Kind;
  for (const std::size_t n : {std::size_t{4}, std::size_t{8}, std::size_t{32},
                              std::size_t{256}}) {
    numeric::fft::FftPlan plan(n);
    const oracle::DenseBasis basis(n);
    // Four different lines, one per lane.
    std::vector<std::vector<double>> in(4, std::vector<double>(n));
    for (std::size_t l = 0; l < 4; ++l) {
      for (std::size_t i = 0; i < n; ++i) {
        in[l][i] = std::sin(0.37 * static_cast<double>(i) + 0.2 + 0.5 * l) +
                   0.25 * std::cos(1.9 * static_cast<double>(i + l));
      }
    }
    const struct {
      Kind kind;
      std::vector<double> (oracle::DenseBasis::*ref)(
          const std::vector<double>&) const;
    } cases[] = {
        {Kind::kDct2, &oracle::DenseBasis::dct},
        {Kind::kDct3, &oracle::DenseBasis::idct},
        {Kind::kDst3, &oracle::DenseBasis::sine_synthesis},
    };
    for (const auto& tc : cases) {
      // Lane-major scratch layout (stride 4, the row pass) and four
      // adjacent columns of a 12-wide matrix (stride 12, the column pass);
      // the other columns must stay untouched.
      for (const std::size_t stride : {std::size_t{4}, std::size_t{12}}) {
        std::vector<double> buf(stride * n, -7.0);
        for (std::size_t l = 0; l < 4; ++l) {
          for (std::size_t i = 0; i < n; ++i) buf[i * stride + l] = in[l][i];
        }
        plan.run(tc.kind, buf.data(), stride);
        for (std::size_t l = 0; l < 4; ++l) {
          std::vector<double> out(n);
          for (std::size_t i = 0; i < n; ++i) out[i] = buf[i * stride + l];
          expect_vectors_close((basis.*tc.ref)(in[l]), out);
        }
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t l = 4; l < stride; ++l) {
            EXPECT_EQ(buf[i * stride + l], -7.0);
          }
        }
      }
    }
  }
}

TEST(SimdFftTest, Dct2Dct3RoundTripWithSimd) {
  const std::size_t n = 64;
  numeric::fft::FftPlan plan(n);
  std::vector<double> in(4 * n);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(0.13 * static_cast<double>(i * i % 17));
  }
  std::vector<double> back = in;
  plan.run(numeric::fft::Kind::kDct2, back.data(), 4);
  plan.run(numeric::fft::Kind::kDct3, back.data(), 4);
  expect_vectors_close(in, back, 1e-11);
}

// ---- overflow regression: 1e6-unit coordinate spread ------------------------

TEST(SimdOverflowTest, WirelengthFiniteAtMillionUnitSpread) {
  // A chain net spanning 1e6 units: exp((c - min)/gamma) would overflow for
  // any naive (unshifted) exponential at gamma ~ 1. The kernel and the
  // oracle must stay finite and agree — the oracle max/min-shifts, the
  // kernel additionally clamps inside exp4.
  netlist::Circuit c("spread");
  std::vector<DeviceId> devs;
  std::vector<PinId> pins;
  for (int i = 0; i < 7; ++i) {
    // append(), not "D" + ...: gcc 12's -Wrestrict misfires on the latter.
    devs.push_back(c.add_device(std::string("D").append(std::to_string(i)),
                                netlist::DeviceType::Nmos, 2, 2));
    pins.push_back(c.add_pin(devs.back(), "p", {1, 1}));
  }
  c.add_net("chain", pins);
  c.add_net("pair",
            {c.add_pin(devs[0], "q", {0.5, 0.5}),
             c.add_pin(devs[6], "q", {0.5, 0.5})},
            /*weight=*/2.0);
  c.finalize();
  const netlist::CompiledCircuit cc(c);

  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.0e6 * static_cast<double>(i) / static_cast<double>(n - 1);
    v[n + i] = 0.5e6 * static_cast<double>((i * 3) % n) /
               static_cast<double>(n - 1);
  }

  for (const bool lse : {false, true}) {
    std::unique_ptr<wirelength::SmoothWirelength> wl;
    if (lse) {
      wl = std::make_unique<wirelength::LseWirelength>(c);
    } else {
      wl = std::make_unique<wirelength::WaWirelength>(c);
    }
    wl->set_gamma(1.0);

    std::vector<double> g_scalar(v.size(), 0.0), g_simd(v.size(), 0.0);
    const double val_scalar = oracle::wirelength_value_and_grad(
        cc, lse ? oracle::Smoothing::kLse : oracle::Smoothing::kWa, 1.0, v,
        g_scalar);
    const double val_simd = wl->value_and_grad(v, g_simd);

    ASSERT_TRUE(std::isfinite(val_scalar));
    ASSERT_TRUE(std::isfinite(val_simd));
    for (const double g : g_scalar) ASSERT_TRUE(std::isfinite(g));
    for (const double g : g_simd) ASSERT_TRUE(std::isfinite(g));
    expect_rel_close(val_scalar, val_simd);
    expect_vectors_close(g_scalar, g_simd);

    // At spread >> gamma the smoothed length converges to exact HPWL; for
    // WA from above within a vanishing margin. A loose sanity bracket:
    const double exact = wl->exact_hpwl(v);
    EXPECT_NEAR(val_scalar, exact, 1e-6 * exact);
  }
}

}  // namespace
}  // namespace aplace
