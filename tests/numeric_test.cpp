// Numeric substrate: vector helpers, dense matrix, spectral transforms and
// the three optimizers.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "kernel_oracle.hpp"
#include "numeric/adam.hpp"
#include "numeric/cg.hpp"
#include "numeric/fft.hpp"
#include "numeric/matrix.hpp"
#include "numeric/nesterov.hpp"
#include "numeric/rng.hpp"
#include "numeric/vec.hpp"

namespace aplace::numeric {
namespace {

TEST(VecTest, BasicOps) {
  Vec a{1, 2, 3}, b{4, -5, 6};
  EXPECT_DOUBLE_EQ(dot(a, b), 4 - 10 + 18);
  EXPECT_DOUBLE_EQ(norm2(Vec{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 6.0);
  axpy(2.0, a, b);
  EXPECT_EQ(b, (Vec{6, -1, 12}));
  scale(b, 0.5);
  EXPECT_EQ(b, (Vec{3, -0.5, 6}));
  EXPECT_EQ(sub(a, Vec{1, 1, 1}), (Vec{0, 1, 2}));
}

TEST(MatrixTest, MultiplyAndTranspose) {
  Matrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  Matrix b(3, 2);
  b(0, 0) = 7; b(0, 1) = 8;
  b(1, 0) = 9; b(1, 1) = 10;
  b(2, 0) = 11; b(2, 1) = 12;
  const Matrix c = Matrix::multiply(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);

  const Matrix at = a.transposed();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6);
}

// --- spectral ---------------------------------------------------------------

using Transform1d = void (fft::FftPlan::*)(const double*, std::size_t, double*,
                                           std::size_t) const;

std::vector<double> apply(const fft::FftPlan& plan, Transform1d t,
                          const std::vector<double>& in) {
  std::vector<double> out(in.size());
  (plan.*t)(in.data(), 1, out.data(), 1);
  return out;
}

TEST(SpectralTest, Dct1dRoundtrip) {
  const fft::FftPlan plan(16);
  std::vector<double> v(16);
  Rng rng(5);
  for (double& x : v) x = rng.uniform(-2, 2);
  const std::vector<double> a = apply(plan, &fft::FftPlan::dct2, v);
  const std::vector<double> back = apply(plan, &fft::FftPlan::dct3, a);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(back[i], v[i], 1e-10);
  }
}

TEST(SpectralTest, DctOfCosineIsImpulse) {
  const std::size_t n = 32;
  const fft::FftPlan plan(n);
  const oracle::DenseBasis basis(n);
  // v_j = cos(pi*k0*(2j+1)/(2n)) should produce a_k = delta_{k,k0}.
  const std::size_t k0 = 5;
  std::vector<double> v(n);
  for (std::size_t j = 0; j < n; ++j) v[j] = basis.cosine(k0, j);
  const std::vector<double> a = apply(plan, &fft::FftPlan::dct2, v);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(a[k], k == k0 ? 1.0 : 0.0, 1e-10) << k;
  }
}

TEST(SpectralTest, Dct2dRoundtrip) {
  const std::size_t nx = 8, ny = 16;
  const fft::FftPlan px(nx), py(ny);
  Matrix m(ny, nx);
  Rng rng(7);
  for (double& x : m.data()) x = rng.uniform(-1, 1);
  Matrix back = m;
  fft::dct2d_inplace(back, px, py);
  fft::idct2d_inplace(back, px, py);
  for (std::size_t r = 0; r < ny; ++r) {
    for (std::size_t c = 0; c < nx; ++c) {
      EXPECT_NEAR(back(r, c), m(r, c), 1e-10);
    }
  }
}

TEST(SpectralTest, SineSynthesisDifferentiatesCosine) {
  // d/dx of cos(w x) = -w sin(w x): sine synthesis of DCT coefficients
  // scaled by w must reproduce minus the derivative of the cosine series.
  const std::size_t n = 64;
  const fft::FftPlan plan(n);
  const oracle::DenseBasis basis(n);
  const std::size_t k0 = 3;
  std::vector<double> a(n, 0.0);
  a[k0] = 1.0;
  const std::vector<double> synth = apply(plan, &fft::FftPlan::dst3, a);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(synth[j], basis.sine(k0, j), 1e-12);
  }
}

// --- FFT path vs. dense-basis oracle ----------------------------------------

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-3, 3);
  return v;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (double& x : m.data()) x = rng.uniform(-3, 3);
  return m;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, double tol) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      EXPECT_NEAR(a(r, c), b(r, c), tol) << "(" << r << ", " << c << ")";
    }
  }
}

// All four in-place 2D transforms on a rows x cols grid against the
// dense-basis oracle.
void expect_2d_matches_oracle(std::size_t rows, std::size_t cols, Rng& rng) {
  const fft::FftPlan px(cols), py(rows);
  const oracle::DenseBasis bx(cols), by(rows);
  const Matrix m = random_matrix(rows, cols, rng);
  const struct {
    void (*fft)(Matrix&, const fft::FftPlan&, const fft::FftPlan&);
    Matrix (*ref)(const Matrix&, const oracle::DenseBasis&,
                  const oracle::DenseBasis&);
  } cases[] = {
      {&fft::dct2d_inplace, &oracle::dct2d},
      {&fft::idct2d_inplace, &oracle::idct2d},
      {&fft::isxcy2d_inplace, &oracle::isxcy2d},
      {&fft::icxsy2d_inplace, &oracle::icxsy2d},
  };
  for (const auto& tc : cases) {
    Matrix out = m;
    tc.fft(out, px, py);
    expect_matrix_near(out, tc.ref(m, bx, by), 1e-10);
  }
}

TEST(FftSpectralTest, Matches1dNaiveAcrossSizes) {
  Rng rng(11);
  for (const std::size_t n : {4u, 8u, 16u, 64u, 128u}) {
    const fft::FftPlan plan(n);
    const oracle::DenseBasis basis(n);
    const std::vector<double> v = random_vec(n, rng);
    const std::vector<double> fwd = apply(plan, &fft::FftPlan::dct2, v);
    const std::vector<double> fwd_ref = basis.dct(v);
    const std::vector<double> cos_s = apply(plan, &fft::FftPlan::dct3, v);
    const std::vector<double> cos_ref = basis.idct(v);
    const std::vector<double> sin_s = apply(plan, &fft::FftPlan::dst3, v);
    const std::vector<double> sin_ref = basis.sine_synthesis(v);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(fwd[j], fwd_ref[j], 1e-10) << "dct n=" << n << " j=" << j;
      EXPECT_NEAR(cos_s[j], cos_ref[j], 1e-10) << "idct n=" << n << " j=" << j;
      EXPECT_NEAR(sin_s[j], sin_ref[j], 1e-10) << "dst n=" << n << " j=" << j;
    }
  }
}

TEST(FftSpectralTest, Matches2dNaiveAcrossSizes) {
  Rng rng(13);
  for (const std::size_t n : {4u, 8u, 16u, 64u, 128u}) {
    SCOPED_TRACE(n);
    expect_2d_matches_oracle(n, n, rng);
  }
}

TEST(FftSpectralTest, RectangularGridsMatchNaive) {
  Rng rng(17);
  {
    SCOPED_TRACE("16x64");
    expect_2d_matches_oracle(64, 16, rng);
  }
  {
    SCOPED_TRACE("32x8");
    expect_2d_matches_oracle(8, 32, rng);
  }
}

TEST(FftSpectralTest, FftPlanRejectsNonPow2) {
  EXPECT_TRUE(fft::is_pow2(2));
  EXPECT_TRUE(fft::is_pow2(256));
  EXPECT_FALSE(fft::is_pow2(0));
  EXPECT_FALSE(fft::is_pow2(1));
  EXPECT_FALSE(fft::is_pow2(12));
  EXPECT_EQ(fft::next_pow2(1), 2u);
  EXPECT_EQ(fft::next_pow2(33), 64u);
  EXPECT_EQ(fft::next_pow2(64), 64u);
}

// --- optimizers ---------------------------------------------------------------

TEST(NesterovTest, MinimizesQuadratic) {
  // f(v) = 0.5 * sum c_i (v_i - t_i)^2
  const Vec target{1.0, -2.0, 3.0, 0.5};
  const Vec curv{1.0, 4.0, 0.5, 2.0};
  Vec v{0, 0, 0, 0};
  NesterovOptions opts;
  opts.max_iters = 300;
  opts.initial_step = 0.1;
  const NesterovSolver solver(opts);
  solver.minimize(
      v,
      [&](std::span<const double> x, std::span<double> g) {
        for (std::size_t i = 0; i < x.size(); ++i) {
          g[i] = curv[i] * (x[i] - target[i]);
        }
      },
      [](const NesterovState& st, std::span<const double>) {
        return st.gradient_norm > 1e-9;
      });
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], target[i], 1e-5);
  }
}

TEST(NesterovTest, CallbackCanStopEarly) {
  Vec v{10.0};
  NesterovOptions opts;
  opts.max_iters = 1000;
  const NesterovSolver solver(opts);
  const int iters = solver.minimize(
      v,
      [](std::span<const double> x, std::span<double> g) { g[0] = x[0]; },
      [](const NesterovState& st, std::span<const double>) {
        return st.iter < 4;
      });
  EXPECT_EQ(iters, 5);
}

TEST(CgTest, MinimizesRosenbrockish) {
  // Classic Rosenbrock in 2D; CG with restarts should get close.
  Vec v{-1.2, 1.0};
  CgOptions opts;
  opts.max_iters = 2000;
  opts.initial_step = 1e-3;
  const CgSolver cg(opts);
  cg.minimize(
      v,
      [](std::span<const double> x, std::span<double> g) {
        const double a = x[0], b = x[1];
        g[0] = -2 * (1 - a) - 400 * a * (b - a * a);
        g[1] = 200 * (b - a * a);
        return (1 - a) * (1 - a) + 100 * (b - a * a) * (b - a * a);
      },
      nullptr);
  EXPECT_NEAR(v[0], 1.0, 0.05);
  EXPECT_NEAR(v[1], 1.0, 0.1);
}

TEST(CgTest, QuadraticExactlyInFewIters) {
  Vec v{5, -3};
  const CgSolver cg;
  cg.minimize(
      v,
      [](std::span<const double> x, std::span<double> g) {
        g[0] = 2 * x[0];
        g[1] = 8 * x[1];
        return x[0] * x[0] + 4 * x[1] * x[1];
      },
      nullptr);
  EXPECT_NEAR(v[0], 0, 1e-4);
  EXPECT_NEAR(v[1], 0, 1e-4);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  std::vector<double> p{4.0, -7.0};
  Adam adam(2, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    std::vector<double> g{2 * (p[0] - 1), 2 * (p[1] + 2)};
    adam.step(p, g);
  }
  EXPECT_NEAR(p[0], 1.0, 1e-3);
  EXPECT_NEAR(p[1], -2.0, 1e-3);
  EXPECT_EQ(adam.steps_taken(), 500);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
  Rng c(43);
  bool same = true;
  Rng a2(42);
  for (int i = 0; i < 10; ++i) same &= a2.uniform() == c.uniform();
  EXPECT_FALSE(same);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(-3, 5);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 5);
  }
}

}  // namespace
}  // namespace aplace::numeric
