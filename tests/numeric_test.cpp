// Numeric substrate: vector helpers, dense matrix, spectral transforms and
// the three optimizers.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>

#include "base/check.hpp"
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

// A batch of four lines in lane-major order: element t of line l at
// [4 * t + l], as fft::FftPlan::run addresses it with stride 4.
std::vector<double> interleave(const std::vector<std::vector<double>>& lines) {
  const std::size_t n = lines[0].size();
  std::vector<double> out(4 * n);
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t t = 0; t < n; ++t) out[4 * t + l] = lines[l][t];
  }
  return out;
}

std::vector<double> lane(const std::vector<double>& batch, std::size_t l) {
  std::vector<double> out(batch.size() / 4);
  for (std::size_t t = 0; t < out.size(); ++t) out[t] = batch[4 * t + l];
  return out;
}

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-3, 3);
  return v;
}

TEST(SpectralTest, Dct1dRoundtrip) {
  const fft::FftPlan plan(16);
  Rng rng(5);
  std::vector<std::vector<double>> lines(4);
  for (auto& line : lines) line = random_vec(16, rng);
  std::vector<double> batch = interleave(lines);
  plan.run(fft::Kind::kDct2, batch.data(), 4);
  plan.run(fft::Kind::kDct3, batch.data(), 4);
  for (std::size_t l = 0; l < 4; ++l) {
    const std::vector<double> back = lane(batch, l);
    for (std::size_t i = 0; i < back.size(); ++i) {
      EXPECT_NEAR(back[i], lines[l][i], 1e-10) << "line " << l;
    }
  }
}

TEST(SpectralTest, DctOfCosineIsImpulse) {
  const std::size_t n = 32;
  const fft::FftPlan plan(n);
  const oracle::DenseBasis basis(n);
  // Line l holds v_j = cos(pi*k_l*(2j+1)/(2n)), whose DCT is delta_{k,k_l}.
  const std::size_t k0[4] = {5, 0, 1, 31};
  std::vector<std::vector<double>> lines(4, std::vector<double>(n));
  for (std::size_t l = 0; l < 4; ++l) {
    for (std::size_t j = 0; j < n; ++j) lines[l][j] = basis.cosine(k0[l], j);
  }
  std::vector<double> batch = interleave(lines);
  plan.run(fft::Kind::kDct2, batch.data(), 4);
  for (std::size_t l = 0; l < 4; ++l) {
    const std::vector<double> a = lane(batch, l);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_NEAR(a[k], k == k0[l] ? 1.0 : 0.0, 1e-10) << l << " " << k;
    }
  }
}

TEST(SpectralTest, Dct2dRoundtrip) {
  // Production analysis, then the per-line oracle's cosine synthesis (the
  // Poisson solve never synthesizes the potential itself).
  const std::size_t nx = 8, ny = 16;
  const fft::FftPlan px(nx), py(ny);
  const oracle::LineFftPlan lx(nx), ly(ny);
  Matrix m(ny, nx);
  Rng rng(7);
  for (double& x : m.data()) x = rng.uniform(-1, 1);
  Matrix a = m;
  fft::dct2d_inplace(a, px, py);
  const Matrix back = oracle::line_idct2d(a, lx, ly);
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
  const std::size_t k0[4] = {3, 1, 32, 63};
  std::vector<std::vector<double>> lines(4, std::vector<double>(n, 0.0));
  for (std::size_t l = 0; l < 4; ++l) lines[l][k0[l]] = 1.0;
  std::vector<double> batch = interleave(lines);
  plan.run(fft::Kind::kDst3, batch.data(), 4);
  for (std::size_t l = 0; l < 4; ++l) {
    const std::vector<double> synth = lane(batch, l);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(synth[j], basis.sine(k0[l], j), 1e-12) << l << " " << j;
    }
  }
}

// --- FFT path vs. dense-basis and per-line oracles ---------------------------

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

using Transform2d = void (*)(Matrix&, const fft::FftPlan&,
                             const fft::FftPlan&);

// All three in-place 2D transforms on a rows x cols grid against the
// dense-basis oracle, and the per-line oracle's cosine synthesis too.
void expect_2d_matches_oracle(std::size_t rows, std::size_t cols, Rng& rng) {
  const fft::FftPlan px(cols), py(rows);
  const oracle::DenseBasis bx(cols), by(rows);
  const Matrix m = random_matrix(rows, cols, rng);
  const struct {
    Transform2d fft;
    Matrix (*ref)(const Matrix&, const oracle::DenseBasis&,
                  const oracle::DenseBasis&);
  } cases[] = {
      {&fft::dct2d_inplace, &oracle::dct2d},
      {&fft::isxcy2d_inplace, &oracle::isxcy2d},
      {&fft::icxsy2d_inplace, &oracle::icxsy2d},
  };
  for (const auto& tc : cases) {
    Matrix out = m;
    tc.fft(out, px, py);
    expect_matrix_near(out, tc.ref(m, bx, by), 1e-10);
  }
  const oracle::LineFftPlan lx(cols), ly(rows);
  expect_matrix_near(oracle::line_idct2d(m, lx, ly),
                     oracle::idct2d(m, bx, by), 1e-10);
}

TEST(FftSpectralTest, Matches1dNaiveAcrossSizes) {
  Rng rng(11);
  const struct {
    fft::Kind kind;
    std::vector<double> (oracle::DenseBasis::*ref)(
        const std::vector<double>&) const;
    const char* name;
  } cases[] = {
      {fft::Kind::kDct2, &oracle::DenseBasis::dct, "dct"},
      {fft::Kind::kDct3, &oracle::DenseBasis::idct, "idct"},
      {fft::Kind::kDst3, &oracle::DenseBasis::sine_synthesis, "dst"},
  };
  for (const std::size_t n : {4u, 8u, 16u, 64u, 128u}) {
    const fft::FftPlan plan(n);
    const oracle::DenseBasis basis(n);
    std::vector<std::vector<double>> lines(4);
    for (auto& line : lines) line = random_vec(n, rng);
    for (const auto& tc : cases) {
      std::vector<double> batch = interleave(lines);
      plan.run(tc.kind, batch.data(), 4);
      for (std::size_t l = 0; l < 4; ++l) {
        const std::vector<double> got = lane(batch, l);
        const std::vector<double> ref = (basis.*tc.ref)(lines[l]);
        for (std::size_t j = 0; j < n; ++j) {
          EXPECT_NEAR(got[j], ref[j], 1e-10)
              << tc.name << " n=" << n << " line=" << l << " j=" << j;
        }
      }
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

TEST(FftSpectralTest, LaneBatchedPassesMatchPerLineOracleBitForBit) {
  // Each lane of a batched pass performs the per-line transform's
  // floating-point operations in the same order, so the results are equal,
  // not merely close.
  Rng rng(19);
  const struct {
    std::size_t rows, cols;
  } shapes[] = {{4, 4}, {8, 8}, {32, 32}, {256, 256}, {64, 16}, {16, 64}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(std::to_string(shape.cols) + "x" + std::to_string(shape.rows));
    const fft::FftPlan px(shape.cols), py(shape.rows);
    const oracle::LineFftPlan lx(shape.cols), ly(shape.rows);
    const Matrix m = random_matrix(shape.rows, shape.cols, rng);
    const struct {
      Transform2d fft;
      Matrix (*ref)(const Matrix&, const oracle::LineFftPlan&,
                    const oracle::LineFftPlan&);
    } cases[] = {
        {&fft::dct2d_inplace, &oracle::line_dct2d},
        {&fft::isxcy2d_inplace, &oracle::line_isxcy2d},
        {&fft::icxsy2d_inplace, &oracle::line_icxsy2d},
    };
    for (const auto& tc : cases) {
      Matrix out = m;
      tc.fft(out, px, py);
      const Matrix ref = tc.ref(m, lx, ly);
      for (std::size_t i = 0; i < out.data().size(); ++i) {
        ASSERT_EQ(out.data()[i], ref.data()[i]) << "index " << i;
      }
    }
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
  EXPECT_THROW(fft::FftPlan(12), CheckError);
}

TEST(FftSpectralTest, FftPlanRejectsFewerThanFourLines) {
  // A pass batches four lines, one per SIMD lane.
  EXPECT_THROW(fft::FftPlan(2), CheckError);
  EXPECT_NO_THROW(fft::FftPlan(fft::kMinSize));
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
