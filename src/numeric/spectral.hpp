#pragma once
// Separable cosine/sine spectral transforms for the electrostatic density
// system (ePlace-style Poisson solve with Neumann boundary conditions).
//
// Conventions (per dimension, N bins):
//   forward DCT (analysis, reconstruction-ready coefficients):
//     a_k = (2/N) * w(k) * sum_j v_j cos(pi k (2j+1) / (2N)),  w(0)=1/2, w(k)=1
//   inverse DCT (synthesis):
//     v_j = sum_k a_k cos(pi k (2j+1) / (2N))       -- exact inverse
//   sine synthesis (for field components):
//     s_j = sum_k a_k sin(pi k (2j+1) / (2N))
//
// Two execution paths share these conventions:
//   * FFT (numeric/fft): O(N log N) per 1D transform, O(N) table memory.
//     Taken automatically when N is a power of two — which the placement
//     flows guarantee (gp options round bin counts up).
//   * Naive dense basis: O(N^2) per transform with O(N^2) precomputed
//     cos/sin tables, built lazily. Reference fallback for arbitrary N and
//     the test oracle for the FFT path.
//
// The 2D transforms apply the 1D transform along rows then columns; the
// *_inplace variants overwrite their argument and perform no heap
// allocation (all scratch lives in the Basis / its plan), which is what the
// per-iteration Poisson solve in density::ElectroDensity uses.

#include <memory>
#include <vector>

#include "numeric/fft.hpp"
#include "numeric/matrix.hpp"

namespace aplace::numeric::spectral {

/// Per-dimension transform engine of size n: an FFT plan when n is a power
/// of two, plus lazily built dense cos/sin tables for the reference path.
/// Transform scratch is mutable — not safe for concurrent use of one Basis.
class Basis {
 public:
  explicit Basis(std::size_t n);
  ~Basis();
  Basis(Basis&&) noexcept;
  Basis& operator=(Basis&&) noexcept;

  [[nodiscard]] std::size_t size() const { return n_; }
  /// True when the O(n log n) FFT path backs dct/idct/sine_synthesis.
  [[nodiscard]] bool uses_fft() const { return plan_ != nullptr; }

  /// cos(pi k (2j+1) / (2n)); builds the dense table on first use.
  [[nodiscard]] double cosine(std::size_t k, std::size_t j) const;
  /// sin(pi k (2j+1) / (2n)); builds the dense table on first use.
  [[nodiscard]] double sine(std::size_t k, std::size_t j) const;

  /// Forward DCT producing reconstruction-ready coefficients (see header).
  [[nodiscard]] std::vector<double> dct(const std::vector<double>& v) const;
  /// Exact inverse of dct().
  [[nodiscard]] std::vector<double> idct(const std::vector<double>& a) const;
  /// Sine synthesis of DCT coefficients (a_0 ignored since sin(0)=0).
  [[nodiscard]] std::vector<double> sine_synthesis(
      const std::vector<double>& a) const;

  // Strided allocation-free primitives (dispatch to FFT when available).
  // Read n values at in[t*in_stride], write n at out[t*out_stride]; the
  // input is gathered before outputs are written, so in == out is fine.
  void dct_strided(const double* in, std::size_t in_stride, double* out,
                   std::size_t out_stride) const;
  void idct_strided(const double* in, std::size_t in_stride, double* out,
                    std::size_t out_stride) const;
  void sine_synthesis_strided(const double* in, std::size_t in_stride,
                              double* out, std::size_t out_stride) const;

  // Dense-basis reference implementations (the FFT test oracle). Always
  // O(n^2), regardless of uses_fft().
  [[nodiscard]] std::vector<double> naive_dct(
      const std::vector<double>& v) const;
  [[nodiscard]] std::vector<double> naive_idct(
      const std::vector<double>& a) const;
  [[nodiscard]] std::vector<double> naive_sine_synthesis(
      const std::vector<double>& a) const;

 private:
  enum class Kind : std::uint8_t { Dct, Idct, SineSynth };

  void ensure_tables() const;
  void naive_strided(Kind kind, const double* in, std::size_t in_stride,
                     double* out, std::size_t out_stride) const;
  std::size_t n_;
  std::unique_ptr<fft::FftPlan> plan_;   // power-of-two sizes only
  mutable std::vector<double> cos_;      // lazy [k * n + j] dense tables
  mutable std::vector<double> sin_;
  mutable std::vector<double> gather_;   // naive-path strided scratch
  mutable std::vector<double> result_;
};

/// 2D forward DCT: rows transformed with `bx`, columns with `by`.
/// Input m(r, c): r indexes y bins, c indexes x bins. Output coefficient
/// matrix a(v, u) with v the y-frequency and u the x-frequency.
[[nodiscard]] Matrix dct2d(const Matrix& m, const Basis& bx, const Basis& by);

/// 2D cosine synthesis (exact inverse of dct2d).
[[nodiscard]] Matrix idct2d(const Matrix& a, const Basis& bx, const Basis& by);

/// Mixed synthesis: sine along x, cosine along y (x-field component).
[[nodiscard]] Matrix isxcy2d(const Matrix& a, const Basis& bx,
                             const Basis& by);
/// Mixed synthesis: cosine along x, sine along y (y-field component).
[[nodiscard]] Matrix icxsy2d(const Matrix& a, const Basis& bx,
                             const Basis& by);

// In-place variants: overwrite `m`, zero heap allocation per call. The hot
// path for the per-iteration Poisson solve.
void dct2d_inplace(Matrix& m, const Basis& bx, const Basis& by);
void idct2d_inplace(Matrix& m, const Basis& bx, const Basis& by);
void isxcy2d_inplace(Matrix& m, const Basis& bx, const Basis& by);
void icxsy2d_inplace(Matrix& m, const Basis& bx, const Basis& by);

// Dense-basis reference 2D transforms (oracle / benchmark baseline).
[[nodiscard]] Matrix dct2d_naive(const Matrix& m, const Basis& bx,
                                 const Basis& by);
[[nodiscard]] Matrix idct2d_naive(const Matrix& a, const Basis& bx,
                                  const Basis& by);
[[nodiscard]] Matrix isxcy2d_naive(const Matrix& a, const Basis& bx,
                                   const Basis& by);
[[nodiscard]] Matrix icxsy2d_naive(const Matrix& a, const Basis& bx,
                                   const Basis& by);

}  // namespace aplace::numeric::spectral
