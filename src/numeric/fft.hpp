#pragma once
// Real-input spectral kernels on an iterative radix-2 complex FFT.
//
// One FftPlan serves a fixed power-of-two length n and provides the three
// 1D transforms the electrostatic Poisson solve needs, each O(n log n):
//
//   dct2  : a_k = (2/n) w(k) sum_j v_j cos(pi k (2j+1) / (2n)),
//           w(0) = 1/2, w(k>0) = 1   (forward analysis producing
//           reconstruction-ready coefficients)
//   dct3  : v_j = a_0 + sum_{k>=1} a_k cos(pi k (2j+1) / (2n))
//           (cosine synthesis, exact inverse of dct2)
//   dst3  : s_j = sum_{k>=1} a_k sin(pi k (2j+1) / (2n))
//           (sine synthesis; a_0 is ignored since sin(0) = 0)
//
// All three reduce to a single length-n complex FFT via Makhoul's
// even/odd permutation plus a quarter-wave twist; dst3 additionally uses
// the flip identity sin(pi k (2j+1)/(2n)) = (-1)^j cos(pi (n-k) (2j+1)/(2n)),
// so it is a dct3 of the index-reversed coefficients with alternating signs.
//
// Tables (bit-reversal permutation, per-stage twiddles, quarter-wave
// factors) and scratch are precomputed at construction: O(n) memory and
// zero heap allocation per transform. Inputs/outputs are strided so the
// same plan runs row transforms (stride 1) and column transforms
// (stride = row length) of a row-major matrix in place. Scratch is
// mutable, so a plan must not be shared across threads concurrently.
//
// Butterfly stages with half-size >= 4 and the stride-1 quarter-wave
// twiddle loops run on 4-lane simd::Vec4d kernels; the first two stages and
// strided (column) twiddles take plain scalar loops, picked by the input's
// shape alone. The dense cos/sin basis oracle::DenseBasis in
// tests/kernel_oracle.hpp is the test oracle (tests/simd_test.cpp).
//
// The 2D transforms of the Poisson solve (density::ElectroDensity) apply a
// 1D transform along every row with one plan, then along every column with
// another, in place on a row-major Matrix (rows = y, cols = x).

#include <cstddef>
#include <vector>

#include "base/aligned.hpp"
#include "numeric/matrix.hpp"

namespace aplace::numeric::fft {

/// True for n >= 2 that are exact powers of two (FFT-eligible sizes).
[[nodiscard]] constexpr bool is_pow2(std::size_t n) {
  return n >= 2 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n (and >= 2).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

class FftPlan {
 public:
  /// n must satisfy is_pow2(n).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  // Each transform reads n values at `in[t * in_stride]` and writes n
  // values at `out[t * out_stride]`. `in == out` (any strides) is fine:
  // the input is fully gathered into scratch before outputs are written.

  void dct2(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const;
  void dct3(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const;
  void dst3(const double* in, std::size_t in_stride, double* out,
            std::size_t out_stride) const;

 private:
  /// In-place radix-2 Cooley-Tukey on (re_, im_); inverse = conjugate
  /// twiddles, no 1/n normalization.
  void transform(bool inverse) const;
  /// Shared synthesis tail of dct3/dst3: spectrum already in (re_, im_).
  void synthesize(double* out, std::size_t out_stride, bool alternate) const;

  std::size_t n_;
  std::vector<std::size_t> rev_;     // bit-reversal permutation
  base::AlignedVec wre_, wim_;       // stage twiddles e^{-2 pi i m / len},
                                     // stage with half-size h at offset h - 1
  base::AlignedVec qre_, qim_;       // quarter-wave cos/sin(pi k / (2n))
  mutable base::AlignedVec re_, im_;  // complex work buffer
};

// 2D transforms of m (m.cols() == px.size(), m.rows() == py.size()): rows
// with px, then columns with py, overwriting m with no heap allocation.
// Each call bumps the fft/transforms2d counter.

/// Forward DCT along x and y: m(r, c) -> a(v, u), v the y-frequency.
void dct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);
/// Cosine synthesis along x and y (exact inverse of dct2d_inplace).
void idct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);
/// Sine synthesis along x, cosine along y (x-field component).
void isxcy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);
/// Cosine synthesis along x, sine along y (y-field component).
void icxsy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);

}  // namespace aplace::numeric::fft
