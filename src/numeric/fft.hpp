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
// Every transform runs four independent lines at once, one per simd::Vec4d
// lane: a batch of four lines is addressed as `lines[t * stride + l]` for
// element t of line l, so four adjacent columns of a row-major matrix are
// one batch with stride = row length (one contiguous load per element), and
// a lane-major scratch buffer is one batch with stride 4. The bit reversal
// is folded into the input gather, and every butterfly stage and every
// quarter-wave twiddle is a 4-lane op with broadcast twiddles. Stages h and
// 2h run together on groups of four elements held in registers, and the
// last stage is fused into the output loop. Each lane performs the same
// floating-point operations in the same order as the one-line-at-a-time
// transforms of oracle::LineFftPlan (tests/kernel_oracle.hpp), so the
// results are bit-identical to it; the dense cos/sin basis
// oracle::DenseBasis checks the conventions.
//
// Tables (bit-reversal permutation, per-stage twiddles, quarter-wave
// factors) and scratch are precomputed at construction: O(n) memory and
// zero heap allocation per transform. Scratch is mutable, so a plan must
// not be shared across threads concurrently.
//
// The 2D transforms of the Poisson solve (density::ElectroDensity) run
// every row with one plan, then every column with another, in place on a
// row-major Matrix (rows = y, cols = x). Columns are read in place, four
// adjacent ones per batch; rows are gathered four at a time into lane-major
// scratch by 4x4 transposes and scattered back the same way.

#include <cstddef>
#include <vector>

#include "base/aligned.hpp"
#include "numeric/matrix.hpp"

namespace aplace::numeric::fft {

/// True for n >= 2 that are exact powers of two.
[[nodiscard]] constexpr bool is_pow2(std::size_t n) {
  return n >= 2 && (n & (n - 1)) == 0;
}

/// Shortest plan length: a batch holds four lines, so a 2D pass needs at
/// least four lines per axis.
inline constexpr std::size_t kMinSize = 4;

/// The three 1D transforms of the header comment.
enum class Kind { kDct2, kDct3, kDst3 };

class FftPlan {
 public:
  /// n must be a power of two >= kMinSize (checked).
  explicit FftPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Transform four lines in place: element t of line l is
  /// lines[t * stride + l], stride >= 4. The input is fully gathered into
  /// scratch before any output is written.
  void run(Kind kind, double* lines, std::size_t stride) const;

  /// Transform every row of m (m.cols() == size()), four rows per batch.
  void rows(Kind kind, Matrix& m) const;
  /// Transform every column of m (m.rows() == size()), four per batch.
  void cols(Kind kind, Matrix& m) const;

 private:
  /// In-place radix-2 Cooley-Tukey butterflies on the lane-major (re_, im_),
  /// whose input is already in bit-reversed order; inverse = conjugate
  /// twiddles, no 1/n normalization. Runs every stage but the last
  /// (half-size n/2), which dct2 and synthesize fuse into their output
  /// loops.
  void butterflies(bool inverse) const;
  void dct2(double* lines, std::size_t stride) const;
  /// Shared by dct3/dst3: quarter-wave twist of the coefficients read from
  /// `lines` (index-reversed for dst3) into the spectrum, inverse FFT, and
  /// the un-permuted real part written back (odd samples negated for dst3).
  void synthesize(double* lines, std::size_t stride, bool sine) const;

  std::size_t n_;
  std::vector<std::size_t> rev_;     // bit-reversal permutation
  base::AlignedVec wre_, wim_;       // stage twiddles e^{-2 pi i m / len},
                                     // stage with half-size h at offset h - 1
  base::AlignedVec qre_, qim_;       // quarter-wave cos/sin(pi k / (2n))
  mutable base::AlignedVec re_, im_;  // lane-major complex work, 4n each
  mutable base::AlignedVec lines_;    // lane-major row batch, 4n
};

// 2D transforms of m (m.cols() == px.size(), m.rows() == py.size()): rows
// with px, then columns with py, overwriting m with no heap allocation.
// Each call bumps the fft/transforms2d counter.

/// Forward DCT along x and y: m(r, c) -> a(v, u), v the y-frequency.
void dct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);
/// Sine synthesis along x, cosine along y (x-field component).
void isxcy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);
/// Cosine synthesis along x, sine along y (y-field component).
void icxsy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py);

}  // namespace aplace::numeric::fft
