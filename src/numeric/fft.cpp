#include "numeric/fft.hpp"

#include <cmath>
#include <numbers>
#include <utility>

#include "base/check.hpp"
#include "base/simd.hpp"
#include "obs/metrics.hpp"

namespace aplace::numeric::fft {

using simd::Vec4d;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

FftPlan::FftPlan(std::size_t n)
    : n_(n),
      rev_(n),
      qre_(n),
      qim_(n),
      re_(n),
      im_(n) {
  APLACE_CHECK_MSG(is_pow2(n), "FftPlan needs a power-of-two size >= 2");
  const double pi = std::numbers::pi;

  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < log2n; ++b) r |= ((i >> b) & 1) << (log2n - 1 - b);
    rev_[i] = r;
  }

  // Twiddles for every stage, flattened: the stage with half-size h uses
  // e^{-2 pi i m / (2h)} for m in [0, h), stored at offset h - 1.
  wre_.resize(n - 1);
  wim_.resize(n - 1);
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t m = 0; m < half; ++m) {
      const double ang = pi * static_cast<double>(m) / static_cast<double>(half);
      wre_[half - 1 + m] = std::cos(ang);
      wim_[half - 1 + m] = -std::sin(ang);
    }
  }

  for (std::size_t k = 0; k < n; ++k) {
    const double ang = pi * static_cast<double>(k) / (2.0 * static_cast<double>(n));
    qre_[k] = std::cos(ang);
    qim_[k] = std::sin(ang);
  }
}

void FftPlan::transform(bool inverse) const {
  double* re = re_.data();
  double* im = im_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t j = rev_[i];
    if (i < j) {
      std::swap(re[i], re[j]);
      std::swap(im[i], im[j]);
    }
  }
  for (std::size_t half = 1; half < n_; half <<= 1) {
    const std::size_t len = half << 1;
    const double* wr = &wre_[half - 1];
    const double* wi = &wim_[half - 1];
    if (half >= 4) {
      // 4-lane butterflies: for half >= 4 the m-loop touches contiguous
      // runs of re/im/twiddles (half is a power of two, so no tail).
      const Vec4d sign = Vec4d::broadcast(inverse ? -1.0 : 1.0);
      for (std::size_t start = 0; start < n_; start += len) {
        for (std::size_t m = 0; m < half; m += 4) {
          const std::size_t i = start + m;
          const std::size_t j = i + half;
          const Vec4d wrv = Vec4d::loadu(wr + m);
          const Vec4d wiv = Vec4d::loadu(wi + m) * sign;
          const Vec4d rej = Vec4d::loadu(re + j);
          const Vec4d imj = Vec4d::loadu(im + j);
          const Vec4d tr = wrv * rej - wiv * imj;
          const Vec4d ti = wrv * imj + wiv * rej;
          const Vec4d rei = Vec4d::loadu(re + i);
          const Vec4d imi = Vec4d::loadu(im + i);
          (rei - tr).storeu(re + j);
          (imi - ti).storeu(im + j);
          (rei + tr).storeu(re + i);
          (imi + ti).storeu(im + i);
        }
      }
      continue;
    }
    for (std::size_t start = 0; start < n_; start += len) {
      for (std::size_t m = 0; m < half; ++m) {
        const std::size_t i = start + m;
        const std::size_t j = i + half;
        const double wim = inverse ? -wi[m] : wi[m];
        const double tr = wr[m] * re[j] - wim * im[j];
        const double ti = wr[m] * im[j] + wim * re[j];
        re[j] = re[i] - tr;
        im[j] = im[i] - ti;
        re[i] += tr;
        im[i] += ti;
      }
    }
  }
}

void FftPlan::dct2(const double* in, std::size_t in_stride, double* out,
                   std::size_t out_stride) const {
  // Makhoul permutation: y = (v_0, v_2, ..., v_{n-2}, v_{n-1}, ..., v_3, v_1).
  const std::size_t h = n_ / 2;
  for (std::size_t j = 0; j < h; ++j) {
    re_[j] = in[(2 * j) * in_stride];
    re_[n_ - 1 - j] = in[(2 * j + 1) * in_stride];
  }
  std::fill(im_.begin(), im_.end(), 0.0);
  transform(false);
  // c_k = Re(e^{-i pi k/(2n)} Y_k) = sum_j v_j cos(pi k (2j+1)/(2n)), then
  // scale to the reconstruction-ready convention of the header.
  const double s = 2.0 / static_cast<double>(n_);
  out[0] = (0.5 * s) * re_[0];
  std::size_t k = 1;
  if (out_stride == 1) {
    const Vec4d sv = Vec4d::broadcast(s);
    for (; k + 4 <= n_; k += 4) {
      const Vec4d c =
          Vec4d::mul_add(Vec4d::loadu(&qre_[k]), Vec4d::loadu(&re_[k]),
                         Vec4d::loadu(&qim_[k]) * Vec4d::loadu(&im_[k]));
      (sv * c).storeu(out + k);
    }
  }
  for (; k < n_; ++k) {
    out[k * out_stride] = s * (qre_[k] * re_[k] + qim_[k] * im_[k]);
  }
}

void FftPlan::synthesize(double* out, std::size_t out_stride,
                         bool alternate) const {
  transform(true);
  const std::size_t h = n_ / 2;
  const double sign = alternate ? -1.0 : 1.0;
  for (std::size_t j = 0; j < h; ++j) {
    out[(2 * j) * out_stride] = re_[j];
    out[(2 * j + 1) * out_stride] = sign * re_[n_ - 1 - j];
  }
}

void FftPlan::dct3(const double* in, std::size_t in_stride, double* out,
                   std::size_t out_stride) const {
  // Rebuild the conjugate-symmetric spectrum Y_k = e^{i pi k/(2n)}
  // (c_k - i c_{n-k}) with c_0 = a_0, c_k = a_k / 2 (the 1/n of the inverse
  // FFT folded in), then one unnormalized inverse FFT and un-permute.
  re_[0] = in[0];
  im_[0] = 0.0;
  std::size_t k = 1;
  if (in_stride == 1) {
    const Vec4d half = Vec4d::broadcast(0.5);
    for (; k + 4 <= n_; k += 4) {
      const Vec4d x = half * Vec4d::loadu(in + k);
      // in[n-k], in[n-k-1], ... : a reversed contiguous run.
      const Vec4d y = half * Vec4d::loadu(in + n_ - k - 3).reverse();
      const Vec4d qr = Vec4d::loadu(&qre_[k]);
      const Vec4d qi = Vec4d::loadu(&qim_[k]);
      Vec4d::mul_add(qr, x, qi * y).storeu(&re_[k]);
      (qi * x - qr * y).storeu(&im_[k]);
    }
  }
  for (; k < n_; ++k) {
    const double x = 0.5 * in[k * in_stride];
    const double y = 0.5 * in[(n_ - k) * in_stride];
    re_[k] = qre_[k] * x + qim_[k] * y;
    im_[k] = qim_[k] * x - qre_[k] * y;
  }
  synthesize(out, out_stride, /*alternate=*/false);
}

void FftPlan::dst3(const double* in, std::size_t in_stride, double* out,
                   std::size_t out_stride) const {
  // sin(pi k (2j+1)/(2n)) = (-1)^j cos(pi (n-k) (2j+1)/(2n)): a dst3 is a
  // dct3 of the index-reversed coefficients (b_0 = 0, b_k = a_{n-k}) with
  // the odd output samples negated.
  re_[0] = 0.0;
  im_[0] = 0.0;
  std::size_t k = 1;
  if (in_stride == 1) {
    const Vec4d half = Vec4d::broadcast(0.5);
    for (; k + 4 <= n_; k += 4) {
      const Vec4d x = half * Vec4d::loadu(in + n_ - k - 3).reverse();
      const Vec4d y = half * Vec4d::loadu(in + k);
      const Vec4d qr = Vec4d::loadu(&qre_[k]);
      const Vec4d qi = Vec4d::loadu(&qim_[k]);
      Vec4d::mul_add(qr, x, qi * y).storeu(&re_[k]);
      (qi * x - qr * y).storeu(&im_[k]);
    }
  }
  for (; k < n_; ++k) {
    const double x = 0.5 * in[(n_ - k) * in_stride];
    const double y = 0.5 * in[k * in_stride];
    re_[k] = qre_[k] * x + qim_[k] * y;
    im_[k] = qim_[k] * x - qre_[k] * y;
  }
  synthesize(out, out_stride, /*alternate=*/true);
}

namespace {

using Transform1d = void (FftPlan::*)(const double*, std::size_t, double*,
                                      std::size_t) const;

// Rows with px (tx), then columns with py (ty), in place.
void apply_2d(Matrix& m, const FftPlan& px, const FftPlan& py, Transform1d tx,
              Transform1d ty) {
  APLACE_CHECK(m.cols() == px.size() && m.rows() == py.size());
  static const obs::Counter transforms = obs::counter("fft/transforms2d");
  transforms.inc();
  double* d = m.data().data();
  const std::size_t cols = m.cols();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    (px.*tx)(d + r * cols, 1, d + r * cols, 1);
  }
  for (std::size_t c = 0; c < cols; ++c) {
    (py.*ty)(d + c, cols, d + c, cols);
  }
}

}  // namespace

void dct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, &FftPlan::dct2, &FftPlan::dct2);
}

void idct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, &FftPlan::dct3, &FftPlan::dct3);
}

void isxcy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, &FftPlan::dst3, &FftPlan::dct3);
}

void icxsy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, &FftPlan::dct3, &FftPlan::dst3);
}

}  // namespace aplace::numeric::fft
