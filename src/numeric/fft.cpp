#include "numeric/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "base/check.hpp"
#include "base/simd.hpp"
#include "obs/metrics.hpp"

namespace aplace::numeric::fft {

using simd::Vec4d;

FftPlan::FftPlan(std::size_t n)
    : n_(n),
      rev_(n),
      qre_(n),
      qim_(n),
      re_(simd::kLanes * n),
      im_(simd::kLanes * n),
      lines_(simd::kLanes * n) {
  APLACE_CHECK_MSG(is_pow2(n) && n >= kMinSize,
                   "FftPlan needs a power-of-two size >= 4");
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

namespace {

// One radix-2 butterfly on four lanes: (x, y) <- (x + w y, x - w y), with
// the products and sums of the one-line transform in the same order.
inline void butterfly(Vec4d& xr, Vec4d& xi, Vec4d& yr, Vec4d& yi, Vec4d wr,
                      Vec4d wi) {
  const Vec4d tr = wr * yr - wi * yi;
  const Vec4d ti = wr * yi + wi * yr;
  yr = xr - tr;
  yi = xi - ti;
  xr = xr + tr;
  xi = xi + ti;
}

}  // namespace

void FftPlan::butterflies(bool inverse) const {
  double* re = re_.data();
  double* im = im_.data();
  const auto twiddle = [&](std::size_t half, std::size_t m,
                           Vec4d& wr, Vec4d& wi) {
    wr = Vec4d::broadcast(wre_[half - 1 + m]);
    const double w = wim_[half - 1 + m];
    wi = Vec4d::broadcast(inverse ? -w : w);
  };
  std::size_t half = 1;
  // Stages h and 2h at once: each group {a, a+h, a+2h, a+3h} runs its two
  // stage-h butterflies, then its two stage-2h ones, in registers. Every
  // butterfly of a stage is independent of the others, so this is the
  // stage-by-stage arithmetic with half the loads and stores.
  for (; 8 * half <= n_; half *= 4) {
    for (std::size_t m = 0; m < half; ++m) {
      Vec4d w1r, w1i, w2r, w2i, w3r, w3i;
      twiddle(half, m, w1r, w1i);
      twiddle(2 * half, m, w2r, w2i);
      twiddle(2 * half, m + half, w3r, w3i);
      for (std::size_t a = 4 * m; a < 4 * n_; a += 16 * half) {
        const std::size_t b = a + 4 * half, c = b + 4 * half, d = c + 4 * half;
        Vec4d ar = Vec4d::load(re + a), ai = Vec4d::load(im + a);
        Vec4d br = Vec4d::load(re + b), bi = Vec4d::load(im + b);
        Vec4d cr = Vec4d::load(re + c), ci = Vec4d::load(im + c);
        Vec4d dr = Vec4d::load(re + d), di = Vec4d::load(im + d);
        butterfly(ar, ai, br, bi, w1r, w1i);
        butterfly(cr, ci, dr, di, w1r, w1i);
        butterfly(ar, ai, cr, ci, w2r, w2i);
        butterfly(br, bi, dr, di, w3r, w3i);
        ar.store(re + a);
        ai.store(im + a);
        br.store(re + b);
        bi.store(im + b);
        cr.store(re + c);
        ci.store(im + c);
        dr.store(re + d);
        di.store(im + d);
      }
    }
  }
  if (4 * half <= n_) {  // a stage left over before the last one
    for (std::size_t m = 0; m < half; ++m) {
      Vec4d wr, wi;
      twiddle(half, m, wr, wi);
      for (std::size_t a = 4 * m; a < 4 * n_; a += 8 * half) {
        const std::size_t b = a + 4 * half;
        Vec4d ar = Vec4d::load(re + a), ai = Vec4d::load(im + a);
        Vec4d br = Vec4d::load(re + b), bi = Vec4d::load(im + b);
        butterfly(ar, ai, br, bi, wr, wi);
        ar.store(re + a);
        ai.store(im + a);
        br.store(re + b);
        bi.store(im + b);
      }
    }
  }
}

void FftPlan::dct2(double* lines, std::size_t stride) const {
  // Makhoul permutation y = (v_0, v_2, ..., v_{n-2}, v_{n-1}, ..., v_3, v_1),
  // written straight to its bit-reversed slot.
  double* re = re_.data();
  double* im = im_.data();
  const std::size_t h = n_ / 2;
  for (std::size_t j = 0; j < h; ++j) {
    Vec4d::loadu(lines + (2 * j) * stride).store(re + 4 * rev_[j]);
    Vec4d::loadu(lines + (2 * j + 1) * stride)
        .store(re + 4 * rev_[n_ - 1 - j]);
  }
  std::fill(im_.begin(), im_.end(), 0.0);
  butterflies(false);
  // Last stage, then c_k = Re(e^{-i pi k/(2n)} Y_k) =
  // sum_j v_j cos(pi k (2j+1)/(2n)), scaled to the reconstruction-ready
  // convention of the header.
  const double s = 2.0 / static_cast<double>(n_);
  const Vec4d sv = Vec4d::broadcast(s);
  const auto coefficient = [&](std::size_t k, Vec4d yr, Vec4d yi) {
    return sv * (Vec4d::broadcast(qre_[k]) * yr +
                 Vec4d::broadcast(qim_[k]) * yi);
  };
  for (std::size_t m = 0; m < h; ++m) {
    Vec4d xr = Vec4d::load(re + 4 * m), xi = Vec4d::load(im + 4 * m);
    Vec4d yr = Vec4d::load(re + 4 * (m + h));
    Vec4d yi = Vec4d::load(im + 4 * (m + h));
    butterfly(xr, xi, yr, yi, Vec4d::broadcast(wre_[h - 1 + m]),
              Vec4d::broadcast(wim_[h - 1 + m]));
    (m == 0 ? Vec4d::broadcast(0.5 * s) * xr : coefficient(m, xr, xi))
        .storeu(lines + m * stride);
    coefficient(m + h, yr, yi).storeu(lines + (m + h) * stride);
  }
}

void FftPlan::synthesize(double* lines, std::size_t stride, bool sine) const {
  // dct3: rebuild the conjugate-symmetric spectrum Y_k = e^{i pi k/(2n)}
  // (c_k - i c_{n-k}) with c_0 = a_0, c_k = a_k / 2 (the 1/n of the inverse
  // FFT folded in), then one unnormalized inverse FFT and un-permute.
  // dst3: sin(pi k (2j+1)/(2n)) = (-1)^j cos(pi (n-k) (2j+1)/(2n)), so it is
  // a dct3 of the index-reversed coefficients (b_0 = 0, b_k = a_{n-k}) with
  // the odd output samples negated.
  double* re = re_.data();
  double* im = im_.data();
  const Vec4d half = Vec4d::broadcast(0.5);
  (sine ? Vec4d::zero() : Vec4d::loadu(lines)).store(re);
  Vec4d::zero().store(im);
  for (std::size_t k = 1; k < n_; ++k) {
    const Vec4d a = half * Vec4d::loadu(lines + k * stride);
    const Vec4d b = half * Vec4d::loadu(lines + (n_ - k) * stride);
    const Vec4d x = sine ? b : a;
    const Vec4d y = sine ? a : b;
    const Vec4d qr = Vec4d::broadcast(qre_[k]);
    const Vec4d qi = Vec4d::broadcast(qim_[k]);
    const std::size_t slot = 4 * rev_[k];
    (qr * x + qi * y).store(re + slot);
    (qi * x - qr * y).store(im + slot);
  }
  butterflies(true);
  // Last stage, real parts only, fused with the un-permutation
  // out[2j] = re[j], out[2j+1] = sign * re[n-1-j]: butterflies j and
  // h-1-j of the stage (pairs (m, m+h)) produce exactly those four outputs.
  const std::size_t h = n_ / 2;
  const Vec4d sign = Vec4d::broadcast(sine ? -1.0 : 1.0);
  const auto last_stage = [&](std::size_t m, Vec4d& top, Vec4d& bottom) {
    const Vec4d wr = Vec4d::broadcast(wre_[h - 1 + m]);
    const Vec4d wi = Vec4d::broadcast(-wim_[h - 1 + m]);
    const Vec4d xr = Vec4d::load(re + 4 * m);
    const Vec4d tr = wr * Vec4d::load(re + 4 * (m + h)) -
                     wi * Vec4d::load(im + 4 * (m + h));
    bottom = xr - tr;
    top = xr + tr;
  };
  for (std::size_t j = 0; j < h / 2; ++j) {
    const std::size_t k = h - 1 - j;
    Vec4d top_j, bottom_j, top_k, bottom_k;
    last_stage(j, top_j, bottom_j);
    last_stage(k, top_k, bottom_k);
    top_j.storeu(lines + (2 * j) * stride);
    (sign * bottom_k).storeu(lines + (2 * j + 1) * stride);
    top_k.storeu(lines + (2 * k) * stride);
    (sign * bottom_j).storeu(lines + (2 * k + 1) * stride);
  }
}

void FftPlan::run(Kind kind, double* lines, std::size_t stride) const {
  APLACE_DCHECK(stride >= simd::kLanes);
  switch (kind) {
    case Kind::kDct2:
      dct2(lines, stride);
      break;
    case Kind::kDct3:
      synthesize(lines, stride, /*sine=*/false);
      break;
    case Kind::kDst3:
      synthesize(lines, stride, /*sine=*/true);
      break;
  }
}

void FftPlan::rows(Kind kind, Matrix& m) const {
  APLACE_CHECK(m.cols() == n_ && m.rows() % simd::kLanes == 0);
  double* buf = lines_.data();
  for (std::size_t r = 0; r < m.rows(); r += simd::kLanes) {
    // Rows r..r+3 start at p, p + n, p + 2n, p + 3n.
    double* p = &m(r, 0);
    for (std::size_t t = 0; t < n_; t += simd::kLanes) {
      Vec4d a = Vec4d::loadu(p + t), b = Vec4d::loadu(p + n_ + t),
            c = Vec4d::loadu(p + 2 * n_ + t), d = Vec4d::loadu(p + 3 * n_ + t);
      simd::transpose4(a, b, c, d);
      a.store(buf + 4 * t);
      b.store(buf + 4 * t + 4);
      c.store(buf + 4 * t + 8);
      d.store(buf + 4 * t + 12);
    }
    run(kind, buf, simd::kLanes);
    for (std::size_t t = 0; t < n_; t += simd::kLanes) {
      Vec4d a = Vec4d::load(buf + 4 * t), b = Vec4d::load(buf + 4 * t + 4),
            c = Vec4d::load(buf + 4 * t + 8), d = Vec4d::load(buf + 4 * t + 12);
      simd::transpose4(a, b, c, d);
      a.storeu(p + t);
      b.storeu(p + n_ + t);
      c.storeu(p + 2 * n_ + t);
      d.storeu(p + 3 * n_ + t);
    }
  }
}

void FftPlan::cols(Kind kind, Matrix& m) const {
  APLACE_CHECK(m.rows() == n_ && m.cols() % simd::kLanes == 0);
  double* d = m.data().data();
  for (std::size_t c = 0; c < m.cols(); c += simd::kLanes) {
    run(kind, d + c, m.cols());
  }
}

namespace {

// Rows with px (kx), then columns with py (ky), in place.
void apply_2d(Matrix& m, const FftPlan& px, const FftPlan& py, Kind kx,
              Kind ky) {
  APLACE_CHECK(m.cols() == px.size() && m.rows() == py.size());
  static const obs::Counter transforms = obs::counter("fft/transforms2d");
  transforms.inc();
  px.rows(kx, m);
  py.cols(ky, m);
}

}  // namespace

void dct2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, Kind::kDct2, Kind::kDct2);
}

void isxcy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, Kind::kDst3, Kind::kDct3);
}

void icxsy2d_inplace(Matrix& m, const FftPlan& px, const FftPlan& py) {
  apply_2d(m, px, py, Kind::kDct3, Kind::kDst3);
}

}  // namespace aplace::numeric::fft
