#pragma once
// Small free-function toolkit over std::vector<double>, the variable vector
// type used by the NLP solvers (v = (x_1..x_n, y_1..y_n)).

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "base/check.hpp"

namespace aplace::numeric {

using Vec = std::vector<double>;

[[nodiscard]] inline double dot(std::span<const double> a,
                                std::span<const double> b) {
  APLACE_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

[[nodiscard]] inline double norm2(std::span<const double> a) {
  return std::sqrt(dot(a, a));
}

/// y += alpha * x
inline void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  APLACE_DCHECK(x.size() == y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

inline void scale(std::span<double> x, double alpha) {
  for (double& v : x) v *= alpha;
}

/// out = a - b
[[nodiscard]] inline Vec sub(std::span<const double> a,
                             std::span<const double> b) {
  APLACE_DCHECK(a.size() == b.size());
  Vec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

/// True when every entry is neither NaN nor infinite. Used by the solver
/// watchdogs to catch numerical blow-ups before they poison the iterate.
[[nodiscard]] inline bool all_finite(std::span<const double> a) {
  for (double v : a) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace aplace::numeric
