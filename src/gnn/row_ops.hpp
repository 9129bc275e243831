#pragma once
// Fixed-width row kernels shared by CircuitGraph and GnnModel. Each keeps
// the summation order of the dense row-major product it replaces
// (numeric::Matrix::multiply: out(i, j) starts at zero and takes
// a(i, k) * b(k, j) over ascending k, skipping a(i, k) == 0), so the sparse
// and fixed-width paths round exactly like the dense one. The loops over j
// are independent per element, so vectorizing them changes no bit.

#include <algorithm>
#include <cstddef>

#include "gnn/graph.hpp"

namespace aplace::gnn::detail {

/// acc[0..W) += a * row[0..W); a zero `a` contributes nothing.
template <std::size_t W>
inline void madd(double* acc, double a, const double* row) {
  if (a == 0.0) return;
  for (std::size_t j = 0; j < W; ++j) acc[j] += a * row[j];
}

/// out = A * in for sparse rows A (n rows) and row-major `in` of width W.
template <std::size_t W>
inline void aggregate(const SparseRows& a, const double* in, double* out) {
  const std::size_t n = a.start.size() - 1;
  for (std::size_t i = 0; i < n; ++i) {
    double acc[W] = {};
    for (std::uint32_t e = a.start[i]; e < a.start[i + 1]; ++e) {
      madd<W>(acc, a.val[e], in + static_cast<std::size_t>(a.col[e]) * W);
    }
    std::copy(acc, acc + W, out + i * W);
  }
}

}  // namespace aplace::gnn::detail
