#include "sa/sequence_pair.hpp"

#include <algorithm>
#include <numeric>

namespace aplace::sa {

SequencePair::SequencePair(std::size_t n)
    : seq_plus_(n), seq_minus_(n), pos_plus_(n), pos_minus_(n) {
  std::iota(seq_plus_.begin(), seq_plus_.end(), 0);
  std::iota(seq_minus_.begin(), seq_minus_.end(), 0);
  std::iota(pos_plus_.begin(), pos_plus_.end(), 0);
  std::iota(pos_minus_.begin(), pos_minus_.end(), 0);
}

void SequencePair::swap_in_plus(std::size_t i, std::size_t j) {
  APLACE_DCHECK(i < size() && j < size());
  std::swap(pos_plus_[seq_plus_[i]], pos_plus_[seq_plus_[j]]);
  std::swap(seq_plus_[i], seq_plus_[j]);
}

void SequencePair::swap_in_both(std::size_t i, std::size_t j) {
  swap_in_plus(i, j);
  APLACE_DCHECK(i < size() && j < size());
  std::swap(pos_minus_[seq_minus_[i]], pos_minus_[seq_minus_[j]]);
  std::swap(seq_minus_[i], seq_minus_[j]);
}

void SequencePair::shuffle(numeric::Rng& rng) {
  std::shuffle(seq_plus_.begin(), seq_plus_.end(), rng.engine());
  std::shuffle(seq_minus_.begin(), seq_minus_.end(), rng.engine());
  for (std::size_t p = 0; p < size(); ++p) {
    pos_plus_[seq_plus_[p]] = p;
    pos_minus_[seq_minus_[p]] = p;
  }
}

void SequencePair::pack_into(const std::vector<double>& widths,
                             const std::vector<double>& heights,
                             Packing& out) const {
  const std::size_t n = size();
  APLACE_CHECK(widths.size() == n && heights.size() == n);
  // Every block is written exactly once per pass, so no zero-fill: resize
  // keeps the existing storage when the caller reuses one Packing per move.
  out.x.resize(n);
  out.y.resize(n);
  out.width = 0;
  out.height = 0;

  // Small instances: each gamma- position is written exactly once per pass,
  // so a plain array with a linear prefix-max scan replaces the Fenwick
  // bit-walk, and the x pass (gamma+ forward) interleaves with the
  // independent y pass (gamma+ backward) so the two max-chains overlap.
  // max is exact regardless of scan order, so the coordinates are
  // bit-identical to the Fenwick path.
  if (n <= 32) {
    fenwick_.assign(2 * n, 0.0);
    double* fx = fenwick_.data();
    double* fy = fenwick_.data() + n;
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t bx = seq_plus_[p];
      const std::size_t qx = pos_minus_[bx];
      const std::size_t by = seq_plus_[n - 1 - p];
      const std::size_t qy = pos_minus_[by];
      double x = 0.0, y = 0.0;
      for (std::size_t i = 0; i < qx; ++i) x = std::max(x, fx[i]);
      for (std::size_t i = 0; i < qy; ++i) y = std::max(y, fy[i]);
      out.x[bx] = x;
      out.y[by] = y;
      const double rx = x + widths[bx];
      const double ry = y + heights[by];
      out.width = std::max(out.width, rx);
      out.height = std::max(out.height, ry);
      fx[qx] = rx;
      fy[qy] = ry;
    }
    return;
  }

  fenwick_.assign(n + 1, 0.0);

  // Fenwick prefix-max over gamma- positions: query(q) = max of inserted
  // values at positions < q, insert(q, v) raises the maxima covering q.
  // Each position is inserted exactly once per pass.
  const auto query = [&](std::size_t q) {
    double m = 0.0;
    for (std::size_t i = q; i > 0; i -= i & (~i + 1)) {
      m = std::max(m, fenwick_[i]);
    }
    return m;
  };
  const auto insert = [&](std::size_t q, double v) {
    for (std::size_t i = q + 1; i <= n; i += i & (~i + 1)) {
      fenwick_[i] = std::max(fenwick_[i], v);
    }
  };

  // x: process blocks in gamma+ order. A block c already processed has
  // pos_plus[c] < pos_plus[b]; restricting to pos_minus[c] < pos_minus[b]
  // leaves exactly the blocks left of b, whose reach x[c] + w[c] (final by
  // DAG order) the prefix max takes.
  for (std::size_t p = 0; p < n; ++p) {
    const std::size_t b = seq_plus_[p];
    const std::size_t q = pos_minus_[b];
    const double x = query(q);
    out.x[b] = x;
    const double reach = x + widths[b];
    out.width = std::max(out.width, reach);
    insert(q, reach);
  }

  // y: same with gamma+ reversed — a processed c has pos_plus[c] >
  // pos_plus[b], and pos_minus[c] < pos_minus[b] makes it the
  // below-relation.
  fenwick_.assign(n + 1, 0.0);
  for (std::size_t p = n; p-- > 0;) {
    const std::size_t b = seq_plus_[p];
    const std::size_t q = pos_minus_[b];
    const double y = query(q);
    out.y[b] = y;
    const double reach = y + heights[b];
    out.height = std::max(out.height, reach);
    insert(q, reach);
  }
}

SequencePair::Packing SequencePair::pack(
    const std::vector<double>& widths,
    const std::vector<double>& heights) const {
  Packing out;
  pack_into(widths, heights, out);
  return out;
}

}  // namespace aplace::sa
