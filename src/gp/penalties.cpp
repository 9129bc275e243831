#include "gp/penalties.hpp"

#include <algorithm>
#include <cmath>

namespace aplace::gp {
namespace {

using netlist::Axis;

// Index of the mirrored coordinate of device d in v: x block for a vertical
// axis, y block for a horizontal one.
std::size_t mir_idx(std::size_t d, Axis a, std::size_t n) {
  return a == Axis::Vertical ? d : n + d;
}
std::size_t ort_idx(std::size_t d, Axis a, std::size_t n) {
  return a == Axis::Vertical ? n + d : d;
}

// Least-squares-optimal axis position for a group at the current v:
// minimizes sum_p (v_a + v_b - 2m)^2 + sum_s (v_d - m)^2. At this m the
// derivative w.r.t. m vanishes, so the penalty gradient may treat the axis
// as a constant (envelope theorem). Note pairs carry weight 4 (the 2m) and
// selfs weight 1 — a plain mean of midpoints would NOT be the minimizer.
double optimal_axis(std::span<const double> v,
                    const netlist::CompiledCircuit& cc, std::size_t g,
                    std::size_t n) {
  const Axis axis = cc.sym_axis(g);
  const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
  const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
  double num = 0, den = 0;
  for (std::size_t p = 0; p < pa.size(); ++p) {
    num += 2.0 * (v[mir_idx(pa[p], axis, n)] + v[mir_idx(pb[p], axis, n)]);
    den += 4.0;
  }
  for (std::uint32_t d : cc.sym_self(g)) {
    num += v[mir_idx(d, axis, n)];
    den += 1.0;
  }
  return num / den;
}

}  // namespace

ConstraintPenalties::ConstraintPenalties(netlist::CompiledRef compiled)
    : compiled_(std::move(compiled)), n_(compiled_->num_devices()) {}

double ConstraintPenalties::symmetry(std::span<const double> v,
                                     std::span<double> grad,
                                     double scale) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  double total = 0;
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const Axis axis = cc.sym_axis(g);
    const double m = optimal_axis(v, cc, g, n_);
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t p = 0; p < pa.size(); ++p) {
      const std::size_t ma = mir_idx(pa[p], axis, n_);
      const std::size_t mb = mir_idx(pb[p], axis, n_);
      const std::size_t oa = ort_idx(pa[p], axis, n_);
      const std::size_t ob = ort_idx(pb[p], axis, n_);
      const double e_orth = v[oa] - v[ob];
      const double e_mir = v[ma] + v[mb] - 2.0 * m;
      total += e_orth * e_orth + e_mir * e_mir;
      grad[oa] += scale * 2.0 * e_orth;
      grad[ob] -= scale * 2.0 * e_orth;
      grad[ma] += scale * 2.0 * e_mir;
      grad[mb] += scale * 2.0 * e_mir;
    }
    for (std::uint32_t d : cc.sym_self(g)) {
      const std::size_t md = mir_idx(d, axis, n_);
      const double e = v[md] - m;
      total += e * e;
      grad[md] += scale * 2.0 * e;
    }
  }
  return total;
}

double ConstraintPenalties::alignment(std::span<const double> v,
                                      std::span<double> grad,
                                      double scale) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  const std::span<const double> half_h = cc.dev_half_height();
  double total = 0;
  for (std::size_t k = 0; k < cc.num_alignments(); ++k) {
    const std::uint32_t a = cc.align_a()[k];
    const std::uint32_t b = cc.align_b()[k];
    double e = 0;
    std::size_t ia = 0, ib = 0;
    switch (cc.align_kind()[k]) {
      case netlist::AlignmentKind::Bottom:
        ia = n_ + a;
        ib = n_ + b;
        e = (v[ia] - half_h[a]) - (v[ib] - half_h[b]);
        break;
      case netlist::AlignmentKind::VerticalCenter:
        ia = a;
        ib = b;
        e = v[ia] - v[ib];
        break;
      case netlist::AlignmentKind::HorizontalCenter:
        ia = n_ + a;
        ib = n_ + b;
        e = v[ia] - v[ib];
        break;
    }
    total += e * e;
    grad[ia] += scale * 2.0 * e;
    grad[ib] -= scale * 2.0 * e;
  }
  return total;
}

double ConstraintPenalties::ordering(std::span<const double> v,
                                     std::span<double> grad,
                                     double scale) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  double total = 0;
  for (std::size_t k = 0; k < cc.num_orderings(); ++k) {
    const bool horiz =
        cc.order_direction(k) == netlist::OrderDirection::LeftToRight;
    const std::span<const double> ext =
        horiz ? cc.dev_width() : cc.dev_height();
    const std::span<const std::uint32_t> devs = cc.order_devices(k);
    for (std::size_t p = 0; p + 1 < devs.size(); ++p) {
      const std::uint32_t a = devs[p];
      const std::uint32_t b = devs[p + 1];
      const std::size_t ia = horiz ? a : n_ + a;
      const std::size_t ib = horiz ? b : n_ + b;
      // Require v[ib] - v[ia] >= (ext_a + ext_b) / 2; hinge^2 otherwise.
      const double gap = v[ib] - v[ia] - (ext[a] + ext[b]) / 2;
      if (gap < 0) {
        total += gap * gap;
        grad[ib] += scale * 2.0 * gap;
        grad[ia] -= scale * 2.0 * gap;
      }
    }
  }
  return total;
}

double ConstraintPenalties::common_centroid(std::span<const double> v,
                                             std::span<double> grad,
                                             double scale) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  double total = 0;
  for (std::size_t k = 0; k < cc.num_centroids(); ++k) {
    const std::uint32_t a1 = cc.cent_a1()[k], a2 = cc.cent_a2()[k];
    const std::uint32_t b1 = cc.cent_b1()[k], b2 = cc.cent_b2()[k];
    for (std::size_t dim = 0; dim < 2; ++dim) {
      const std::size_t off = dim * n_;
      const double e = v[off + a1] + v[off + a2] - v[off + b1] - v[off + b2];
      total += e * e;
      grad[off + a1] += scale * 2.0 * e;
      grad[off + a2] += scale * 2.0 * e;
      grad[off + b1] -= scale * 2.0 * e;
      grad[off + b2] -= scale * 2.0 * e;
    }
  }
  return total;
}

double ConstraintPenalties::boundary(std::span<const double> v,
                                     std::span<double> grad, double scale,
                                     const geom::Rect& region) const {
  const std::span<const double> half_w = compiled_->dev_half_width();
  const std::span<const double> half_h = compiled_->dev_half_height();
  double total = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double xlo = region.xlo() + half_w[i];
    const double xhi = region.xhi() - half_w[i];
    const double ylo = region.ylo() + half_h[i];
    const double yhi = region.yhi() - half_h[i];
    auto hinge = [&](std::size_t idx, double lo, double hi) {
      double e = 0;
      if (v[idx] < lo) e = v[idx] - lo;
      else if (v[idx] > hi) e = v[idx] - hi;
      if (e != 0) {
        total += e * e;
        grad[idx] += scale * 2.0 * e;
      }
    };
    hinge(i, xlo, std::max(xlo, xhi));
    hinge(n_ + i, ylo, std::max(ylo, yhi));
  }
  return total;
}

void ConstraintPenalties::project_symmetry(std::span<double> v) const {
  const netlist::CompiledCircuit& cc = *compiled_;
  for (std::size_t g = 0; g < cc.num_symmetry_groups(); ++g) {
    const Axis axis = cc.sym_axis(g);
    const double m = optimal_axis(v, cc, g, n_);
    const std::span<const std::uint32_t> pa = cc.sym_pair_a(g);
    const std::span<const std::uint32_t> pb = cc.sym_pair_b(g);
    for (std::size_t p = 0; p < pa.size(); ++p) {
      const std::size_t ma = mir_idx(pa[p], axis, n_);
      const std::size_t mb = mir_idx(pb[p], axis, n_);
      const std::size_t oa = ort_idx(pa[p], axis, n_);
      const std::size_t ob = ort_idx(pb[p], axis, n_);
      const double half = (v[ma] - v[mb]) / 2.0;
      v[ma] = m + half;
      v[mb] = m - half;
      const double orth = (v[oa] + v[ob]) / 2.0;
      v[oa] = orth;
      v[ob] = orth;
    }
    for (std::uint32_t d : cc.sym_self(g)) {
      v[mir_idx(d, axis, n_)] = m;
    }
  }
}

}  // namespace aplace::gp
