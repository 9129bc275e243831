#include "legal/greedy_shift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "legal/projection.hpp"
#include "netlist/evaluator.hpp"

namespace aplace::legal {
namespace {

using netlist::Axis;

// Pack/project rounds before giving up. Each round re-derives the
// separation directions from the current iterate.
constexpr int kMaxRounds = 8;

// Union-find over devices coupled by an equality-type constraint (symmetry
// group, alignment pair, common-centroid quad). Coupled devices move as one
// rigid cluster during packing, so the projected equalities — which are all
// translation-invariant — survive the pack untouched.
class DisjointSet {
 public:
  explicit DisjointSet(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t a) {
    while (parent_[a] != a) a = parent_[a] = parent_[parent_[a]];
    return a;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

// Longest-path relaxation along one dimension: every edge a -> b demands
// coord_b >= coord_a + (ext_a + ext_b) / 2. Kahn's order makes the single
// relaxation sweep exact. Returns false if the edge set has a cycle
// (contradictory separation constraints).
bool pack_dimension(std::size_t k,
                    const std::vector<std::pair<std::size_t, std::size_t>>& edges,
                    const std::vector<double>& extent,
                    std::vector<double>& coord) {
  std::vector<std::vector<std::size_t>> succ(k);
  std::vector<int> indeg(k, 0);
  for (auto [a, b] : edges) {
    succ[a].push_back(b);
    ++indeg[b];
  }
  std::vector<std::size_t> queue;
  std::vector<double> packed(k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    if (indeg[i] == 0) {
      queue.push_back(i);
      packed[i] = extent[i] / 2;
    }
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    const std::size_t a = queue.back();
    queue.pop_back();
    ++processed;
    for (std::size_t b : succ[a]) {
      packed[b] =
          std::max(packed[b],
                   std::max(packed[a] + (extent[a] + extent[b]) / 2,
                            extent[b] / 2));
      if (--indeg[b] == 0) queue.push_back(b);
    }
  }
  if (processed != k) return false;
  coord = std::move(packed);
  return true;
}

// Exact compact layout for one symmetry group: one row per pair (devices
// mirrored to touch at the axis) or self-symmetric device (centered on it),
// rows stacked along the axis direction around their previous mean. Removes
// every intra-group overlap in one shot while keeping the symmetry exact —
// pair footprints are equal by construction (finalize() enforces it).
void stack_symmetry_group(const netlist::Circuit& c,
                          const netlist::SymmetryGroup& g,
                          std::vector<double>& v) {
  const std::size_t n = c.num_devices();
  const bool vert = g.axis == Axis::Vertical;
  auto mir = [&](std::size_t d) -> double& { return vert ? v[d] : v[n + d]; };
  auto ort = [&](std::size_t d) -> double& { return vert ? v[n + d] : v[d]; };
  auto mir_extent = [&](std::size_t d) {
    const netlist::Device& dev = c.device(DeviceId{d});
    return vert ? dev.width : dev.height;
  };
  auto ort_extent = [&](std::size_t d) {
    const netlist::Device& dev = c.device(DeviceId{d});
    return vert ? dev.height : dev.width;
  };

  struct Row {
    std::size_t a, b;  ///< b == a for a self-symmetric row
    double extent;
    double at;  ///< current (then stacked) ort coordinate
  };
  std::vector<Row> rows;
  double m = 0;
  for (auto [a, b] : g.pairs) {
    rows.push_back({a.index(), b.index(), ort_extent(a.index()),
                    (ort(a.index()) + ort(b.index())) / 2});
    m += (mir(a.index()) + mir(b.index())) / 2;
  }
  for (DeviceId d : g.self_symmetric) {
    rows.push_back({d.index(), d.index(), ort_extent(d.index()),
                    ort(d.index())});
    m += mir(d.index());
  }
  m /= static_cast<double>(rows.size());

  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& x, const Row& y) { return x.at < y.at; });
  double mean_before = 0;
  for (const Row& r : rows) mean_before += r.at;
  mean_before /= static_cast<double>(rows.size());
  double cum = 0, mean_after = 0;
  for (Row& r : rows) {
    r.at = cum + r.extent / 2;
    cum += r.extent;
    mean_after += r.at;
  }
  mean_after /= static_cast<double>(rows.size());
  const double shift = mean_before - mean_after;

  for (const Row& r : rows) {
    if (r.a != r.b) {
      mir(r.a) = m - mir_extent(r.a) / 2;
      mir(r.b) = m + mir_extent(r.b) / 2;
      ort(r.a) = ort(r.b) = r.at + shift;
    } else {
      mir(r.a) = m;
      ort(r.a) = r.at + shift;
    }
  }
}

// Separate the two devices of an overlapping alignment pair along the
// dimension the alignment leaves free, so the equality itself is preserved.
void separate_alignment_overlaps(const netlist::Circuit& c,
                                 std::vector<double>& v) {
  const std::size_t n = c.num_devices();
  for (const netlist::AlignmentPair& p : c.constraints().alignments) {
    const std::size_t a = p.a.index(), b = p.b.index();
    const netlist::Device& da = c.device(p.a);
    const netlist::Device& db = c.device(p.b);
    const bool overlap =
        std::abs(v[a] - v[b]) < (da.width + db.width) / 2 - 1e-12 &&
        std::abs(v[n + a] - v[n + b]) < (da.height + db.height) / 2 - 1e-12;
    if (!overlap) continue;
    if (p.kind == netlist::AlignmentKind::VerticalCenter) {
      // Shared x center: stack vertically, touching, around the y mean.
      const double my = (v[n + a] + v[n + b]) / 2;
      const bool a_low = v[n + a] <= v[n + b];
      v[n + (a_low ? a : b)] = my - (a_low ? da : db).height / 2;
      v[n + (a_low ? b : a)] = my + (a_low ? db : da).height / 2;
    } else {
      // Bottom / HorizontalCenter pin y: separate in x, touching.
      const double mx = (v[a] + v[b]) / 2;
      const bool a_left = v[a] <= v[b];
      v[a_left ? a : b] = mx - (a_left ? da : db).width / 2;
      v[a_left ? b : a] = mx + (a_left ? db : da).width / 2;
    }
  }
}

// Force alignment pairs exact: equalize the aligned edge/center at the mean
// so neither device jumps far. The LP legalizers encode these as equality
// rows; here we project after packing instead.
void project_alignment(const netlist::Circuit& c, std::vector<double>& v) {
  const std::size_t n = c.num_devices();
  for (const netlist::AlignmentPair& p : c.constraints().alignments) {
    const std::size_t a = p.a.index(), b = p.b.index();
    switch (p.kind) {
      case netlist::AlignmentKind::Bottom: {
        const double ha = c.device(p.a).height, hb = c.device(p.b).height;
        const double bot =
            ((v[n + a] - ha / 2) + (v[n + b] - hb / 2)) / 2;
        v[n + a] = bot + ha / 2;
        v[n + b] = bot + hb / 2;
        break;
      }
      case netlist::AlignmentKind::VerticalCenter: {
        const double m = (v[a] + v[b]) / 2;
        v[a] = m;
        v[b] = m;
        break;
      }
      case netlist::AlignmentKind::HorizontalCenter: {
        const double m = (v[n + a] + v[n + b]) / 2;
        v[n + a] = m;
        v[n + b] = m;
        break;
      }
    }
  }
}

double violation_sum(const netlist::QualityReport& q) {
  return q.overlap_area + q.symmetry_violation + q.alignment_violation +
         q.ordering_violation + q.centroid_violation;
}

}  // namespace

GreedyShiftLegalizer::GreedyShiftLegalizer(const netlist::Circuit& circuit)
    : circuit_(&circuit) {
  APLACE_CHECK(circuit.finalized());
}

GreedyShiftResult GreedyShiftLegalizer::place(
    std::span<const double> gp_positions) const {
  const netlist::Circuit& c = *circuit_;
  const std::size_t n = c.num_devices();
  APLACE_CHECK(gp_positions.size() == 2 * n);

  std::vector<double> w(n), h(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = c.device(DeviceId{i}).width;
    h[i] = c.device(DeviceId{i}).height;
  }

  std::vector<double> v(gp_positions.begin(), gp_positions.end());
  sanitize_positions(c, v);

  // Constraint-coupled devices form rigid clusters for the pack.
  DisjointSet ds(n);
  for (const netlist::SymmetryGroup& g : c.constraints().symmetry_groups) {
    std::size_t first = n;
    auto join = [&](DeviceId d) {
      if (first == n) first = d.index();
      ds.unite(first, d.index());
    };
    for (auto [a, b] : g.pairs) {
      join(a);
      join(b);
    }
    for (DeviceId d : g.self_symmetric) join(d);
  }
  for (const netlist::AlignmentPair& p : c.constraints().alignments) {
    ds.unite(p.a.index(), p.b.index());
  }
  for (const netlist::CommonCentroidQuad& q :
       c.constraints().common_centroids) {
    ds.unite(q.a1.index(), q.a2.index());
    ds.unite(q.a1.index(), q.b1.index());
    ds.unite(q.a1.index(), q.b2.index());
  }
  std::vector<std::size_t> cid(n, n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = ds.find(i);
    if (cid[root] == n) cid[root] = k++;
    cid[i] = cid[root];
  }

  GreedyShiftResult result{netlist::Placement(c)};
  const netlist::Evaluator eval(c);
  auto realize = [&](const std::vector<double>& pos) {
    netlist::Placement pl(c);
    for (std::size_t i = 0; i < n; ++i) {
      pl.set_position(DeviceId{i}, {pos[i], pos[n + i]});
    }
    pl.normalize_to_origin();
    return pl;
  };

  double best_viol = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kMaxRounds; ++round) {
    ++result.rounds;

    // 1. Equality constraints exact; intra-cluster overlap removed by the
    //    per-group stack layout and the alignment separation.
    project_symmetry(c, v);
    project_ordering(c, v);
    project_centroid(c, v);
    project_alignment(c, v);
    for (const netlist::SymmetryGroup& g : c.constraints().symmetry_groups) {
      stack_symmetry_group(c, g, v);
    }
    separate_alignment_overlaps(c, v);

    // 2. Cluster bounding boxes at the current iterate.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> lx(k, kInf), hx(k, -kInf), ly(k, kInf), hy(k, -kInf);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t ci = cid[i];
      lx[ci] = std::min(lx[ci], v[i] - w[i] / 2);
      hx[ci] = std::max(hx[ci], v[i] + w[i] / 2);
      ly[ci] = std::min(ly[ci], v[n + i] - h[i] / 2);
      hy[ci] = std::max(hy[ci], v[n + i] + h[i] / 2);
    }
    std::vector<double> ex(k), ey(k), cx(k), cy(k);
    for (std::size_t ci = 0; ci < k; ++ci) {
      ex[ci] = hx[ci] - lx[ci];
      ey[ci] = hy[ci] - ly[ci];
      cx[ci] = (lx[ci] + hx[ci]) / 2;
      cy[ci] = (ly[ci] + hy[ci]) / 2;
    }

    // 3. One separation edge per cluster pair. Ordering constraints force
    //    direction and dimension; everything else keeps its current
    //    relative arrangement (larger normalized gap wins).
    std::vector<std::pair<std::size_t, std::size_t>> xedges, yedges;
    std::set<std::pair<std::size_t, std::size_t>> forced;
    for (const netlist::OrderingConstraint& oc : c.constraints().orderings) {
      const bool horiz =
          oc.direction == netlist::OrderDirection::LeftToRight;
      for (std::size_t t = 0; t + 1 < oc.devices.size(); ++t) {
        const std::size_t ca = cid[oc.devices[t].index()];
        const std::size_t cb = cid[oc.devices[t + 1].index()];
        if (ca == cb) continue;  // internal to a cluster; evaluated below
        (horiz ? xedges : yedges).emplace_back(ca, cb);
        forced.insert(std::minmax(ca, cb));
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        if (forced.contains({i, j})) continue;
        const double dx = cx[j] - cx[i], dy = cy[j] - cy[i];
        const double sx = std::abs(dx) / ((ex[i] + ex[j]) / 2);
        const double sy = std::abs(dy) / ((ey[i] + ey[j]) / 2);
        if (sx >= sy) {
          xedges.emplace_back(dx >= 0 ? i : j, dx >= 0 ? j : i);
        } else {
          yedges.emplace_back(dy >= 0 ? i : j, dy >= 0 ? j : i);
        }
      }
    }

    // 4. Pack the clusters, then translate each one rigidly.
    std::vector<double> px, py;
    if (!pack_dimension(k, xedges, ex, px) ||
        !pack_dimension(k, yedges, ey, py)) {
      result.outcome = aplace::Status::infeasible(
          "greedy shift derived a cyclic separation-constraint set");
      return result;
    }
    for (std::size_t i = 0; i < n; ++i) {
      v[i] += px[cid[i]] - cx[cid[i]];
      v[n + i] += py[cid[i]] - cy[cid[i]];
    }

    netlist::Placement pl = realize(v);
    const netlist::QualityReport q = eval.evaluate(pl);
    const double viol = violation_sum(q);
    const bool legal = q.legal(1e-6);
    if (legal || viol < best_viol) {
      best_viol = std::min(best_viol, viol);
      result.placement = std::move(pl);
    }
    if (legal) {
      result.outcome = {};
      return result;
    }
  }

  std::ostringstream oss;
  oss << "greedy shift did not reach a legal placement in " << result.rounds
      << " rounds (best residual " << best_viol << ")";
  result.outcome = aplace::Status::infeasible(oss.str());
  return result;
}

}  // namespace aplace::legal
