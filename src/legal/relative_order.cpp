#include "legal/relative_order.hpp"

#include <map>
#include <numeric>

#include "geom/rect.hpp"

namespace aplace::legal {
namespace {

// Direction forced by a constraint between a device pair, if any.
// horizontal=true means "must separate in x".
struct Forced {
  bool horizontal;
};

using ForcedMap = std::map<std::pair<std::size_t, std::size_t>, Forced>;

std::pair<std::size_t, std::size_t> key(std::size_t a, std::size_t b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

// Constraints that make one separation dimension infeasible:
//  * a mirrored pair must straddle its axis -> separate in the mirrored dim;
//  * bottom / horizontal-center alignment pins the y relation -> separate
//    in x; vertical-center alignment pins x -> separate in y;
//  * ordering constraints fix both dimension and order for their members.
ForcedMap forced_directions(const netlist::Circuit& circuit) {
  ForcedMap forced;
  const netlist::ConstraintSet& cs = circuit.constraints();
  for (const netlist::SymmetryGroup& g : cs.symmetry_groups) {
    const bool horizontal = g.axis == netlist::Axis::Vertical;
    for (auto [a, b] : g.pairs) {
      forced[key(a.index(), b.index())] = {horizontal};
    }
  }
  for (const netlist::AlignmentPair& p : cs.alignments) {
    const bool horizontal = p.kind != netlist::AlignmentKind::VerticalCenter;
    forced[key(p.a.index(), p.b.index())] = {horizontal};
  }
  for (const netlist::OrderingConstraint& c : cs.orderings) {
    const bool horizontal =
        c.direction == netlist::OrderDirection::LeftToRight;
    for (std::size_t i = 0; i < c.devices.size(); ++i) {
      for (std::size_t j = i + 1; j < c.devices.size(); ++j) {
        forced[key(c.devices[i].index(), c.devices[j].index())] = {horizontal};
      }
    }
  }
  return forced;
}

// Union-find over devices whose coordinate in one dimension is tied by an
// equality constraint (symmetry-pair orthogonal equality, center/bottom
// alignment). Orders in that dimension must treat tied devices as one
// entity, otherwise transitive chains through a third device can demand
// y_a < y_b while the equality demands y_a == y_b (infeasible ILP).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

struct TieClasses {
  UnionFind x_class;
  UnionFind y_class;
};

TieClasses tie_classes(const netlist::Circuit& circuit) {
  const std::size_t n = circuit.num_devices();
  TieClasses t{UnionFind(n), UnionFind(n)};
  const netlist::ConstraintSet& cs = circuit.constraints();
  for (const netlist::SymmetryGroup& g : cs.symmetry_groups) {
    for (auto [a, b] : g.pairs) {
      // Vertical axis: y_a == y_b; horizontal axis: x_a == x_b.
      if (g.axis == netlist::Axis::Vertical) {
        t.y_class.unite(a.index(), b.index());
      } else {
        t.x_class.unite(a.index(), b.index());
      }
    }
  }
  for (const netlist::AlignmentPair& p : cs.alignments) {
    switch (p.kind) {
      case netlist::AlignmentKind::Bottom:
      case netlist::AlignmentKind::HorizontalCenter:
        t.y_class.unite(p.a.index(), p.b.index());
        break;
      case netlist::AlignmentKind::VerticalCenter:
        t.x_class.unite(p.a.index(), p.b.index());
        break;
    }
  }
  return t;
}

geom::Rect rect_of(const netlist::Circuit& c, std::span<const double> v,
                   std::size_t i) {
  const std::size_t n = c.num_devices();
  const netlist::Device& d = c.device(DeviceId{i});
  return geom::Rect::centered({v[i], v[n + i]}, d.width, d.height);
}

bool direction_for(const geom::Rect& ri, const geom::Rect& rj) {
  const double dx = ri.overlap_dx(rj);  // >0: overlap extent, <0: gap
  const double dy = ri.overlap_dy(rj);
  if (dx > 0 && dy > 0) return dx < dy;  // paper rule: smaller overlap dim
  if (dx > 0) return false;              // separated vertically already
  if (dy > 0) return true;
  return (-dx) >= (-dy);  // keep the larger gap's dimension
}

}  // namespace

std::optional<bool> forced_direction(const netlist::Circuit& circuit,
                                     DeviceId a, DeviceId b) {
  const ForcedMap forced = forced_directions(circuit);
  if (auto it = forced.find(key(a.index(), b.index())); it != forced.end()) {
    return it->second.horizontal;
  }
  return std::nullopt;
}

std::vector<PairOrder> derive_pair_orders(const netlist::Circuit& circuit,
                                          std::span<const double> positions) {
  const std::size_t n = circuit.num_devices();
  APLACE_CHECK(positions.size() == 2 * n);
  std::vector<PairOrder> out;

  const ForcedMap forced = forced_directions(circuit);
  TieClasses ties = tie_classes(circuit);

  // Class-representative coordinates: every member of a tie class compares
  // through the class mean, with the class root id as a global tie break.
  // This keeps per-dimension orders a total preorder consistent with the
  // equality constraints.
  std::vector<double> x_rep(n, 0.0), y_rep(n, 0.0);
  {
    std::vector<double> sum_x(n, 0.0), sum_y(n, 0.0);
    std::vector<std::size_t> cnt_x(n, 0), cnt_y(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      sum_x[ties.x_class.find(i)] += positions[i];
      ++cnt_x[ties.x_class.find(i)];
      sum_y[ties.y_class.find(i)] += positions[n + i];
      ++cnt_y[ties.y_class.find(i)];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t rx = ties.x_class.find(i);
      const std::size_t ry = ties.y_class.find(i);
      x_rep[i] = sum_x[rx] / static_cast<double>(cnt_x[rx]);
      y_rep[i] = sum_y[ry] / static_cast<double>(cnt_y[ry]);
    }
  }

  // Ordering constraints also fix the *order*, not just the dimension.
  std::map<std::pair<std::size_t, std::size_t>, bool> fixed_first;
  for (const netlist::OrderingConstraint& c :
       circuit.constraints().orderings) {
    for (std::size_t i = 0; i < c.devices.size(); ++i) {
      for (std::size_t j = i + 1; j < c.devices.size(); ++j) {
        const std::size_t a = c.devices[i].index();
        const std::size_t b = c.devices[j].index();
        fixed_first[key(a, b)] = a < b;  // true: lower index goes first
      }
    }
  }

  auto order_in = [&](std::size_t i, std::size_t j, bool horizontal) {
    // true = i goes first. Compare class representatives; break ties by
    // class root id (consistent across all pairs), then by index.
    const std::size_t ci = horizontal ? ties.x_class.find(i)
                                      : ties.y_class.find(i);
    const std::size_t cj = horizontal ? ties.x_class.find(j)
                                      : ties.y_class.find(j);
    const double ri = horizontal ? x_rep[i] : y_rep[i];
    const double rj = horizontal ? x_rep[j] : y_rep[j];
    if (ri != rj) return ri < rj;
    if (ci != cj) return ci < cj;
    return i < j;
  };

  for (std::size_t i = 0; i < n; ++i) {
    const geom::Rect ri = rect_of(circuit, positions, i);
    for (std::size_t j = i + 1; j < n; ++j) {
      const geom::Rect rj = rect_of(circuit, positions, j);

      bool horizontal;
      if (auto it = forced.find(key(i, j)); it != forced.end()) {
        horizontal = it->second.horizontal;
      } else {
        const bool same_x = ties.x_class.find(i) == ties.x_class.find(j);
        const bool same_y = ties.y_class.find(i) == ties.y_class.find(j);
        if (same_x && !same_y) {
          horizontal = false;  // x tied by equality: must separate in y
        } else if (same_y && !same_x) {
          horizontal = true;
        } else {
          horizontal = direction_for(ri, rj);
        }
      }

      PairOrder po;
      po.horizontal = horizontal;
      bool i_first;
      if (auto it = fixed_first.find(key(i, j)); it != fixed_first.end()) {
        i_first = it->second;  // lower index first when true; i < j here
      } else {
        i_first = order_in(i, j, horizontal);
      }
      po.left_or_bottom = DeviceId{i_first ? i : j};
      po.right_or_top = DeviceId{i_first ? j : i};
      out.push_back(po);
    }
  }
  return out;
}

std::vector<PairOrder> reduce_transitive(std::vector<PairOrder> orders,
                                         std::size_t num_devices) {
  // Adjacency per dimension: edge a -> b means "a before b" in that dim.
  const std::size_t n = num_devices;
  std::vector<char> h_edge(n * n, 0), v_edge(n * n, 0);
  for (const PairOrder& po : orders) {
    const std::size_t a = po.left_or_bottom.index();
    const std::size_t b = po.right_or_top.index();
    (po.horizontal ? h_edge : v_edge)[a * n + b] = 1;
  }
  // An edge (a, b) is redundant when a 2-hop path a -> c -> b exists in the
  // *original* edge set (chains of implications compose, so testing against
  // the unreduced set is safe).
  std::vector<PairOrder> kept;
  kept.reserve(orders.size());
  for (const PairOrder& po : orders) {
    const std::size_t a = po.left_or_bottom.index();
    const std::size_t b = po.right_or_top.index();
    const std::vector<char>& e = po.horizontal ? h_edge : v_edge;
    bool redundant = false;
    for (std::size_t c = 0; c < n && !redundant; ++c) {
      if (e[a * n + c] && e[c * n + b]) redundant = true;
    }
    if (!redundant) kept.push_back(po);
  }
  return kept;
}

}  // namespace aplace::legal
