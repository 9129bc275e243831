#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/metrics.hpp"

namespace aplace::route {
namespace {

constexpr double kMargin = 2.0;  ///< routing halo around the layout bbox (um)
/// Cells along the longer side of the auto-pitch grid (pitch = longer
/// side / kAutoGridCells).
constexpr std::size_t kAutoGridCells = 64;

struct RoutingGrid {
  geom::Rect region;
  double pitch;
  std::size_t nx, ny;
  // Usage of horizontal edges ((cx,cy) -> (cx+1,cy)) and vertical edges
  // ((cx,cy) -> (cx,cy+1)). An nx-by-ny node grid has (nx-1)*ny horizontal
  // and nx*(ny-1) vertical edges — the arrays used to be allocated nx*ny
  // each, silently over-sized and indexed by source-node id, so the last
  // column's "horizontal" slots (and last row's vertical ones) were dead
  // weight that also hid any indexing bug from ASan. They live in the
  // call's RouteScratch.
  std::vector<double>& h_use;
  std::vector<double>& v_use;

  RoutingGrid(const geom::Rect& r, double p, std::vector<double>& h,
              std::vector<double>& v)
      : region(r),
        pitch(p),
        nx(static_cast<std::size_t>(std::ceil(r.width() / p)) + 1),
        ny(static_cast<std::size_t>(std::ceil(r.height() / p)) + 1),
        h_use(h),
        v_use(v) {
    h_use.assign((nx - 1) * ny, 0.0);
    v_use.assign(nx * (ny - 1), 0.0);
  }

  [[nodiscard]] std::size_t idx(std::size_t cx, std::size_t cy) const {
    return cy * nx + cx;
  }
  /// Horizontal edge (cx,cy) -> (cx+1,cy); requires cx < nx-1.
  [[nodiscard]] std::size_t h_idx(std::size_t cx, std::size_t cy) const {
    APLACE_DCHECK(cx + 1 < nx && cy < ny);
    return cy * (nx - 1) + cx;
  }
  /// Vertical edge (cx,cy) -> (cx,cy+1); requires cy < ny-1.
  [[nodiscard]] std::size_t v_idx(std::size_t cx, std::size_t cy) const {
    APLACE_DCHECK(cx < nx && cy + 1 < ny);
    return cy * nx + cx;
  }
  [[nodiscard]] geom::Point node(std::size_t cx, std::size_t cy) const {
    return {region.xlo() + static_cast<double>(cx) * pitch,
            region.ylo() + static_cast<double>(cy) * pitch};
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> nearest(
      const geom::Point& p) const {
    const long cx = std::lround((p.x - region.xlo()) / pitch);
    const long cy = std::lround((p.y - region.ylo()) / pitch);
    return {static_cast<std::size_t>(
                std::clamp<long>(cx, 0, static_cast<long>(nx) - 1)),
            static_cast<std::size_t>(
                std::clamp<long>(cy, 0, static_cast<long>(ny) - 1))};
  }
};

struct AstarNode {
  double f;
  double g;
  std::size_t id;
  friend bool operator>(const AstarNode& a, const AstarNode& b) {
    return a.f > b.f;
  }
};

}  // namespace

// The grid's edge usage, and the A* state for every connection of a
// route() call. A search leaves best = inf and parent = none everywhere
// except on the nodes it reached, which it lists in `touched`, so the next
// search of the call resets just those instead of refilling the grid.
struct RouteScratch::State {
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  /// Sized for an n-node grid with no search run yet.
  void start(std::size_t n) {
    best.assign(n, kInf);
    parent.assign(n, n);
    touched.clear();
  }

  void reset() {
    for (std::size_t id : touched) {
      best[id] = kInf;
      parent[id] = parent.size();
    }
    touched.clear();
    open.clear();
    path.clear();
  }

  std::vector<double> h_use, v_use;
  std::vector<double> best;
  std::vector<std::size_t> parent;
  std::vector<std::size_t> touched;
  std::vector<AstarNode> open;    ///< min-heap on f (std::greater)
  std::vector<std::size_t> path;  ///< the last search's path
};

RouteScratch::RouteScratch() : state_(std::make_unique<State>()) {
  // Capacity for the auto-pitch grid, reserved here so the calls that use
  // this scratch do not allocate it. A side has one node more than cells,
  // and one more again where the rounded quotient side / pitch lands just
  // above kAutoGridCells and its ceil adds a cell.
  const std::size_t side = kAutoGridCells + 2;
  const std::size_t n = side * side;
  for (std::vector<double>* v :
       {&state_->h_use, &state_->v_use, &state_->best}) {
    v->reserve(n);
  }
  for (std::vector<std::size_t>* v :
       {&state_->parent, &state_->touched, &state_->path}) {
    v->reserve(n);
  }
  state_->open.reserve(n);
}

RouteScratch::~RouteScratch() = default;

namespace {

using AstarScratch = RouteScratch::State;

// A* from source node to target node; fills s.path with the path's node
// ids, target first (empty if unreachable).
void astar(const RoutingGrid& g, std::size_t src, std::size_t dst,
           double congestion_penalty, AstarScratch& s) {
  const std::size_t n = g.nx * g.ny;
  s.reset();
  std::vector<double>& best = s.best;
  std::vector<std::size_t>& parent = s.parent;
  std::vector<AstarNode>& open = s.open;
  const auto push = [&](AstarNode node) {
    open.push_back(node);
    std::push_heap(open.begin(), open.end(), std::greater<>{});
  };

  const auto hx = [&](std::size_t id) {
    const long ax = static_cast<long>(id % g.nx), ay = static_cast<long>(id / g.nx);
    const long bx = static_cast<long>(dst % g.nx), by = static_cast<long>(dst / g.nx);
    return g.pitch * static_cast<double>(std::labs(ax - bx) + std::labs(ay - by));
  };

  best[src] = 0;
  s.touched.push_back(src);
  push({hx(src), 0, src});
  while (!open.empty()) {
    std::pop_heap(open.begin(), open.end(), std::greater<>{});
    const AstarNode cur = open.back();
    open.pop_back();
    if (cur.g > best[cur.id] + 1e-12) continue;
    if (cur.id == dst) break;
    const std::size_t cx = cur.id % g.nx, cy = cur.id / g.nx;

    const auto relax = [&](std::size_t nid, double edge_use) {
      const double cost =
          cur.g + g.pitch * (1.0 + congestion_penalty * edge_use);
      if (cost < best[nid] - 1e-12) {
        if (best[nid] == AstarScratch::kInf) s.touched.push_back(nid);
        best[nid] = cost;
        parent[nid] = cur.id;
        push({cost + hx(nid), cost, nid});
      }
    };
    if (cx + 1 < g.nx) relax(g.idx(cx + 1, cy), g.h_use[g.h_idx(cx, cy)]);
    if (cx > 0) relax(g.idx(cx - 1, cy), g.h_use[g.h_idx(cx - 1, cy)]);
    if (cy + 1 < g.ny) relax(g.idx(cx, cy + 1), g.v_use[g.v_idx(cx, cy)]);
    if (cy > 0) relax(g.idx(cx, cy - 1), g.v_use[g.v_idx(cx, cy - 1)]);
  }

  if (parent[dst] == n && src != dst) return;  // unreachable (never happens
                                               // on a full grid)
  for (std::size_t at = dst;; at = parent[at]) {
    s.path.push_back(at);
    if (at == src) break;
  }
}

void commit_path(RoutingGrid& g, const std::vector<std::size_t>& path) {
  for (std::size_t k = 0; k + 1 < path.size(); ++k) {
    const std::size_t a = std::min(path[k], path[k + 1]);
    const std::size_t b = std::max(path[k], path[k + 1]);
    const std::size_t ax = a % g.nx, ay = a / g.nx;
    if (b == a + g.nx) {
      g.v_use[g.v_idx(ax, ay)] += 1.0;
    } else {
      // Adjacent-node invariant from A*: same row, one column apart. On an
      // nx==1 grid every step is vertical and handled above.
      APLACE_DCHECK(b == a + 1 && b / g.nx == ay);
      g.h_use[g.h_idx(ax, ay)] += 1.0;
    }
  }
}

}  // namespace

RoutingResult GridRouter::route(const netlist::CompiledCircuit& compiled,
                                const netlist::Placement& placement) const {
  RouteScratch scratch;
  return route(compiled, placement, scratch);
}

RoutingResult GridRouter::route(const netlist::CompiledCircuit& compiled,
                                const netlist::Placement& placement,
                                RouteScratch& scratch_in) const {
  obs::counter("route/runs").inc();
  APLACE_DCHECK(&compiled.circuit() == &placement.circuit());
  RoutingResult result;
  result.nets.resize(compiled.num_nets());

  const geom::Rect bbox = placement.bounding_box().inflated(kMargin);
  double pitch = opts_.pitch;
  if (pitch <= 0) {
    pitch = std::max(bbox.width(), bbox.height()) /
            static_cast<double>(kAutoGridCells);
    pitch = std::max(pitch, 0.1);
  }
  AstarScratch& scratch = *scratch_in.state_;
  RoutingGrid grid(bbox, pitch, scratch.h_use, scratch.v_use);
  scratch.start(grid.nx * grid.ny);

  // Route nets in ascending bbox half-perimeter order (small first), the
  // usual global-routing heuristic.
  std::vector<std::size_t> order(compiled.num_nets());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> key(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    key[i] = placement.net_hpwl(NetId{i});
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return key[a] < key[b]; });

  for (std::size_t ni : order) {
    const std::span<const std::uint32_t> net_pins = compiled.net_pins(ni);
    NetRoute& out = result.nets[ni];

    // Pin grid nodes.
    std::vector<std::size_t> pins;
    pins.reserve(net_pins.size());
    for (std::uint32_t pid : net_pins) {
      const auto [cx, cy] = grid.nearest(placement.pin_position(PinId{pid}));
      pins.push_back(grid.idx(cx, cy));
    }
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2) continue;

    // Prim-style: connect the nearest unconnected pin to the tree.
    std::vector<std::size_t> tree{pins[0]};
    std::vector<char> connected(pins.size(), 0);
    connected[0] = 1;
    auto manhattan = [&](std::size_t a, std::size_t b) {
      const long ax = static_cast<long>(a % grid.nx), ay = static_cast<long>(a / grid.nx);
      const long bx = static_cast<long>(b % grid.nx), by = static_cast<long>(b / grid.nx);
      return std::labs(ax - bx) + std::labs(ay - by);
    };
    for (std::size_t step = 1; step < pins.size(); ++step) {
      std::size_t best_pin = 0, best_src = tree[0];
      long best_d = std::numeric_limits<long>::max();
      for (std::size_t p = 0; p < pins.size(); ++p) {
        if (connected[p]) continue;
        for (std::size_t t : tree) {
          const long d = manhattan(pins[p], t);
          if (d < best_d) {
            best_d = d;
            best_pin = p;
            best_src = t;
          }
        }
      }
      astar(grid, best_src, pins[best_pin], opts_.congestion_penalty,
            scratch);
      const std::vector<std::size_t>& path = scratch.path;
      commit_path(grid, path);
      out.length += grid.pitch * static_cast<double>(
                        path.size() > 0 ? path.size() - 1 : 0);
      for (std::size_t id : path) {
        tree.push_back(id);
        out.waypoints.push_back(
            grid.node(id % grid.nx, id / grid.nx));
      }
      connected[best_pin] = 1;
    }
    result.total_length += out.length;
  }

  for (double u : grid.h_use) result.max_edge_usage = std::max(result.max_edge_usage, u);
  for (double u : grid.v_use) result.max_edge_usage = std::max(result.max_edge_usage, u);
  return result;
}

}  // namespace aplace::route
