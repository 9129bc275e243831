#pragma once
// Coarse grid maze router (stand-in for the ALIGN router the paper used).
//
// The performance substrate only needs physically plausible per-net routed
// lengths and congestion, not DRC-clean geometry: nets are decomposed into
// two-pin connections (nearest-unconnected-sink order) and each connection
// is routed with A* over a uniform grid whose edge cost grows with usage, so
// parallel nets spread out and routed length responds to placement quality.

#include <memory>
#include <vector>

#include "netlist/compiled.hpp"
#include "netlist/placement.hpp"

namespace aplace::route {

struct RouterOptions {
  double pitch = 0.0;        ///< grid pitch in um; 0 = auto (~bbox/64)
  double congestion_penalty = 0.6;  ///< extra cost per prior use of an edge
};

struct NetRoute {
  double length = 0.0;                  ///< total routed wirelength (um)
  std::vector<geom::Point> waypoints;   ///< polyline through grid nodes
};

struct RoutingResult {
  std::vector<NetRoute> nets;  ///< indexed by net id
  double total_length = 0.0;
  double max_edge_usage = 0.0;

  [[nodiscard]] double net_length(NetId id) const {
    return nets[id.index()].length;
  }
};

/// Buffers route() reuses from net to net: the grid's edge usage and the
/// A* search state. A caller routing many placements may keep one per
/// concurrent call and pass it to each; no result depends on what the
/// scratch held before. It is created with room for the auto-pitch grid,
/// so route() calls on that grid do not allocate these buffers.
class RouteScratch {
 public:
  RouteScratch();
  ~RouteScratch();

  struct State;  ///< the buffers; defined in router.cpp

 private:
  friend class GridRouter;
  std::unique_ptr<State> state_;
};

class GridRouter {
 public:
  explicit GridRouter(RouterOptions options = {}) : opts_(options) {}

  /// Route every net of the placement using a prebuilt compiled snapshot
  /// (the net->pin CSR). Deterministic. `compiled` must describe the same
  /// circuit the placement was built on.
  [[nodiscard]] RoutingResult route(const netlist::CompiledCircuit& compiled,
                                    const netlist::Placement& placement) const;
  /// The same, on the caller's scratch.
  [[nodiscard]] RoutingResult route(const netlist::CompiledCircuit& compiled,
                                    const netlist::Placement& placement,
                                    RouteScratch& scratch) const;

 private:
  RouterOptions opts_;
};

}  // namespace aplace::route
