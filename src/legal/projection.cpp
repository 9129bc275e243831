#include "legal/projection.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace aplace::legal {

using netlist::Axis;

bool sanitize_positions(const netlist::Circuit& circuit,
                        std::vector<double>& v) {
  const std::size_t n = circuit.num_devices();
  bool repaired = false;
  // Centroid of the finite coordinates anchors the replacements so repaired
  // devices land near the rest of the layout instead of at the origin.
  double cx = 0, cy = 0;
  std::size_t cnt = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::isfinite(v[i]) && std::isfinite(v[n + i])) {
      cx += v[i];
      cy += v[n + i];
      ++cnt;
    }
  }
  if (cnt > 0) {
    cx /= static_cast<double>(cnt);
    cy /= static_cast<double>(cnt);
  }
  const double pitch = std::sqrt(circuit.total_device_area() /
                                 static_cast<double>(std::max<std::size_t>(
                                     n, 1)));
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(v[i])) {
      v[i] = cx + pitch * (0.1 + static_cast<double>(i));
      repaired = true;
    }
    if (!std::isfinite(v[n + i])) {
      v[n + i] = cy + pitch * (0.1 + static_cast<double>(i));
      repaired = true;
    }
  }
  return repaired;
}

void project_symmetry(const netlist::Circuit& circuit,
                      std::vector<double>& v) {
  const std::size_t n = circuit.num_devices();
  for (const netlist::SymmetryGroup& g :
       circuit.constraints().symmetry_groups) {
    auto mir = [&](std::size_t d) -> double& {
      return g.axis == Axis::Vertical ? v[d] : v[n + d];
    };
    auto ort = [&](std::size_t d) -> double& {
      return g.axis == Axis::Vertical ? v[n + d] : v[d];
    };
    double m = 0;
    std::size_t cnt = 0;
    for (auto [a, b] : g.pairs) {
      m += (mir(a.index()) + mir(b.index())) / 2;
      ++cnt;
    }
    for (DeviceId d : g.self_symmetric) {
      m += mir(d.index());
      ++cnt;
    }
    m /= static_cast<double>(cnt);
    for (auto [a, b] : g.pairs) {
      const double half = (mir(a.index()) - mir(b.index())) / 2;
      mir(a.index()) = m + half;
      mir(b.index()) = m - half;
      const double o = (ort(a.index()) + ort(b.index())) / 2;
      ort(a.index()) = o;
      ort(b.index()) = o;
    }
    for (DeviceId d : g.self_symmetric) mir(d.index()) = m;
  }
}

void project_ordering(const netlist::Circuit& circuit,
                      std::vector<double>& v) {
  const std::size_t n = circuit.num_devices();
  for (const netlist::OrderingConstraint& oc :
       circuit.constraints().orderings) {
    const bool horiz = oc.direction == netlist::OrderDirection::LeftToRight;
    std::vector<double> coords;
    coords.reserve(oc.devices.size());
    for (DeviceId d : oc.devices) {
      coords.push_back(horiz ? v[d.index()] : v[n + d.index()]);
    }
    std::sort(coords.begin(), coords.end());
    for (std::size_t k = 0; k < oc.devices.size(); ++k) {
      (horiz ? v[oc.devices[k].index()]
             : v[n + oc.devices[k].index()]) = coords[k];
    }
  }
}

void project_centroid(const netlist::Circuit& circuit,
                      std::vector<double>& v) {
  const std::size_t n = circuit.num_devices();
  for (const netlist::CommonCentroidQuad& q :
       circuit.constraints().common_centroids) {
    const double cx = (v[q.a1.index()] + v[q.a2.index()] + v[q.b1.index()] +
                       v[q.b2.index()]) /
                      4.0;
    const double cy = (v[n + q.a1.index()] + v[n + q.a2.index()] +
                       v[n + q.b1.index()] + v[n + q.b2.index()]) /
                      4.0;
    const netlist::Device& da = circuit.device(q.a1);
    const double hw = da.width / 2, hh = da.height / 2;
    v[q.a1.index()] = cx - hw;
    v[n + q.a1.index()] = cy - hh;
    v[q.a2.index()] = cx + hw;
    v[n + q.a2.index()] = cy + hh;
    v[q.b1.index()] = cx + hw;
    v[n + q.b1.index()] = cy - hh;
    v[q.b2.index()] = cx - hw;
    v[n + q.b2.index()] = cy + hh;
  }
}

aplace::Status status_from_lp(solver::LpStatus s, std::string_view what) {
  const std::string name(what);
  switch (s) {
    case solver::LpStatus::Optimal:
      return {};
    case solver::LpStatus::Infeasible:
      return aplace::Status::infeasible(name + " is infeasible");
    case solver::LpStatus::IterLimit:
      return aplace::Status::budget_exhausted(name +
                                              " hit its iteration limit");
    case solver::LpStatus::Unbounded:
      return aplace::Status::internal(name + " is unbounded");
    case solver::LpStatus::Uncertified:
      return aplace::Status::internal(name +
                                      " answer failed its residual check");
  }
  return aplace::Status::internal(name + " returned an unknown status");
}

}  // namespace aplace::legal
