#pragma once
// Surrogate analog performance simulator.
//
// Stand-in for the paper's route -> extract -> SPICE (GF12nm) loop: metric
// values are deterministic analytic functions of placement-derived parasitic
// features (routed wirelength of critical/all nets, layout area, symmetric
// pair separation). The functional forms are physically motivated —
// bandwidth and unity-gain frequency are load-capacitance-limited, offsets
// and delays grow with mismatch and parasitics, phase margin loses degrees
// to added poles — so the *shape* of placement-vs-performance comparisons is
// preserved even though absolute numbers are synthetic.

#include <optional>

#include "netlist/compiled.hpp"
#include "netlist/placement.hpp"
#include "perf/spec.hpp"
#include "route/router.hpp"

namespace aplace::perf {

struct MetricResult {
  std::string name;
  double value = 0;       ///< raw metric value
  double normalized = 0;  ///< z~ in [0, 1]
  double spec = 0;
};

struct PerformanceResult {
  std::vector<MetricResult> metrics;
  double fom = 0;
  Features features;

  [[nodiscard]] bool satisfactory(double threshold) const {
    return fom >= threshold;
  }
};

class PerformanceModel {
 public:
  PerformanceModel(netlist::CompiledRef compiled, PerformanceSpec spec);

  [[nodiscard]] const PerformanceSpec& spec() const { return spec_; }

  /// Extract parasitic features. Uses routed lengths when a routing result
  /// is supplied, HPWL otherwise (useful for quick estimates inside SA).
  [[nodiscard]] Features extract_features(
      const netlist::Placement& placement,
      const route::RoutingResult* routing = nullptr) const;

  [[nodiscard]] PerformanceResult evaluate(
      const netlist::Placement& placement,
      const route::RoutingResult* routing = nullptr) const;

  [[nodiscard]] PerformanceResult evaluate_features(const Features& f) const;

 private:
  netlist::CompiledRef compiled_;
  PerformanceSpec spec_;
};

}  // namespace aplace::perf
