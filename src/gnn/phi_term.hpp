#pragma once
// The GNN failure-probability Phi as a first-class objective term: the
// performance-driven flows (ePlace-AP, Perf*) add it to the analytical
// objective instead of installing a raw gradient functor, so it shows up in
// the per-term TermTrace like every other summand.

#include <span>
#include <string_view>

#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gp/objective.hpp"
#include "numeric/vec.hpp"

namespace aplace::gnn {

class PhiTerm final : public gp::ObjectiveTerm {
 public:
  /// Both references must outlive the term (they live in PerfContext).
  PhiTerm(const CircuitGraph& graph, const GnnModel& net)
      : graph_(&graph), net_(&net) {}

  [[nodiscard]] std::string_view name() const override { return "gnn-phi"; }
  [[nodiscard]] gp::TermCost cost() const override {
    return gp::TermCost::Expensive;
  }

  /// Phi(v) in (0, 1); adds scale * dPhi/dv into grad. Only the input
  /// gradient is formed, never the weight gradient.
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  const CircuitGraph* graph_;
  const GnnModel* net_;
  Workspace ws_;
  numeric::Vec scratch_;
};

}  // namespace aplace::gnn
