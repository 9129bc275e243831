#pragma once
// Two-layer GCN + pooled MLP head with a sigmoid output: the probability
// Phi that circuit performance is unsatisfactory (paper Sec. V-A).
//
//   H1 = ReLU(A~ X  W1 + b1)
//   H2 = ReLU(A~ H1 W2 + b2)
//   g  = mean_rows(H2)
//   u  = ReLU(g W3 + b3)
//   Phi = sigmoid(u . w4 + b4)
//
// Everything is hand-differentiated; backward() produces the weight
// gradients (for training) and/or d Phi / d v (for the analytical placer,
// which descends through the model to device coordinates — the key
// mechanism of ePlace-AP).
//
// The kernel is sparse and allocation-free: A~ is CSR, A~ X's static
// columns come precomputed from the CircuitGraph, per-evaluation state
// lives in a caller-owned Workspace, and the layer widths are compile-time
// constants. Every sum runs in the order of the dense reference in
// tests/kernel_oracle.hpp (oracle::DenseGnn), so results match it bit for
// bit; docs/ALGORITHMS.md §7 states the contract.

#include <array>
#include <span>
#include <vector>

#include "gnn/graph.hpp"
#include "gnn/workspace.hpp"
#include "numeric/rng.hpp"

namespace aplace::gnn {

class GnnModel {
 public:
  /// w1, b1, w2, b2, w3, b3, w4, b4 — the parameters() layout.
  static constexpr std::size_t kNumParameters =
      kFeatureDim * kHiddenDim + kHiddenDim + kHiddenDim * kHiddenDim +
      kHiddenDim + kHiddenDim * kMlpDim + kMlpDim + kMlpDim + 1;

  /// Xavier-style random init.
  void initialize(numeric::Rng& rng);

  // ---- parameter vector (for Adam) ----------------------------------------
  [[nodiscard]] std::vector<double> parameters() const;
  void set_parameters(std::span<const double> p);

  // ---- forward / backward ---------------------------------------------------
  /// Phi in (0, 1) for the positions v = (x.., y..) on `graph`; leaves in
  /// `ws` what backward() needs.
  double forward(const CircuitGraph& graph, std::span<const double> v,
                 Workspace& ws) const;

  /// Backward pass from d(loss)/d(logit) through the forward pass held in
  /// `ws`. A non-empty `param_grad` (size kNumParameters) receives the
  /// weight gradient, added in; a non-empty `grad_v` (size 2n) receives
  /// d(loss)/dv, added in. Either may be empty, and the work it alone needs
  /// is skipped.
  void backward(const CircuitGraph& graph, Workspace& ws, double dlogit,
                std::span<double> param_grad,
                std::span<double> grad_v) const;

  /// Phi(v), with d(Phi)/dv added into grad_v (dlogit = phi * (1 - phi)).
  double phi_and_grad(const CircuitGraph& graph, std::span<const double> v,
                      Workspace& ws, std::span<double> grad_v) const;

 private:
  void update_transposes();

  std::array<double, kFeatureDim * kHiddenDim> w1_{};
  std::array<double, kHiddenDim * kHiddenDim> w2_{};
  std::array<double, kHiddenDim * kMlpDim> w3_{};
  std::array<double, kHiddenDim> b1_{}, b2_{};
  std::array<double, kMlpDim> b3_{}, w4_{};
  double b4_ = 0;
  // Backward's row-major views, refreshed whenever the weights change: W2
  // transposed, and W1's dynamic rows transposed (kHiddenDim x kNumDynamic).
  std::array<double, kHiddenDim * kHiddenDim> w2t_{};
  std::array<double, kHiddenDim * kNumDynamic> w1t_dyn_{};
};

}  // namespace aplace::gnn
