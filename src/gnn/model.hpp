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
// Everything is hand-differentiated; weight_terms() produces the weight
// gradient (for training) and backward() d Phi / d v (for the analytical
// placer, which descends through the model to device coordinates — the
// key mechanism of ePlace-AP).
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
  /// `ws` what backward() and weight_terms() need.
  double forward(const CircuitGraph& graph, std::span<const double> v,
                 Workspace& ws) const;

  /// Backward pass from d(loss)/d(logit) through the forward pass held in
  /// `ws`: d(loss)/dv (size 2n), added into `grad_v`.
  void backward(const CircuitGraph& graph, Workspace& ws, double dlogit,
                std::span<double> grad_v) const;

  /// One sample's weight gradient, held as terms so that samples evaluated
  /// concurrently can be added into one running sum in sample order
  /// (gnn::Trainer). `w` holds the single term each W1, W2, W3, b3, w4 and
  /// b4 entry takes; its b1 and b2 entries are unused. b1 and b2 take one
  /// term per node: the rows of `da1` and `da2` (n x kHiddenDim each).
  struct GradTerms {
    std::array<double, kNumParameters> w{};
    std::vector<double> da1, da2;
  };

  /// The weight gradient of the forward pass held in `ws`, from
  /// d(loss)/d(logit), as the sample's terms in `out`. The pass's dA1/dA2
  /// rows are swapped out of `ws` into `out` rather than copied; `ws` stays
  /// ready for the next forward().
  void weight_terms(const CircuitGraph& graph, Workspace& ws, double dlogit,
                    GradTerms& out) const;

  /// Adds `terms` into grad[lo, hi) in the dense reference's order: one add
  /// per entry, node by node for b1 and b2. Each entry's adds are
  /// independent of every other entry's, so disjoint ranges may be added
  /// concurrently.
  static void add_terms(const GradTerms& terms, std::span<double> grad,
                        std::size_t lo, std::size_t hi);

  /// Phi(v), with d(Phi)/dv added into grad_v (dlogit = phi * (1 - phi)).
  double phi_and_grad(const CircuitGraph& graph, std::span<const double> v,
                      Workspace& ws, std::span<double> grad_v) const;

 private:
  void update_transposes();
  // The part of the backward pass both outputs need: dA2 and dA1 into
  // `ws`. A non-null `w` (size kNumParameters) also receives the weight
  // terms of GradTerms::w.
  void propagate(const CircuitGraph& graph, Workspace& ws, double dlogit,
                 double* w) const;

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
