#pragma once
// Caller-owned scratch of one GNN evaluation: the placement-dependent
// feature columns CircuitGraph::load_positions fills, every activation
// GnnModel::forward keeps for backward, and backward's temporaries. It is
// sized on first use for a node count; after that forward and backward
// never allocate. Give each thread (and each interleaved evaluation) its
// own workspace: nothing about an evaluation lives in the graph or the
// model.
//
// Matrices are row-major with one row per node.

#include <array>
#include <vector>

#include "gnn/graph.hpp"

namespace aplace::gnn {

inline constexpr std::size_t kHiddenDim = 24;  ///< GCN layer width
inline constexpr std::size_t kMlpDim = 8;      ///< pooled MLP head width

struct Workspace {
  /// Sizes every buffer for `num_nodes` nodes; no-op if already that size.
  /// CircuitGraph::load_positions, the first step of every evaluation,
  /// calls it.
  void resize(std::size_t num_nodes) {
    if (num_nodes == n) return;
    n = num_nodes;
    x.assign(n * kNumDynamic, 0.0);
    x_grad.assign(n * kNumDynamic, 0.0);
    ax.assign(n * kFeatureDim, 0.0);
    lap_sign.assign(2 * n, 0.0);
    for (std::vector<double>* m : {&h1, &ah1, &h2, &da2, &da1, &t}) {
      m->assign(n * kHiddenDim, 0.0);
    }
  }

  std::size_t n = 0;

  // ---- CircuitGraph::load_positions ----------------------------------------
  /// Dynamic feature values, n x kNumDynamic in kDynamicColumns order.
  std::vector<double> x;
  /// A~ X, n x kFeatureDim: the graph's static aggregate with this
  /// evaluation's dynamic aggregates written into their columns.
  std::vector<double> ax;
  std::vector<double> lap_sign;  ///< n x 2: sign of laplacian x, y (+1 at 0)

  // ---- GnnModel::forward ----------------------------------------------------
  std::vector<double> h1, ah1, h2;  ///< n x kHiddenDim; h = ReLU(pre)
  std::array<double, kHiddenDim> g{};
  std::array<double, kMlpDim> a3{}, u{};
  double logit = 0, phi = 0;

  // ---- GnnModel::backward ---------------------------------------------------
  std::vector<double> da2, da1;  ///< n x kHiddenDim
  std::vector<double> t;         ///< A~^T da2, then A~^T da1
  /// d/dX on the dynamic columns (n x kNumDynamic), read by
  /// CircuitGraph::accumulate_position_grad.
  std::vector<double> x_grad;
};

}  // namespace aplace::gnn
