#pragma once
// Circuit-graph construction for the GNN performance model (Li et al.,
// ICCAD'20 style): devices are nodes, nets induce edges (clique expansion
// for small nets, star-to-driver for large ones), and node features combine
// static attributes (size, type, degree) with the placement-dependent
// coordinates the analytical placer differentiates through.

#include <span>
#include <vector>

#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"

namespace aplace::gnn {

inline constexpr std::size_t kNumDeviceTypes = 7;
/// x, y, w, h, one-hot type, degree, laplacian x/y (signed offset of the
/// device from its connectivity-weighted neighborhood mean), |laplacian|
/// x/y (its magnitude — the wirelength-bearing signal a mean-pooled GCN
/// cannot recover from raw coordinates alone).
inline constexpr std::size_t kFeatureDim = 4 + kNumDeviceTypes + 1 + 4;

class CircuitGraph {
 public:
  /// `coord_scale` normalizes positions into O(1) features; pick the
  /// expected layout side (e.g. sqrt(total area / utilization)).
  CircuitGraph(netlist::CompiledRef compiled, double coord_scale);

  [[nodiscard]] std::size_t num_nodes() const { return n_; }
  [[nodiscard]] double coord_scale() const { return scale_; }

  /// Row-normalized adjacency with self loops: A~ = D^-1 (A + I).
  [[nodiscard]] const numeric::Matrix& adjacency() const { return adj_; }

  /// Node feature matrix for the positions v = (x.., y..). Rows = nodes.
  [[nodiscard]] numeric::Matrix features(std::span<const double> v) const;

  /// Chain rule from feature gradients back to position gradients:
  /// grad_v[i] += dF(i, 0) / scale, grad_v[n+i] += dF(i, 1) / scale.
  void accumulate_position_grad(const numeric::Matrix& feature_grad,
                                std::span<double> grad_v) const;

 private:
  netlist::CompiledRef compiled_;
  std::size_t n_;
  double scale_;
  numeric::Matrix adj_;
  numeric::Matrix static_features_;  ///< columns 2.. (everything but x, y)
  // Signs of the laplacian features at the last features() call, needed by
  // accumulate_position_grad for the |lap| chain rule.
  mutable std::vector<double> lap_sign_x_, lap_sign_y_;
};

}  // namespace aplace::gnn
