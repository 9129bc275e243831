#pragma once
// Circuit-graph construction for the GNN performance model (Li et al.,
// ICCAD'20 style): devices are nodes, nets induce edges (clique expansion
// for small nets, star-to-driver for large ones), and node features combine
// static attributes (size, type, degree) with the placement-dependent
// coordinates the analytical placer differentiates through.
//
// Only 6 of the 16 feature columns depend on the placement. The graph
// computes the other 10 and their A~ aggregate once; each evaluation fills
// just the 6 position columns and their aggregates into a caller-owned
// Workspace (gnn/workspace.hpp), so a graph is immutable after construction
// and any number of threads may evaluate it, one workspace each.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/compiled.hpp"
#include "numeric/matrix.hpp"

namespace aplace::gnn {

struct Workspace;

inline constexpr std::size_t kNumDeviceTypes = 7;
/// x, y, w, h, one-hot type, degree, laplacian x/y (signed offset of the
/// device from its connectivity-weighted neighborhood mean), |laplacian|
/// x/y (its magnitude — the wirelength-bearing signal a mean-pooled GCN
/// cannot recover from raw coordinates alone).
inline constexpr std::size_t kFeatureDim = 4 + kNumDeviceTypes + 1 + 4;
/// The position-dependent feature columns, in feature order: x, y,
/// laplacian x/y, |laplacian| x/y. Every other column is static.
inline constexpr std::array<std::size_t, 6> kDynamicColumns = {
    0, 1, kFeatureDim - 4, kFeatureDim - 3, kFeatureDim - 2, kFeatureDim - 1};
inline constexpr std::size_t kNumDynamic = kDynamicColumns.size();

/// Compressed sparse rows: row r holds entries [start[r], start[r + 1]) of
/// col/val, columns strictly ascending.
struct SparseRows {
  std::vector<std::uint32_t> start;
  std::vector<std::uint32_t> col;
  std::vector<double> val;

  [[nodiscard]] std::size_t nnz() const { return col.size(); }
};

class CircuitGraph {
 public:
  /// `coord_scale` normalizes positions into O(1) features; pick the
  /// expected layout side (e.g. sqrt(total area / utilization)).
  CircuitGraph(netlist::CompiledRef compiled, double coord_scale);

  [[nodiscard]] std::size_t num_nodes() const { return n_; }
  [[nodiscard]] double coord_scale() const { return scale_; }

  /// Row-normalized adjacency with self loops, A~ = D^-1 (A + I), holding
  /// exactly its nonzeros. Summing a row in storage order is the dense
  /// zero-skipping loop over ascending columns, term for term.
  [[nodiscard]] const SparseRows& adjacency() const { return adj_; }
  /// A~ transposed, same layout (the pattern is symmetric, the values are
  /// not): row k lists A~(i, k) over ascending i.
  [[nodiscard]] const SparseRows& adjacency_t() const { return adj_t_; }

  /// Static feature columns (rows = nodes); the dynamic columns are zero.
  [[nodiscard]] const numeric::Matrix& static_features() const {
    return static_features_;
  }
  /// A~ · static_features(): it depends on no weight, so it is computed
  /// once; the dynamic columns are zero.
  [[nodiscard]] const numeric::Matrix& static_aggregate() const {
    return static_aggregate_;
  }

  /// Sizes ws for this graph and fills its feature columns for the
  /// positions v = (x.., y..): the dynamic ones, A~ X (the static aggregate
  /// plus the dynamic columns' aggregates) and the laplacian signs the |.|
  /// chain rule needs.
  void load_positions(std::span<const double> v, Workspace& ws) const;

  /// Chain rule from ws's dynamic-feature gradient (set by
  /// GnnModel::backward) back to positions, added into grad_v:
  /// grad_v[i] += dF(i, x) / scale, grad_v[n+i] += dF(i, y) / scale, plus
  /// the laplacian terms.
  void accumulate_position_grad(const Workspace& ws,
                                std::span<double> grad_v) const;

 private:
  netlist::CompiledRef compiled_;
  std::size_t n_;
  double scale_;
  SparseRows adj_, adj_t_;
  numeric::Matrix static_features_;
  numeric::Matrix static_aggregate_;
};

}  // namespace aplace::gnn
