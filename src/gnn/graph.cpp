#include "gnn/graph.hpp"

#include <algorithm>
#include <cmath>

#include "gnn/row_ops.hpp"
#include "gnn/workspace.hpp"

namespace aplace::gnn {
namespace {

std::size_t type_index(netlist::DeviceType t) {
  return static_cast<std::size_t>(t);
}

}  // namespace

CircuitGraph::CircuitGraph(netlist::CompiledRef compiled, double coord_scale)
    : compiled_(std::move(compiled)),
      n_(compiled_->num_devices()),
      scale_(coord_scale),
      static_features_(n_, kFeatureDim),
      static_aggregate_(n_, kFeatureDim) {
  APLACE_CHECK(coord_scale > 0);
  const netlist::CompiledCircuit& cc = *compiled_;

  // Raw adjacency: clique for nets with <= 6 pins, star from the first pin
  // otherwise (keeps big supply nets from densifying the graph). The
  // compiled net->device CSR is deduplicated and sorted ascending.
  std::vector<std::vector<std::uint32_t>> nbr(n_);
  for (std::size_t ni = 0; ni < cc.num_nets(); ++ni) {
    const std::span<const std::uint32_t> devs = cc.net_devices(ni);
    if (devs.size() < 2) continue;
    auto connect = [&](std::uint32_t u, std::uint32_t w) {
      if (u == w) return;
      nbr[u].push_back(w);
      nbr[w].push_back(u);
    };
    if (devs.size() <= 6) {
      for (std::size_t i = 0; i < devs.size(); ++i)
        for (std::size_t j = i + 1; j < devs.size(); ++j)
          connect(devs[i], devs[j]);
    } else {
      for (std::size_t j = 1; j < devs.size(); ++j) connect(devs[0], devs[j]);
    }
  }
  // Self loops + row normalization: every entry of row i is 1 / |row i|.
  std::vector<double> degree(n_);
  adj_.start.assign(1, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    std::vector<std::uint32_t>& row = nbr[i];
    row.push_back(static_cast<std::uint32_t>(i));
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    const auto count = static_cast<double>(row.size());
    for (const std::uint32_t j : row) {
      adj_.col.push_back(j);
      adj_.val.push_back(1.0 / count);
    }
    adj_.start.push_back(static_cast<std::uint32_t>(adj_.col.size()));
    degree[i] = count - 1.0;
  }
  // Transpose: visiting rows in ascending order keeps each transposed
  // row's columns ascending.
  adj_t_.start.assign(n_ + 1, 0);
  for (const std::uint32_t k : adj_.col) ++adj_t_.start[k + 1];
  for (std::size_t k = 0; k < n_; ++k) adj_t_.start[k + 1] += adj_t_.start[k];
  adj_t_.col.resize(adj_.nnz());
  adj_t_.val.resize(adj_.nnz());
  std::vector<std::uint32_t> next(adj_t_.start.begin(), adj_t_.start.end() - 1);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::uint32_t e = adj_.start[i]; e < adj_.start[i + 1]; ++e) {
      const std::uint32_t slot = next[adj_.col[e]]++;
      adj_t_.col[slot] = static_cast<std::uint32_t>(i);
      adj_t_.val[slot] = adj_.val[e];
    }
  }

  // Static feature columns (the dynamic ones are filled per evaluation).
  const std::span<const double> dev_w = cc.dev_width();
  const std::span<const double> dev_h = cc.dev_height();
  double max_dim = 1e-9;
  for (std::size_t i = 0; i < n_; ++i) {
    max_dim = std::max({max_dim, dev_w[i], dev_h[i]});
  }
  for (std::size_t i = 0; i < n_; ++i) {
    static_features_(i, 2) = dev_w[i] / max_dim;
    static_features_(i, 3) = dev_h[i] / max_dim;
    const std::size_t t = type_index(cc.dev_type()[i]);
    APLACE_CHECK(t < kNumDeviceTypes);
    static_features_(i, 4 + t) = 1.0;
    static_features_(i, 4 + kNumDeviceTypes) =
        degree[i] / static_cast<double>(std::max<std::size_t>(n_ - 1, 1));
  }
  detail::aggregate<kFeatureDim>(adj_, static_features_.data().data(),
                                 static_aggregate_.data().data());
}

void CircuitGraph::load_positions(std::span<const double> v,
                                  Workspace& ws) const {
  APLACE_CHECK(v.size() == 2 * n_);
  ws.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    // Laplacian features: offset from the adjacency-weighted mean of the
    // neighborhood (self loop included), plus magnitudes. The signs are
    // kept for accumulate_position_grad's |.| chain rule.
    double mx = 0, my = 0;
    for (std::uint32_t e = adj_.start[i]; e < adj_.start[i + 1]; ++e) {
      mx += adj_.val[e] * v[adj_.col[e]];
      my += adj_.val[e] * v[n_ + adj_.col[e]];
    }
    double* f = &ws.x[i * kNumDynamic];
    f[0] = v[i] / scale_;
    f[1] = v[n_ + i] / scale_;
    f[2] = (v[i] - mx) / scale_;
    f[3] = (v[n_ + i] - my) / scale_;
    f[4] = std::abs(f[2]);
    f[5] = std::abs(f[3]);
    ws.lap_sign[2 * i] = f[2] >= 0 ? 1.0 : -1.0;
    ws.lap_sign[2 * i + 1] = f[3] >= 0 ? 1.0 : -1.0;
  }
  // A~ X: the static columns as precomputed, the dynamic ones summed here.
  std::copy(static_aggregate_.data().begin(), static_aggregate_.data().end(),
            ws.ax.begin());
  for (std::size_t i = 0; i < n_; ++i) {
    double acc[kNumDynamic] = {};
    for (std::uint32_t e = adj_.start[i]; e < adj_.start[i + 1]; ++e) {
      detail::madd<kNumDynamic>(acc, adj_.val[e],
                                &ws.x[adj_.col[e] * kNumDynamic]);
    }
    for (std::size_t c = 0; c < kNumDynamic; ++c) {
      ws.ax[i * kFeatureDim + kDynamicColumns[c]] = acc[c];
    }
  }
}

void CircuitGraph::accumulate_position_grad(const Workspace& ws,
                                            std::span<double> grad_v) const {
  APLACE_CHECK(grad_v.size() == 2 * n_ && ws.n == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double* fg = &ws.x_grad[i * kNumDynamic];
    grad_v[i] += fg[0] / scale_;
    grad_v[n_ + i] += fg[1] / scale_;
    // Laplacian chain rule: d lap_i / d x_k = delta_ik - adj(i, k); the
    // magnitude features contribute sign(lap_i) times the same Jacobian.
    const double gx = fg[2] + fg[4] * ws.lap_sign[2 * i];
    const double gy = fg[3] + fg[5] * ws.lap_sign[2 * i + 1];
    grad_v[i] += gx / scale_;
    grad_v[n_ + i] += gy / scale_;
    for (std::uint32_t e = adj_.start[i]; e < adj_.start[i + 1]; ++e) {
      const std::size_t k = adj_.col[e];
      grad_v[k] -= gx * adj_.val[e] / scale_;
      grad_v[n_ + k] -= gy * adj_.val[e] / scale_;
    }
  }
}

}  // namespace aplace::gnn
