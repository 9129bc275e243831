#include "gnn/model.hpp"

#include <algorithm>
#include <cmath>

#include "gnn/row_ops.hpp"

namespace aplace::gnn {
namespace {

using detail::aggregate;
using detail::madd;

constexpr std::size_t kH = kHiddenDim;
constexpr std::size_t kM = kMlpDim;

// Offsets of each block in the parameters() layout.
constexpr std::size_t kOffW1 = 0;
constexpr std::size_t kOffB1 = kOffW1 + kFeatureDim * kH;
constexpr std::size_t kOffW2 = kOffB1 + kH;
constexpr std::size_t kOffB2 = kOffW2 + kH * kH;
constexpr std::size_t kOffW3 = kOffB2 + kH;
constexpr std::size_t kOffB3 = kOffW3 + kH * kM;
constexpr std::size_t kOffW4 = kOffB3 + kM;
constexpr std::size_t kOffB4 = kOffW4 + kM;
static_assert(kOffB4 + 1 == GnnModel::kNumParameters);

}  // namespace

void GnnModel::initialize(numeric::Rng& rng) {
  auto xavier = [&](std::span<double> w, std::size_t rows, std::size_t cols) {
    const double s = std::sqrt(2.0 / static_cast<double>(rows + cols));
    for (double& v : w) v = rng.normal(0.0, s);
  };
  xavier(w1_, kFeatureDim, kH);
  xavier(w2_, kH, kH);
  xavier(w3_, kH, kM);
  const double s4 = std::sqrt(2.0 / static_cast<double>(kM + 1));
  for (double& v : w4_) v = rng.normal(0.0, s4);
  b1_.fill(0.0);
  b2_.fill(0.0);
  b3_.fill(0.0);
  b4_ = 0;
  update_transposes();
}

std::vector<double> GnnModel::parameters() const {
  std::vector<double> p;
  p.reserve(kNumParameters);
  auto push = [&](std::span<const double> v) {
    p.insert(p.end(), v.begin(), v.end());
  };
  push(w1_);
  push(b1_);
  push(w2_);
  push(b2_);
  push(w3_);
  push(b3_);
  push(w4_);
  p.push_back(b4_);
  return p;
}

void GnnModel::set_parameters(std::span<const double> p) {
  APLACE_CHECK(p.size() == kNumParameters);
  std::size_t k = 0;
  auto pull = [&](std::span<double> v) {
    for (double& x : v) x = p[k++];
  };
  pull(w1_);
  pull(b1_);
  pull(w2_);
  pull(b2_);
  pull(w3_);
  pull(b3_);
  pull(w4_);
  b4_ = p[k++];
  update_transposes();
}

void GnnModel::update_transposes() {
  for (std::size_t k = 0; k < kH; ++k) {
    for (std::size_t j = 0; j < kH; ++j) w2t_[k * kH + j] = w2_[j * kH + k];
    for (std::size_t c = 0; c < kNumDynamic; ++c) {
      w1t_dyn_[k * kNumDynamic + c] = w1_[kDynamicColumns[c] * kH + k];
    }
  }
}

double GnnModel::forward(const CircuitGraph& graph, std::span<const double> v,
                         Workspace& ws) const {
  const std::size_t n = graph.num_nodes();
  graph.load_positions(v, ws);

  // H1 = ReLU(A~X W1 + b1): each bias is added after its product.
  for (std::size_t i = 0; i < n; ++i) {
    const double* ax = &ws.ax[i * kFeatureDim];
    double acc[kH] = {};
    for (std::size_t k = 0; k < kFeatureDim; ++k)
      madd<kH>(acc, ax[k], &w1_[k * kH]);
    double* h = &ws.h1[i * kH];
    for (std::size_t j = 0; j < kH; ++j) h[j] = std::max(acc[j] + b1_[j], 0.0);
  }
  // H2 = ReLU(A~H1 W2 + b2).
  aggregate<kH>(graph.adjacency(), ws.h1.data(), ws.ah1.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double* ah = &ws.ah1[i * kH];
    double acc[kH] = {};
    for (std::size_t k = 0; k < kH; ++k) madd<kH>(acc, ah[k], &w2_[k * kH]);
    double* h = &ws.h2[i * kH];
    for (std::size_t j = 0; j < kH; ++j) h[j] = std::max(acc[j] + b2_[j], 0.0);
  }

  ws.g.fill(0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < kH; ++j)
      ws.g[j] += ws.h2[i * kH + j] / static_cast<double>(n);

  for (std::size_t j = 0; j < kM; ++j) {
    double s = b3_[j];
    for (std::size_t k = 0; k < kH; ++k) s += ws.g[k] * w3_[k * kM + j];
    ws.a3[j] = s;
    ws.u[j] = std::max(s, 0.0);
  }

  double logit = b4_;
  for (std::size_t j = 0; j < kM; ++j) logit += ws.u[j] * w4_[j];
  ws.logit = logit;
  ws.phi = 1.0 / (1.0 + std::exp(-logit));
  return ws.phi;
}

void GnnModel::backward(const CircuitGraph& graph, Workspace& ws,
                        double dlogit, std::span<double> param_grad,
                        std::span<double> grad_v) const {
  const std::size_t n = graph.num_nodes();
  APLACE_CHECK(ws.n == n);
  const bool weights = !param_grad.empty();
  APLACE_CHECK(!weights || param_grad.size() == kNumParameters);
  double* pg = param_grad.data();

  // Head. A ReLU's derivative is read off its output: h <= 0 exactly where
  // the pre-activation is <= 0.
  std::array<double, kM> da3{};
  for (std::size_t j = 0; j < kM; ++j) {
    if (weights) pg[kOffW4 + j] += dlogit * ws.u[j];
    const double du = dlogit * w4_[j];
    da3[j] = ws.a3[j] > 0 ? du : 0.0;
  }
  if (weights) pg[kOffB4] += dlogit;

  std::array<double, kH> dg{};
  for (std::size_t k = 0; k < kH; ++k) {
    for (std::size_t j = 0; j < kM; ++j) {
      if (weights) pg[kOffW3 + k * kM + j] += ws.g[k] * da3[j];
      dg[k] += w3_[k * kM + j] * da3[j];
    }
  }
  if (weights) {
    for (std::size_t j = 0; j < kM; ++j) pg[kOffB3 + j] += da3[j];
  }

  // Mean pool: every row of dH2 is dg / n; dA2 masks it by ReLU'.
  std::array<double, kH> dgn{};
  for (std::size_t j = 0; j < kH; ++j) dgn[j] = dg[j] / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < kH; ++j)
      ws.da2[i * kH + j] = ws.h2[i * kH + j] <= 0 ? 0.0 : dgn[j];

  // dW2 = (A~H1)^T dA2, each row summed over the nodes from zero and then
  // added in; db2 = colsum dA2.
  if (weights) {
    for (std::size_t k = 0; k < kH; ++k) {
      double acc[kH] = {};
      for (std::size_t i = 0; i < n; ++i)
        madd<kH>(acc, ws.ah1[i * kH + k], &ws.da2[i * kH]);
      for (std::size_t j = 0; j < kH; ++j) pg[kOffW2 + k * kH + j] += acc[j];
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < kH; ++j)
        pg[kOffB2 + j] += ws.da2[i * kH + j];
  }

  // dA1 = (A~^T dA2 W2^T) masked by ReLU'.
  aggregate<kH>(graph.adjacency_t(), ws.da2.data(), ws.t.data());
  for (std::size_t i = 0; i < n; ++i) {
    const double* t = &ws.t[i * kH];
    double acc[kH] = {};
    for (std::size_t k = 0; k < kH; ++k) madd<kH>(acc, t[k], &w2t_[k * kH]);
    double* d = &ws.da1[i * kH];
    for (std::size_t j = 0; j < kH; ++j)
      d[j] = ws.h1[i * kH + j] <= 0 ? 0.0 : acc[j];
  }

  // dW1 = (A~X)^T dA1, the same way; db1 = colsum dA1.
  if (weights) {
    for (std::size_t k = 0; k < kFeatureDim; ++k) {
      double acc[kH] = {};
      for (std::size_t i = 0; i < n; ++i)
        madd<kH>(acc, ws.ax[i * kFeatureDim + k], &ws.da1[i * kH]);
      for (std::size_t j = 0; j < kH; ++j) pg[kOffW1 + k * kH + j] += acc[j];
    }
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < kH; ++j)
        pg[kOffB1 + j] += ws.da1[i * kH + j];
  }

  // dX = A~^T dA1 W1^T, needed on the dynamic columns only.
  if (!grad_v.empty()) {
    aggregate<kH>(graph.adjacency_t(), ws.da1.data(), ws.t.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double* t = &ws.t[i * kH];
      double acc[kNumDynamic] = {};
      for (std::size_t k = 0; k < kH; ++k)
        madd<kNumDynamic>(acc, t[k], &w1t_dyn_[k * kNumDynamic]);
      std::copy(acc, acc + kNumDynamic, &ws.x_grad[i * kNumDynamic]);
    }
    graph.accumulate_position_grad(ws, grad_v);
  }
}

double GnnModel::phi_and_grad(const CircuitGraph& graph,
                              std::span<const double> v, Workspace& ws,
                              std::span<double> grad_v) const {
  const double phi = forward(graph, v, ws);
  backward(graph, ws, phi * (1.0 - phi), {}, grad_v);
  return phi;
}

}  // namespace aplace::gnn
