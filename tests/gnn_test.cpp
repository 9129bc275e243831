// GNN performance model: graph construction, forward/backward correctness
// (finite differences on both weights and input coordinates, bitwise parity
// with the dense oracle in kernel_oracle.hpp), workspace isolation and
// training.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <thread>

#include "circuits/testcases.hpp"
#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "gnn/workspace.hpp"
#include "kernel_oracle.hpp"
#include "numeric/adam.hpp"
#include "test_util.hpp"

namespace aplace::gnn {
namespace {

std::vector<double> grid_positions(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    // Irregular spacing: keeps every laplacian feature away from its |.|
    // kink so finite differences are valid.
    v[i] = 2.0 * static_cast<double>(i % 4) + 1 +
           0.137 * static_cast<double>(i);
    v[n + i] = 2.0 * static_cast<double>(i / 4) + 1 +
               0.211 * static_cast<double>((i * 7) % 5);
  }
  return v;
}

std::vector<double> random_positions(std::size_t n, double side,
                                     numeric::Rng& rng) {
  std::vector<double> v(2 * n);
  for (double& x : v) x = rng.uniform(0.0, side);
  return v;
}

/// A~(r, c), zero when (r, c) is not stored.
double entry(const SparseRows& a, std::size_t r, std::size_t c) {
  for (std::uint32_t e = a.start[r]; e < a.start[r + 1]; ++e) {
    if (a.col[e] == c) return a.val[e];
  }
  return 0.0;
}

numeric::Matrix to_dense(const SparseRows& a, std::size_t n) {
  numeric::Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::uint32_t e = a.start[r]; e < a.start[r + 1]; ++e)
      m(r, a.col[e]) = a.val[e];
  return m;
}

TEST(CircuitGraphTest, AdjacencyRowStochastic) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(tc.circuit, 10.0);
  const SparseRows& a = g.adjacency();
  ASSERT_EQ(a.start.size(), tc.circuit.num_devices() + 1);
  for (std::size_t r = 0; r + 1 < a.start.size(); ++r) {
    double row = 0;
    for (std::uint32_t e = a.start[r]; e < a.start[r + 1]; ++e) {
      EXPECT_GT(a.val[e], 0.0) << "only nonzeros are stored";
      if (e > a.start[r]) {
        EXPECT_LT(a.col[e - 1], a.col[e]) << "columns ascending";
      }
      row += a.val[e];
    }
    EXPECT_NEAR(row, 1.0, 1e-12);
    EXPECT_GT(entry(a, r, r), 0.0) << "self loop present";
  }
}

TEST(CircuitGraphTest, ConnectedDevicesShareEdges) {
  const netlist::Circuit c = test::two_device_circuit();
  const CircuitGraph g(c, 10.0);
  EXPECT_GT(entry(g.adjacency(), 0, 1), 0.0);
  EXPECT_GT(entry(g.adjacency(), 1, 0), 0.0);
}

TEST(CircuitGraphTest, FeaturesCarryPositionsAndStatics) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(tc.circuit, 10.0);
  const std::vector<double> v = grid_positions(tc.circuit);
  const std::size_t n = tc.circuit.num_devices();
  Workspace ws;
  g.load_positions(v, ws);
  const numeric::Matrix& f = g.static_features();
  ASSERT_EQ(f.cols(), kFeatureDim);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(ws.x[i * kNumDynamic + 0], v[i] / 10.0);
    EXPECT_DOUBLE_EQ(ws.x[i * kNumDynamic + 1], v[n + i] / 10.0);
    // Exactly one type one-hot set.
    double onehot = 0;
    for (std::size_t t = 0; t < kNumDeviceTypes; ++t) onehot += f(i, 4 + t);
    EXPECT_DOUBLE_EQ(onehot, 1.0);
    for (const std::size_t c : kDynamicColumns) EXPECT_EQ(f(i, c), 0.0);
  }
}

TEST(CircuitGraphTest, SparseStructuresMatchDenseOracle) {
  // The CSR A~, its transpose, the static features and their precomputed
  // aggregate equal the dense construction exactly, on every circuit.
  for (const std::string& name : circuits::testcase_names()) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::CompiledCircuit cc(tc.circuit);
    const CircuitGraph g(tc.circuit, 12.5);
    const oracle::DenseGnn dense(cc, 12.5, GnnModel().parameters());
    const std::size_t n = g.num_nodes();
    EXPECT_LT(g.adjacency().nnz(), n * n) << name;
    EXPECT_EQ(to_dense(g.adjacency(), n).data(), dense.adjacency().data())
        << name;
    EXPECT_EQ(to_dense(g.adjacency_t(), n).data(),
              dense.adjacency().transposed().data())
        << name;
    EXPECT_EQ(g.static_features().data(), dense.static_features().data())
        << name;
    const numeric::Matrix aggregate = numeric::Matrix::multiply(
        dense.adjacency(), dense.static_features());
    EXPECT_EQ(g.static_aggregate().data(), aggregate.data()) << name;
  }
}

TEST(GnnModelTest, ForwardInUnitInterval) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(tc.circuit, 10.0);
  GnnModel model;
  numeric::Rng rng(3);
  model.initialize(rng);
  Workspace ws;
  const double phi = model.forward(g, grid_positions(tc.circuit), ws);
  EXPECT_GT(phi, 0.0);
  EXPECT_LT(phi, 1.0);
  EXPECT_DOUBLE_EQ(ws.phi, phi);
}

TEST(GnnModelTest, ParameterRoundtrip) {
  GnnModel model;
  numeric::Rng rng(5);
  model.initialize(rng);
  const std::vector<double> p = model.parameters();
  ASSERT_EQ(p.size(), GnnModel::kNumParameters);
  GnnModel copy;
  copy.set_parameters(p);
  EXPECT_EQ(copy.parameters(), p);
}

TEST(GnnModelTest, WeightGradientMatchesFiniteDifference) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(tc.circuit, 10.0);
  GnnModel model;
  numeric::Rng rng(7);
  model.initialize(rng);
  const std::vector<double> v = grid_positions(tc.circuit);

  Workspace ws;
  model.forward(g, v, ws);
  std::vector<double> grad(GnnModel::kNumParameters, 0.0);
  // d(logit)/d(params): dlogit = 1.
  model.backward(g, ws, 1.0, grad, {});

  std::vector<double> params = model.parameters();
  const double h = 1e-6;
  // Spot-check a spread of parameter indices (full sweep is slow).
  for (std::size_t k = 0; k < params.size();
       k += std::max<std::size_t>(params.size() / 37, 1)) {
    const double orig = params[k];
    params[k] = orig + h;
    model.set_parameters(params);
    model.forward(g, v, ws);
    const double lp = ws.logit;
    params[k] = orig - h;
    model.set_parameters(params);
    model.forward(g, v, ws);
    const double lm = ws.logit;
    params[k] = orig;
    model.set_parameters(params);
    const double fd = (lp - lm) / (2 * h);
    EXPECT_NEAR(grad[k], fd, 1e-5 + 1e-4 * std::abs(fd)) << "param " << k;
  }
}

TEST(GnnModelTest, InputGradientMatchesFiniteDifference) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const CircuitGraph g(tc.circuit, 10.0);
  GnnModel model;
  numeric::Rng rng(11);
  model.initialize(rng);
  std::vector<double> v = grid_positions(tc.circuit);

  Workspace ws;
  std::vector<double> grad_v(v.size(), 0.0);
  const double phi0 = model.phi_and_grad(g, v, ws, grad_v);
  (void)phi0;

  const double h = 1e-5;
  for (std::size_t i = 0; i < v.size(); i += 3) {
    const double orig = v[i];
    v[i] = orig + h;
    const double fp = model.forward(g, v, ws);
    v[i] = orig - h;
    const double fm = model.forward(g, v, ws);
    v[i] = orig;
    const double fd = (fp - fm) / (2 * h);
    EXPECT_NEAR(grad_v[i], fd, 1e-6 + 1e-3 * std::abs(fd)) << "coord " << i;
  }
}

// ---- bitwise parity with the dense oracle ----------------------------------

class GnnOracleParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GnnOracleParityTest, PhiInputGradientAndWeightGradientBitwise) {
  // The sparse, allocation-free kernel keeps every sum of the dense path in
  // order, so Phi, dPhi/dv and the weight gradient match it exactly.
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::CompiledCircuit cc(tc.circuit);
  const double side = std::sqrt(tc.circuit.total_device_area() / 0.5);
  const CircuitGraph g(tc.circuit, side);
  const std::size_t n = g.num_nodes();

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    numeric::Rng rng(100 + seed);
    GnnModel model;
    model.initialize(rng);
    const oracle::DenseGnn dense(cc, side, model.parameters());
    std::vector<double> v = random_positions(n, side, rng);
    if (seed == 4) {
      // Coincident devices: every laplacian is zero up to rounding, at the
      // |.| kink.
      std::fill(v.begin(), v.end(), 0.5 * side);
    }

    // Phi and the logit.
    Workspace ws;
    const double phi = model.forward(g, v, ws);
    const oracle::DenseGnn::Features f = dense.features(v);
    oracle::DenseGnn::Activations act;
    EXPECT_EQ(phi, dense.forward(f.x, act)) << "seed " << seed;
    EXPECT_EQ(ws.logit, act.logit) << "seed " << seed;

    // Weight gradient, added into a buffer that already holds values (as
    // training's running sum does).
    const double dlogit = phi - 0.25;
    std::vector<double> pg(GnnModel::kNumParameters);
    for (double& x : pg) x = rng.uniform(-1.0, 1.0);
    std::vector<double> pg_dense = pg;
    model.backward(g, ws, dlogit, pg, {});
    dense.backward(act, dlogit, pg_dense, nullptr);
    EXPECT_EQ(pg, pg_dense) << "seed " << seed;

    // dPhi/dv, as gnn::PhiTerm forms it.
    std::vector<double> gv(2 * n, 0.0), gv_dense(2 * n, 0.0);
    EXPECT_EQ(model.phi_and_grad(g, v, ws, gv),
              dense.phi_and_position_grad(v, gv_dense));
    EXPECT_EQ(gv, gv_dense) << "seed " << seed;

    // Both gradients from one backward pass.
    std::vector<double> pg_both(GnnModel::kNumParameters, 0.0);
    std::vector<double> pg_alone(GnnModel::kNumParameters, 0.0);
    std::vector<double> gv_both(2 * n, 0.0);
    model.forward(g, v, ws);
    model.backward(g, ws, phi * (1.0 - phi), pg_both, gv_both);
    model.backward(g, ws, phi * (1.0 - phi), pg_alone, {});
    EXPECT_EQ(pg_both, pg_alone) << "seed " << seed;
    EXPECT_EQ(gv_both, gv) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, GnnOracleParityTest,
    ::testing::ValuesIn(circuits::testcase_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string s = info.param;
      std::replace(s.begin(), s.end(), '-', '_');
      return s;
    });

TEST(GnnWorkspaceTest, InterleavedEvaluationsStayIsolated) {
  // Everything an evaluation needs between forward and backward (the
  // laplacian signs included) lives in its workspace: two placements
  // interleaved on one graph and model each get their own Phi and gradient.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const CircuitGraph g(tc.circuit, 10.0);
  const std::size_t n = g.num_nodes();
  GnnModel model;
  numeric::Rng rng(19);
  model.initialize(rng);
  const std::vector<double> va = random_positions(n, 10.0, rng);
  std::vector<double> vb = va;
  for (double& x : vb) x = 10.0 - x;  // flips every laplacian sign

  auto isolated = [&](const std::vector<double>& v, std::vector<double>& gv) {
    Workspace ws;
    return model.phi_and_grad(g, v, ws, gv);
  };
  std::vector<double> ga(2 * n, 0.0), gb(2 * n, 0.0);
  const double phi_a = isolated(va, ga);
  const double phi_b = isolated(vb, gb);

  Workspace wa, wb;
  const double ia = model.forward(g, va, wa);
  const double ib = model.forward(g, vb, wb);
  std::vector<double> ia_grad(2 * n, 0.0), ib_grad(2 * n, 0.0);
  model.backward(g, wa, ia * (1.0 - ia), {}, ia_grad);
  model.backward(g, wb, ib * (1.0 - ib), {}, ib_grad);
  EXPECT_EQ(ia, phi_a);
  EXPECT_EQ(ib, phi_b);
  EXPECT_EQ(ia_grad, ga);
  EXPECT_EQ(ib_grad, gb);

  // The same two evaluations on two threads at once.
  std::vector<double> ta(2 * n, 0.0), tb(2 * n, 0.0);
  double tphi_a = 0, tphi_b = 0;
  std::thread t1([&] {
    for (int r = 0; r < 50; ++r) {
      std::fill(ta.begin(), ta.end(), 0.0);
      tphi_a = isolated(va, ta);
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 50; ++r) {
      std::fill(tb.begin(), tb.end(), 0.0);
      tphi_b = isolated(vb, tb);
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(tphi_a, phi_a);
  EXPECT_EQ(tphi_b, phi_b);
  EXPECT_EQ(ta, ga);
  EXPECT_EQ(tb, gb);
}

// ---- training --------------------------------------------------------------

std::vector<Sample> separable_samples(const netlist::Circuit& c, int count) {
  // Label = 1 when the layout is "stretched" (every device shifted right).
  const std::size_t n = c.num_devices();
  numeric::Rng rng(13);
  std::vector<Sample> samples;
  for (int k = 0; k < count; ++k) {
    std::vector<double> v(2 * n);
    const bool stretched = k % 2 == 0;
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(0, 4) + (stretched ? 12.0 : 0.0);
      v[n + i] = rng.uniform(0, 4);
    }
    samples.push_back({std::move(v), stretched ? 1.0 : 0.0});
  }
  return samples;
}

TEST(TrainerTest, LearnsSeparableLabels) {
  // The GNN must learn the label from coordinates.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Circuit& c = tc.circuit;
  const CircuitGraph g(c, 10.0);
  const std::vector<Sample> samples = separable_samples(c, 160);

  GnnModel model;
  numeric::Rng init(17);
  model.initialize(init);
  TrainOptions topts;
  topts.epochs = 250;
  topts.lr = 2e-2;
  Trainer trainer(g, model, topts);
  const TrainReport report = trainer.train(samples);
  EXPECT_GT(report.train_accuracy, 0.95) << "loss=" << report.final_loss;
  EXPECT_GT(report.validation_accuracy, 0.9);
}

TEST(TrainerTest, MatchesDenseOracleTrainingBitwise) {
  // Trainer's loop run on the dense oracle: same split, same per-sample
  // loss and gradient sums, same Adam steps. The trained weights and the
  // final loss agree exactly.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const netlist::CompiledCircuit cc(tc.circuit);
  const CircuitGraph g(tc.circuit, 10.0);
  const std::vector<Sample> samples = separable_samples(tc.circuit, 40);
  TrainOptions topts;
  topts.epochs = 6;

  GnnModel model;
  numeric::Rng init(23);
  model.initialize(init);
  std::vector<double> params = model.parameters();
  const TrainReport report = Trainer(g, model, topts).train(samples);

  numeric::Rng rng(topts.seed);
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  const std::size_t n_val = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(std::llround(
          topts.validation_fraction * static_cast<double>(samples.size()))));
  const std::vector<std::size_t> train(order.begin() + n_val, order.end());

  oracle::DenseGnn dense(cc, 10.0, params);
  numeric::Adam adam(params.size(), {.lr = topts.lr});
  std::vector<double> grad(params.size());
  double final_loss = 0;
  for (int epoch = 0; epoch < topts.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0;
    for (const std::size_t si : train) {
      const Sample& s = samples[si];
      oracle::DenseGnn::Activations act;
      const double phi = dense.forward(dense.features(s.positions).x, act);
      const double p = std::clamp(phi, 1e-9, 1.0 - 1e-9);
      loss += -(s.label * std::log(p) + (1.0 - s.label) * std::log(1.0 - p));
      dense.backward(act, phi - s.label, grad, nullptr);
    }
    const double inv = 1.0 / static_cast<double>(train.size());
    for (std::size_t k = 0; k < grad.size(); ++k) {
      grad[k] = grad[k] * inv + topts.weight_decay * params[k];
    }
    adam.step(params, grad);
    dense.set_parameters(params);
    final_loss = loss * inv;
  }
  EXPECT_EQ(report.final_loss, final_loss);
  EXPECT_EQ(model.parameters(), params);
}

}  // namespace
}  // namespace aplace::gnn
