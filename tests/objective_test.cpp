// Composable objective layer: finite-difference gradient property test for
// every ObjectiveTerm adapter through the common interface, the
// composite-equals-sum-of-terms invariant, weights by term index and their
// calibration, and the TermTrace observability plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "density/bell.hpp"
#include "density/electro.hpp"
#include "gp/objective.hpp"
#include "gp/penalties.hpp"
#include "test_util.hpp"
#include "wirelength/area_term.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace::gp {
namespace {

// constrained_circuit() plus a common-centroid quad so every penalty family
// has at least one active constraint.
netlist::Circuit full_constraint_circuit() {
  netlist::Circuit cc("full-constraints");
  const DeviceId a = cc.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = cc.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId s = cc.add_device("S", netlist::DeviceType::Nmos, 4, 2);
  const DeviceId r1 = cc.add_device("R1", netlist::DeviceType::Resistor, 1, 3);
  const DeviceId r2 = cc.add_device("R2", netlist::DeviceType::Resistor, 1, 3);
  const PinId pa = cc.add_pin(a, "d", {1, 2});
  const PinId pb = cc.add_pin(b, "d", {1, 2});
  const PinId ps = cc.add_pin(s, "d", {2, 2});
  const PinId p1 = cc.add_pin(r1, "a", {0.5, 3});
  const PinId p2 = cc.add_pin(r2, "a", {0.5, 3});
  const PinId p1b = cc.add_pin(r1, "b", {0.5, 0});
  const PinId p2b = cc.add_pin(r2, "b", {0.5, 0});
  cc.add_net("n1", {pa, p1});
  cc.add_net("n2", {pb, p2});
  cc.add_net("n3", {ps, p1b, p2b});
  netlist::SymmetryGroup g;
  g.axis = netlist::Axis::Vertical;
  g.pairs.emplace_back(a, b);
  g.self_symmetric.push_back(s);
  cc.add_symmetry_group(std::move(g));
  cc.add_alignment({netlist::AlignmentKind::Bottom, r1, r2});
  cc.add_ordering({netlist::OrderDirection::LeftToRight, {r1, s}});
  cc.add_common_centroid({a, b, r1, r2});
  cc.finalize();
  return cc;
}

// Positions inside an 8x8 region, deliberately violating every constraint.
std::vector<double> test_positions(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 1.3 + 0.9 * static_cast<double>(i);
    v[n + i] = 1.7 + 0.7 * static_cast<double>((i * 3) % 5);
  }
  return v;
}
// Everything needed to build any adapter; owns the kernels.
struct Kernels {
  netlist::Circuit circuit = full_constraint_circuit();
  geom::Rect region{0, 0, 8, 8};
  wirelength::WaWirelength wa{circuit};
  wirelength::LseWirelength lse{circuit};
  wirelength::WaAreaTerm area{circuit};
  density::ElectroDensity electro{circuit, region, 16, 16, 0.8};
  density::BellDensity bell{circuit, region, 16, 16, 0.8};
  ConstraintPenalties pen{circuit};

  std::shared_ptr<ObjectiveTerm> make(const std::string& which) {
    if (which == "wirelength-wa") {
      return std::make_shared<SmoothWirelengthTerm>(wa, "wirelength");
    }
    if (which == "wirelength-lse") {
      return std::make_shared<SmoothWirelengthTerm>(lse, "wirelength");
    }
    if (which == "area") return std::make_shared<SmoothAreaTerm>(area);
    if (which == "electro-density") {
      return std::make_shared<ElectroDensityTerm>(electro);
    }
    if (which == "bell-density") {
      return std::make_shared<BellDensityTerm>(bell);
    }
    if (which == "symmetry") {
      return std::make_shared<PenaltyTerm>(pen, PenaltyTerm::Kind::Symmetry);
    }
    if (which == "common-centroid") {
      return std::make_shared<PenaltyTerm>(pen,
                                           PenaltyTerm::Kind::CommonCentroid);
    }
    if (which == "alignment") {
      return std::make_shared<PenaltyTerm>(pen, PenaltyTerm::Kind::Alignment);
    }
    if (which == "ordering") {
      return std::make_shared<PenaltyTerm>(pen, PenaltyTerm::Kind::Ordering);
    }
    if (which == "boundary") {
      return std::make_shared<PenaltyTerm>(pen, geom::Rect{0.5, 0.5, 5, 4});
    }
    if (which == "function") {
      // Synthetic smooth extra term: sum sin(v_i) (stands in for the GNN).
      return std::make_shared<FunctionTerm>(
          "extra",
          [](std::span<const double> v, std::span<double> grad) {
            double f = 0;
            for (std::size_t i = 0; i < v.size(); ++i) {
              f += std::sin(v[i]);
              grad[i] += std::cos(v[i]);
            }
            return f;
          });
    }
    ADD_FAILURE() << "unknown term " << which;
    return nullptr;
  }
};

struct FdTolerance {
  double rel = 1e-4;
  double abs = 1e-4;
  double skip_below = 0.0;  ///< |fd| below this is not compared
};

FdTolerance tolerance_for(const std::string& which) {
  // The density kernels are deliberately coarse approximations: electro
  // averages the field per device, bell holds its normalizers constant in
  // the analytic gradient (NTUplace3 convention).
  if (which == "electro-density") return {0.75, 1e-2, 1e-3};
  if (which == "bell-density") return {0.2, 5e-2, 0.0};
  return {};
}

class ObjectiveTermGradientTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ObjectiveTermGradientTest, MatchesFiniteDifference) {
  const std::string which = GetParam();
  Kernels k;
  // The electro gradient averages the spectral field over each footprint;
  // it tracks the finite difference only in the smooth mildly-overlapping
  // regime, so reuse the kernel-level ElectroTest configuration for it.
  const netlist::Circuit two = test::two_device_circuit();
  density::ElectroDensity ed(two, {0, 0, 16, 16}, 32, 32, 0.8);
  std::shared_ptr<ObjectiveTerm> term;
  std::vector<double> v;
  if (which == "electro-density") {
    term = std::make_shared<ElectroDensityTerm>(ed);
    v = {7.0, 9.0, 8.0, 8.2};
  } else {
    term = k.make(which);
    v = test_positions(k.circuit);
  }
  ASSERT_NE(term, nullptr);

  std::vector<double> grad(v.size(), 0.0);
  term->value_and_grad(v, grad, 1.0);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) {
        std::vector<double> tmp(x.size(), 0.0);
        return term->value_and_grad(x, tmp, 1.0);
      },
      v, which == "electro-density" ? 1e-4 : 1e-5);

  const FdTolerance tol = tolerance_for(which);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    if (std::abs(fd[i]) < tol.skip_below) continue;
    EXPECT_NEAR(grad[i], fd[i], tol.abs + tol.rel * std::abs(fd[i]))
        << which << " index " << i;
  }
}

TEST_P(ObjectiveTermGradientTest, ScaleIsAppliedToGradientOnly) {
  const std::string which = GetParam();
  Kernels k;
  const std::shared_ptr<ObjectiveTerm> term = k.make(which);
  const std::vector<double> v = test_positions(k.circuit);

  std::vector<double> g1(v.size(), 0.0), g2(v.size(), 0.0);
  const double f1 = term->value_and_grad(v, g1, 1.0);
  const double f2 = term->value_and_grad(v, g2, 2.5);
  EXPECT_DOUBLE_EQ(f1, f2) << "raw value must not depend on scale";
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g2[i], 2.5 * g1[i], 1e-9 + 1e-9 * std::abs(g1[i])) << i;
  }

  // ADD semantics: evaluating into a pre-filled buffer accumulates.
  std::vector<double> g3(v.size(), 1.0);
  term->value_and_grad(v, g3, 1.0);
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_NEAR(g3[i], 1.0 + g1[i], 1e-12 + 1e-12 * std::abs(g1[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTerms, ObjectiveTermGradientTest,
    ::testing::Values("wirelength-wa", "wirelength-lse", "area",
                      "electro-density", "bell-density", "symmetry",
                      "common-centroid", "alignment", "ordering", "boundary",
                      "function"));

// --- CompositeObjective ------------------------------------------------------

TEST(CompositeObjectiveTest, EqualsWeightedSumOfTerms) {
  Kernels k;
  const std::vector<double> v = test_positions(k.circuit);
  const std::vector<std::pair<const char*, double>> spec = {
      {"wirelength-wa", 1.0}, {"electro-density", 0.37}, {"symmetry", 2.0},
      {"alignment", 0.5},     {"boundary", 3.25},        {"function", 0.125}};

  CompositeObjective obj(v.size());
  for (const auto& [which, w] : spec) obj.add_term(k.make(which), w);

  std::vector<double> grad(v.size(), 0.0);
  const double total = obj.value_and_grad(v, grad);

  // Independent evaluation of each term through fresh kernels.
  Kernels k2;
  double expect_total = 0;
  std::vector<double> expect_grad(v.size(), 0.0);
  for (const auto& [which, w] : spec) {
    std::vector<double> g(v.size(), 0.0);
    expect_total += w * k2.make(which)->value_and_grad(v, g, 1.0);
    for (std::size_t i = 0; i < g.size(); ++i) expect_grad[i] += w * g[i];
  }

  EXPECT_NEAR(total, expect_total, 1e-9 * (1.0 + std::abs(expect_total)));
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad[i], expect_grad[i],
                1e-9 * (1.0 + std::abs(expect_grad[i])))
        << i;
  }
}

TEST(CompositeObjectiveTest, DisabledTermIsSkippedButStaysInTrace) {
  Kernels k;
  const std::vector<double> v = test_positions(k.circuit);
  CompositeObjective obj(v.size());
  obj.add_term(k.make("wirelength-wa"), 1.0);
  obj.add_term(k.make("area"), 5.0, /*enabled=*/false);

  std::vector<double> g_with(v.size(), 0.0), g_wl(v.size(), 0.0);
  const double total = obj.value_and_grad(v, g_with);
  const double wl_only = k.make("wirelength-wa")->value_and_grad(v, g_wl, 1.0);
  EXPECT_DOUBLE_EQ(total, wl_only);
  for (std::size_t i = 0; i < g_with.size(); ++i) {
    EXPECT_DOUBLE_EQ(g_with[i], g_wl[i]) << i;
  }

  ASSERT_EQ(obj.trace().terms.size(), 2u);
  EXPECT_EQ(obj.trace().find("area")->evals, 0u);
  EXPECT_EQ(obj.trace().find("wirelength")->evals, 1u);

  // The same composite with the area term enabled evaluates it.
  CompositeObjective on(v.size());
  on.add_term(k.make("wirelength-wa"), 1.0);
  on.add_term(k.make("area"), 5.0);
  std::vector<double> g2(v.size(), 0.0);
  EXPECT_GT(on.value_and_grad(v, g2), total);
  EXPECT_EQ(on.trace().find("area")->evals, 1u);
}

TEST(CompositeObjectiveTest, TraceRecordsStatsAndSamples) {
  Kernels k;
  const std::vector<double> v = test_positions(k.circuit);
  CompositeObjective obj(v.size());
  obj.add_term(k.make("wirelength-wa"), 1.0);
  obj.add_term(k.make("symmetry"), 0.25);

  std::vector<double> g(v.size(), 0.0);
  for (int it = 0; it < 3; ++it) {
    obj.value_and_grad(v, g);
    obj.sample(it);
  }

  const TermTrace& t = obj.trace();
  ASSERT_EQ(t.terms.size(), 2u);
  for (const TermStats& s : t.terms) {
    EXPECT_EQ(s.evals, 3u);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GT(s.grad_norm, 0.0);
  }
  EXPECT_EQ(t.find("symmetry")->weight, 0.25);
  ASSERT_EQ(t.samples.size(), 3u);
  EXPECT_EQ(t.samples[2].iter, 2);
  ASSERT_EQ(t.samples[0].values.size(), 2u);
  EXPECT_GT(t.total_seconds(), 0.0);
}

TEST(CompositeObjectiveTest, SampleHistoryStaysBounded) {
  Kernels k;
  CompositeObjective obj(2 * k.circuit.num_devices());
  obj.add_term(k.make("symmetry"), 1.0);
  for (int it = 0; it < 10 * CompositeObjective::kMaxSamples; ++it) {
    obj.sample(it);
  }
  EXPECT_LE(obj.trace().samples.size(),
            static_cast<std::size_t>(CompositeObjective::kMaxSamples));
  EXPECT_GT(obj.trace().sample_stride, 1);
}

TEST(TermTraceTest, MergeCountsSumsEvalsKeepsWinnerSamples) {
  TermTrace win, lose;
  win.terms.push_back({"wirelength", TermCost::Moderate, 10, 1.0, 5.0, 0.1, 1.0});
  win.samples.push_back({3, {5.0}, {1.0}, {0.1}});
  lose.terms.push_back({"wirelength", TermCost::Moderate, 7, 0.5, 9.0, 0.9, 2.0});
  lose.terms.push_back({"gnn-phi", TermCost::Expensive, 2, 0.25, 0.5, 0.0, 1.0});
  lose.samples.push_back({1, {9.0}, {2.0}, {0.9}});

  win.merge_counts(lose);
  ASSERT_EQ(win.terms.size(), 2u);
  EXPECT_EQ(win.find("wirelength")->evals, 17u);
  EXPECT_DOUBLE_EQ(win.find("wirelength")->seconds, 1.5);
  // Winner keeps its own last value/weight and sample history.
  EXPECT_DOUBLE_EQ(win.find("wirelength")->value, 5.0);
  EXPECT_DOUBLE_EQ(win.find("wirelength")->weight, 1.0);
  ASSERT_EQ(win.samples.size(), 1u);
  EXPECT_EQ(win.samples[0].iter, 3);
  // Unmatched terms are appended with their counters.
  EXPECT_EQ(win.find("gnn-phi")->evals, 2u);
}

TEST(CompositeObjectiveTest, WeightsAreSetByIndex) {
  Kernels k;
  CompositeObjective obj(2 * k.circuit.num_devices());
  EXPECT_EQ(obj.add_term(k.make("symmetry"), 2.0), 0u);
  EXPECT_EQ(obj.add_term(k.make("boundary"), 3.0), 1u);

  obj.scale_weight(0, 1.5);
  EXPECT_DOUBLE_EQ(obj.weight(0), 3.0);
  EXPECT_DOUBLE_EQ(obj.weight(1), 3.0);  // untouched
  obj.set_weight(1, 0.5);
  EXPECT_DOUBLE_EQ(obj.weight(1), 0.5);
  // The trace follows every change.
  EXPECT_DOUBLE_EQ(obj.trace().terms[0].weight, 3.0);
  EXPECT_DOUBLE_EQ(obj.trace().terms[1].weight, 0.5);
}

TEST(CompositeObjectiveTest, CalibrateWeightScalesToTheReference) {
  Kernels k;
  const std::vector<double> v = test_positions(k.circuit);
  CompositeObjective obj(v.size());
  obj.add_term(k.make("wirelength-wa"), 1.0);
  obj.add_term(k.make("symmetry"), 0.0);
  const double ref = obj.probe_grad_magnitude(0, v);
  EXPECT_GT(ref, 0.0);

  // symmetry: rel * |g_wl| / |g_sym|, reproduced by hand.
  std::vector<double> g(v.size(), 0.0);
  Kernels k2;
  k2.make("symmetry")->value_and_grad(v, g, 1.0);
  double mg = 0;
  for (double x : g) mg += std::abs(x);
  mg /= static_cast<double>(g.size());
  const double w = calibrate_weight(obj, 1, v, ref, 0.04);
  EXPECT_EQ(w, obj.weight(1));
  EXPECT_NEAR(w, 0.04 * ref / mg, 1e-12);
  EXPECT_EQ(obj.trace().terms[1].evals, 1u);  // one probe

  // A term whose gradient vanishes at v0 keeps rel verbatim.
  CompositeObjective flat(v.size());
  flat.add_term(std::make_shared<FunctionTerm>(
      "flat", [](std::span<const double>, std::span<double>) { return 0.0; }));
  EXPECT_EQ(calibrate_weight(flat, 0, v, ref, 0.7), 0.7);
}

}  // namespace
}  // namespace aplace::gp
