// Router and surrogate performance model.

#include <gtest/gtest.h>

#include "circuits/testcases.hpp"
#include "core/flow.hpp"
#include "perf/model.hpp"
#include "perf/spec.hpp"
#include "route/router.hpp"
#include "test_util.hpp"

namespace aplace {
namespace {

netlist::Placement legal_placement(const netlist::Circuit& c) {
  // Quick legal placement via short SA.
  sa::SaOptions opts;
  opts.max_moves = 4000;
  return sa::SaPlacer(c, opts).place().placement;
}

TEST(RouterTest, RoutesEveryNet) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const netlist::Placement pl = legal_placement(tc.circuit);
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult rr = route::GridRouter().route(compiled, pl);
  ASSERT_EQ(rr.nets.size(), tc.circuit.num_nets());
  for (std::size_t e = 0; e < rr.nets.size(); ++e) {
    EXPECT_GT(rr.net_length(NetId{e}), 0.0)
        << tc.circuit.net(NetId{e}).name;
  }
  EXPECT_GT(rr.total_length, 0.0);
}

TEST(RouterTest, RoutedLengthAtLeastGridHpwl) {
  // Manhattan routing cannot beat the pin bounding box by more than the
  // grid snapping error.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Placement pl = legal_placement(tc.circuit);
  route::RouterOptions opts;
  opts.pitch = 0.25;
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult rr = route::GridRouter(opts).route(compiled, pl);
  for (std::size_t e = 0; e < rr.nets.size(); ++e) {
    const double hpwl = pl.net_hpwl(NetId{e});
    EXPECT_GE(rr.net_length(NetId{e}), hpwl - 4 * 0.25 - 1e-9)
        << tc.circuit.net(NetId{e}).name;
  }
}

TEST(RouterTest, Deterministic) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  const netlist::Placement pl = legal_placement(tc.circuit);
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult a = route::GridRouter().route(compiled, pl);
  const route::RoutingResult b = route::GridRouter().route(compiled, pl);
  EXPECT_DOUBLE_EQ(a.total_length, b.total_length);
}

TEST(RouterTest, DefaultTotalLengthPinned) {
  // Default options: auto pitch, congestion penalty 0.6 and the 2 um halo
  // around the layout, which sets the grid origin.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Placement pl = legal_placement(tc.circuit);
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult rr = route::GridRouter().route(compiled, pl);
  EXPECT_EQ(rr.total_length, 80.640625);
  EXPECT_EQ(rr.max_edge_usage, 3.0);
}

TEST(RouterTest, ReusedScratchRoutesLikeAFreshOne) {
  // One scratch through placements of different grid sizes, including a
  // fine pitch whose grid outgrows the reserved auto-pitch one: every
  // result equals the call that builds its own scratch.
  route::RouteScratch scratch;
  for (const char* name : {"Adder", "VGA", "Comp1"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    const netlist::Placement pl = legal_placement(tc.circuit);
    const netlist::CompiledCircuit compiled(tc.circuit);
    route::RouterOptions fine;
    fine.pitch = 0.1;
    for (const route::RouterOptions& opts : {route::RouterOptions{}, fine}) {
      const route::GridRouter router(opts);
      const route::RoutingResult a = router.route(compiled, pl);
      const route::RoutingResult b = router.route(compiled, pl, scratch);
      EXPECT_EQ(a.total_length, b.total_length) << name;
      EXPECT_EQ(a.max_edge_usage, b.max_edge_usage) << name;
      ASSERT_EQ(a.nets.size(), b.nets.size()) << name;
      for (std::size_t e = 0; e < a.nets.size(); ++e) {
        EXPECT_EQ(a.nets[e].length, b.nets[e].length) << name << " net " << e;
        EXPECT_EQ(a.nets[e].waypoints.size(), b.nets[e].waypoints.size())
            << name << " net " << e;
      }
    }
  }
}

TEST(RouterTest, CongestionPenaltySpreadsRoutes) {
  circuits::TestCase tc = circuits::make_testcase("Comp1");
  const netlist::Placement pl = legal_placement(tc.circuit);
  route::RouterOptions congested, relaxed;
  congested.congestion_penalty = 2.0;
  relaxed.congestion_penalty = 0.0;
  const netlist::CompiledCircuit compiled(tc.circuit);
  const auto rc = route::GridRouter(congested).route(compiled, pl);
  const auto rr = route::GridRouter(relaxed).route(compiled, pl);
  EXPECT_LE(rr.total_length, rc.total_length + 1e-9)
      << "zero congestion cost yields shortest paths";
  EXPECT_LE(rc.max_edge_usage, rr.max_edge_usage + 1e-9);
}

// --- perf spec ------------------------------------------------------------------

TEST(PerfSpecTest, NormalizeMetricEq6) {
  perf::MetricSpec above{"gain", 25.0, perf::Direction::Above, 1.0, 0.0,
                         perf::MetricForm::InverseLoad, {}};
  EXPECT_DOUBLE_EQ(perf::normalize_metric(25.0, above), 1.0);
  EXPECT_DOUBLE_EQ(perf::normalize_metric(30.0, above), 1.0) << "clipped";
  EXPECT_DOUBLE_EQ(perf::normalize_metric(12.5, above), 0.5);
  EXPECT_DOUBLE_EQ(perf::normalize_metric(-3.0, above), 0.0);

  perf::MetricSpec below{"delay", 100.0, perf::Direction::Below, 1.0, 0.0,
                         perf::MetricForm::LinearGrowth, {}};
  EXPECT_DOUBLE_EQ(perf::normalize_metric(100.0, below), 1.0);
  EXPECT_DOUBLE_EQ(perf::normalize_metric(50.0, below), 1.0) << "clipped";
  EXPECT_DOUBLE_EQ(perf::normalize_metric(200.0, below), 0.5);
}

TEST(PerfSpecTest, WeightNormalization) {
  perf::PerformanceSpec spec;
  spec.metrics.push_back({"a", 1, perf::Direction::Above, 3.0, 1,
                          perf::MetricForm::InverseLoad, {}});
  spec.metrics.push_back({"b", 1, perf::Direction::Above, 1.0, 1,
                          perf::MetricForm::InverseLoad, {}});
  spec.normalize_weights();
  EXPECT_DOUBLE_EQ(spec.metrics[0].weight, 0.75);
  EXPECT_DOUBLE_EQ(spec.metrics[1].weight, 0.25);
}

TEST(PerfModelTest, FomInUnitInterval) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const perf::PerformanceModel model(tc.circuit, tc.spec);
  const netlist::Placement pl = legal_placement(tc.circuit);
  const perf::PerformanceResult res = model.evaluate(pl);
  EXPECT_GT(res.fom, 0.0);
  EXPECT_LE(res.fom, 1.0);
  EXPECT_EQ(res.metrics.size(), tc.spec.metrics.size());
  for (const perf::MetricResult& m : res.metrics) {
    EXPECT_GE(m.normalized, 0.0);
    EXPECT_LE(m.normalized, 1.0);
  }
}

TEST(PerfModelTest, WorsePlacementWorseFom) {
  // Scaling all positions up stretches every net and pair separation, so
  // the FOM must not improve.
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  const perf::PerformanceModel model(tc.circuit, tc.spec);
  netlist::Placement good = legal_placement(tc.circuit);
  netlist::Placement bad = good;
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    const geom::Point p = good.position(DeviceId{i});
    bad.set_position(DeviceId{i}, {p.x * 4.0, p.y * 4.0});
  }
  const double fom_good = model.evaluate(good).fom;
  const double fom_bad = model.evaluate(bad).fom;
  EXPECT_LE(fom_bad, fom_good + 1e-12);
}

TEST(PerfModelTest, FeatureMonotonicity) {
  circuits::TestCase tc = circuits::make_testcase("VCO1");
  const perf::PerformanceModel model(tc.circuit, tc.spec);
  perf::Features f{0.2, 0.3, 0.4, 0.1};
  perf::Features worse = f;
  worse.critical_len = 1.5;
  EXPECT_LE(model.evaluate_features(worse).fom,
            model.evaluate_features(f).fom);
}

TEST(PerfModelTest, RoutedFeaturesLongerThanHpwl) {
  circuits::TestCase tc = circuits::make_testcase("Comp2");
  const perf::PerformanceModel model(tc.circuit, tc.spec);
  const netlist::Placement pl = legal_placement(tc.circuit);
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult rr = route::GridRouter().route(compiled, pl);
  const perf::Features unrouted = model.extract_features(pl, nullptr);
  const perf::Features routed = model.extract_features(pl, &rr);
  EXPECT_GE(routed.total_len, unrouted.total_len * 0.8)
      << "routed lengths should not be wildly below HPWL";
}

}  // namespace
}  // namespace aplace

namespace aplace {
namespace {

TEST(RouterTest, WaypointsFormManhattanPaths) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Placement pl = legal_placement(tc.circuit);
  route::RouterOptions opts;
  opts.pitch = 0.5;
  const netlist::CompiledCircuit compiled(tc.circuit);
  const route::RoutingResult rr = route::GridRouter(opts).route(compiled, pl);
  for (const route::NetRoute& net : rr.nets) {
    for (std::size_t k = 1; k < net.waypoints.size(); ++k) {
      const geom::Point a = net.waypoints[k - 1];
      const geom::Point b = net.waypoints[k];
      // Consecutive waypoints within one segment are one grid step apart
      // in exactly one axis (segment breaks re-start at the tree, so allow
      // larger jumps only when one coordinate matches a previous node).
      const double d = a.manhattan(b);
      if (d <= opts.pitch + 1e-9) {
        EXPECT_TRUE(std::abs(a.x - b.x) < 1e-9 ||
                    std::abs(a.y - b.y) < 1e-9);
      }
    }
  }
}

TEST(RouterTest, CoincidentPinsYieldZeroLengthNet) {
  netlist::Circuit c("coin");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 2, 2);
  const PinId pa = c.add_pin(a, "p", {2, 1});   // right edge of A
  const PinId pb = c.add_pin(b, "p", {0, 1});   // left edge of B
  c.add_net("n", {pa, pb});
  c.finalize();
  netlist::Placement pl(c);
  pl.set_position(a, {1, 1});
  pl.set_position(b, {3, 1});  // pins coincide at (2, 1)
  const netlist::CompiledCircuit compiled(c);
  const route::RoutingResult rr = route::GridRouter().route(compiled, pl);
  EXPECT_NEAR(rr.total_length, 0.0, 1e-9);
}

TEST(PerfModelTest, SensScaleMonotone) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  perf::PerformanceSpec strong = tc.spec;
  strong.sens_scale *= 3.0;
  const perf::PerformanceModel weak_model(tc.circuit, tc.spec);
  const perf::PerformanceModel strong_model(tc.circuit, strong);
  const perf::Features f{0.5, 0.5, 0.5, 0.5};
  EXPECT_LT(strong_model.evaluate_features(f).fom,
            weak_model.evaluate_features(f).fom);
}

TEST(PerfModelTest, ZeroFeaturesGiveNominal) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  const perf::PerformanceModel model(tc.circuit, tc.spec);
  const perf::PerformanceResult r = model.evaluate_features({});
  for (std::size_t m = 0; m < r.metrics.size(); ++m) {
    EXPECT_NEAR(r.metrics[m].value, tc.spec.metrics[m].base, 1e-12)
        << r.metrics[m].name;
  }
}

TEST(PerfModelTest, SubtractiveFormCanGoNegativeButNormalizedClamps) {
  perf::MetricSpec m{"pm", 60.0, perf::Direction::Above, 1.0, 70.0,
                     perf::MetricForm::Subtractive, {100.0, 0, 0, 0}};
  netlist::Circuit c = test::two_device_circuit();
  perf::PerformanceSpec spec;
  spec.metrics.push_back(m);
  const perf::PerformanceModel model(c, spec);
  const perf::PerformanceResult r =
      model.evaluate_features({2.0, 0, 0, 0});  // 70 - 200 = -130
  EXPECT_LT(r.metrics[0].value, 0.0);
  EXPECT_DOUBLE_EQ(r.metrics[0].normalized, 0.0);
  EXPECT_DOUBLE_EQ(r.fom, 0.0);
}

}  // namespace
}  // namespace aplace
