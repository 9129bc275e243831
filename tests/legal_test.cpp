// Legalization: pair-order derivation rules, transitive reduction, the ILP
// detailed placer (flipping, symmetry, alignment, ordering — paper Fig. 3/4
// semantics) and the prior-work two-stage LP legalizer.

#include <gtest/gtest.h>

#include "legal/formulation.hpp"
#include "legal/ilp_detailed.hpp"
#include "legal/relative_order.hpp"
#include "legal/two_stage_lp.hpp"
#include "netlist/evaluator.hpp"
#include "numeric/rng.hpp"
#include "sa/annealer.hpp"
#include "test_util.hpp"

namespace aplace::legal {
namespace {

std::vector<double> positions(std::initializer_list<double> xs,
                              std::initializer_list<double> ys) {
  std::vector<double> v(xs);
  v.insert(v.end(), ys);
  return v;
}

TEST(RelativeOrderTest, OverlapRuleSmallerDimensionWins) {
  const netlist::Circuit c = test::two_device_circuit();  // A 2x2, B 4x2
  // Overlap width dx = 1 < dy = 2 -> horizontal separation.
  const auto orders = derive_pair_orders(c, positions({1, 3.5}, {1, 1}));
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_TRUE(orders[0].horizontal);
  EXPECT_EQ(orders[0].left_or_bottom, c.find_device("A"));
}

TEST(RelativeOrderTest, DisjointKeepsSeparatingDimension) {
  const netlist::Circuit c = test::two_device_circuit();
  // Disjoint in y only -> vertical order.
  const auto orders = derive_pair_orders(c, positions({1, 1.5}, {1, 6}));
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_FALSE(orders[0].horizontal);
  EXPECT_EQ(orders[0].left_or_bottom, c.find_device("A"));
}

TEST(RelativeOrderTest, SymmetryPairForcedPerpendicularToAxis) {
  const netlist::Circuit c = test::constrained_circuit();
  // Stack A above B: geometry says vertical, but the vertical-axis pair
  // must separate horizontally or the mirror constraint is infeasible.
  std::vector<double> v(10, 0.0);
  const std::size_t n = 5;
  const DeviceId a = c.find_device("A"), b = c.find_device("B");
  v[a.index()] = 5; v[n + a.index()] = 2;
  v[b.index()] = 5; v[n + b.index()] = 6;
  v[c.find_device("S").index()] = 10;
  v[c.find_device("R1").index()] = 15;
  v[c.find_device("R2").index()] = 20;
  const std::vector<PairOrder> orders = derive_pair_orders(c, v);
  EXPECT_EQ(orders.size(), n * (n - 1) / 2) << "every pair, near or far";
  for (const PairOrder& po : orders) {
    const auto ids = std::make_pair(po.left_or_bottom, po.right_or_top);
    if ((ids.first == a && ids.second == b) ||
        (ids.first == b && ids.second == a)) {
      EXPECT_TRUE(po.horizontal);
    }
  }
}

TEST(RelativeOrderTest, OrderingConstraintFixesOrder) {
  const netlist::Circuit c = test::constrained_circuit();
  // R1 must precede S horizontally even if currently placed to its right.
  std::vector<double> v(10, 0.0);
  const std::size_t n = 5;
  const DeviceId r1 = c.find_device("R1"), s = c.find_device("S");
  v[r1.index()] = 20; v[n + r1.index()] = 0;
  v[s.index()] = 2; v[n + s.index()] = 0;
  v[c.find_device("A").index()] = 40;
  v[c.find_device("B").index()] = 44;
  v[c.find_device("R2").index()] = 60;
  bool found = false;
  const std::vector<PairOrder> orders = derive_pair_orders(c, v);
  EXPECT_EQ(orders.size(), n * (n - 1) / 2) << "every pair, near or far";
  for (const PairOrder& po : orders) {
    if (po.left_or_bottom == r1 && po.right_or_top == s) {
      EXPECT_TRUE(po.horizontal);
      found = true;
    }
    EXPECT_FALSE(po.left_or_bottom == s && po.right_or_top == r1);
  }
  EXPECT_TRUE(found);
}

TEST(RelativeOrderTest, ForcedDirectionLookup) {
  const netlist::Circuit c = test::constrained_circuit();
  EXPECT_TRUE(
      forced_direction(c, c.find_device("A"), c.find_device("B")).has_value());
  EXPECT_TRUE(*forced_direction(c, c.find_device("A"), c.find_device("B")));
  EXPECT_TRUE(
      forced_direction(c, c.find_device("R1"), c.find_device("R2")).has_value())
      << "bottom alignment forces horizontal separation";
  EXPECT_FALSE(
      forced_direction(c, c.find_device("A"), c.find_device("R1")).has_value());
}

TEST(RelativeOrderTest, TransitiveReductionDropsImpliedEdges) {
  // Three blocks in a row: (0,1), (1,2) kept; (0,2) dropped.
  const netlist::Circuit c = [] {
    netlist::Circuit cc("t3");
    std::vector<PinId> pins;
    for (int i = 0; i < 3; ++i) {
      // append(), not "D" + ...: gcc 12's -Wrestrict misfires on the latter.
      const DeviceId d =
          cc.add_device(std::string("D").append(std::to_string(i)),
                        netlist::DeviceType::Nmos, 2, 2);
      pins.push_back(cc.add_center_pin(d, "p"));
    }
    cc.add_net("n", pins);
    cc.finalize();
    return cc;
  }();
  const auto orders = derive_pair_orders(c, positions({1, 4, 7}, {1, 1, 1}));
  EXPECT_EQ(orders.size(), 3u);
  const auto reduced = reduce_transitive(orders, 3);
  EXPECT_EQ(reduced.size(), 2u);
  for (const PairOrder& po : reduced) {
    EXPECT_FALSE(po.left_or_bottom.index() == 0 &&
                 po.right_or_top.index() == 2);
  }
}

// --- ILP detailed placer ------------------------------------------------------

TEST(IlpDetailedTest, TwoDevicesCompactAndLegal) {
  const netlist::Circuit c = test::two_device_circuit();
  const IlpDetailedPlacer dp(c);
  const IlpResult r = dp.place(positions({2, 6}, {2, 2}));
  ASSERT_TRUE(r.ok());
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6));
  // Two blocks 2x2 and 4x2 side by side: area 12, or stacked: area 16.
  EXPECT_LE(q.area, 16.0 + 1e-9);
}

TEST(IlpDetailedTest, FlippingReducesWirelength) {
  // Paper Fig. 3: two devices whose pins face away from each other; flipping
  // device B moves its pin toward A's.
  netlist::Circuit c("fig3");
  const DeviceId a = c.add_device("A", netlist::DeviceType::Nmos, 4, 2);
  const DeviceId b = c.add_device("B", netlist::DeviceType::Nmos, 4, 2);
  const PinId pa = c.add_pin(a, "p", {4, 1});  // right edge of A
  const PinId pb = c.add_pin(b, "p", {0, 1});  // left edge of B
  c.add_net("n", {pa, pb});
  c.finalize();

  // The integrated objective prefers stacking these wide devices; in the
  // stack the pins sit on opposite edges (HPWL 4 in x) unless one device is
  // flipped, which aligns them.
  const std::vector<double> start = positions({2, 8}, {1, 1});
  IlpOptions with, without;
  without.enable_flipping = false;
  const IlpResult rf = IlpDetailedPlacer(c, with).place(start);
  const IlpResult rn = IlpDetailedPlacer(c, without).place(start);
  ASSERT_TRUE(rf.ok());
  ASSERT_TRUE(rn.ok());
  const double hf = rf.placement.total_hpwl();
  const double hn = rn.placement.total_hpwl();
  EXPECT_LT(hf, hn) << "flipping should strictly reduce HPWL here";
}

TEST(IlpDetailedTest, HardSymmetryExactInResult) {
  const netlist::Circuit c = test::constrained_circuit();
  const IlpDetailedPlacer dp(c);
  // Roughly symmetric start.
  const IlpResult r =
      dp.place(positions({3, 7, 5, 1, 9}, {2, 2, 5, 8, 8}));
  ASSERT_TRUE(r.ok());
  const netlist::Evaluator ev(c);
  const netlist::QualityReport q = ev.evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "sym=" << q.symmetry_violation
                             << " align=" << q.alignment_violation
                             << " order=" << q.ordering_violation
                             << " overlap=" << q.overlap_area;
  EXPECT_NEAR(q.symmetry_violation, 0.0, 1e-6);
  EXPECT_NEAR(q.alignment_violation, 0.0, 1e-6);
  EXPECT_NEAR(q.ordering_violation, 0.0, 1e-6);
}

TEST(IlpDetailedTest, SnapsToGrid) {
  const netlist::Circuit c = test::two_device_circuit();
  const IlpResult r = IlpDetailedPlacer(c).place(
      positions({2.13, 6.77}, {2.41, 2.02}));
  ASSERT_TRUE(r.ok());
  if (r.snapped) {
    for (std::size_t i = 0; i < c.num_devices(); ++i) {
      const geom::Point p = r.placement.position(DeviceId{i});
      EXPECT_NEAR(std::round(p.x / kGridPitch) * kGridPitch, p.x, 1e-9);
      EXPECT_NEAR(std::round(p.y / kGridPitch) * kGridPitch, p.y, 1e-9);
    }
  }
}

TEST(IlpDetailedTest, FullCircuitLegalFromSpreadStart) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  const netlist::Circuit& c = tc.circuit;
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 3.0 * static_cast<double>(i % 5);
    v[n + i] = 3.0 * static_cast<double>(i / 5);
  }
  const IlpResult r = IlpDetailedPlacer(c).place(v);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(netlist::Evaluator(c).evaluate(r.placement).legal(1e-6));
}

// --- two-stage LP ---------------------------------------------------------------

TEST(TwoStageTest, LegalAndCompact) {
  const netlist::Circuit c = test::two_device_circuit();
  const TwoStageLpLegalizer lg(c);
  const TwoStageResult r = lg.place(positions({2, 5}, {2, 2.5}));
  ASSERT_TRUE(r.ok());
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6));
  EXPECT_LE(q.area, 16.0 + 1e-9);
}

TEST(TwoStageTest, ConstraintsSatisfiedOnFullCircuit) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const netlist::Circuit& c = tc.circuit;
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 2.5 * static_cast<double>(i % 6);
    v[n + i] = 2.5 * static_cast<double>(i / 6);
  }
  const TwoStageResult r = TwoStageLpLegalizer(c).place(v);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(netlist::Evaluator(c).evaluate(r.placement).legal(1e-6));
}

TEST(TwoStageTest, StageOneSetsExtentCap) {
  const netlist::Circuit c = test::two_device_circuit();
  const TwoStageLpLegalizer lg(c);
  const TwoStageResult r = lg.place(positions({2, 6}, {2, 2}));
  ASSERT_TRUE(r.ok());
  const geom::Rect bb = r.placement.bounding_box();
  EXPECT_LE(bb.width(), r.stage1_width * 0.5 + 1e-6)
      << "extents are in grid units (pitch 0.5)";
  EXPECT_LE(bb.height(), r.stage1_height * 0.5 + 1e-6);
}

}  // namespace
}  // namespace aplace::legal

namespace aplace::legal {
namespace {

// Property sweep: both detailed placers produce fully legal placements on
// every paper testcase, starting from an arbitrary legal SA placement that
// was perturbed into overlap (stresses direction derivation, symmetry/
// alignment/ordering handling, and lazy feasibility repairs).
class LegalizerPropertyTest : public ::testing::TestWithParam<std::string> {};

// Exact outputs per circuit (EXPECT_EQ, no tolerance). Both LP legalizers
// build their problems from one shared formulation; these pins hold every
// row, variable and row order fixed. Regenerate them only for an intended
// change to a formulation or the solver, and say so in the commit message.
// `objective` sums the x- and y-block objectives and `bb_nodes` the nodes
// of both blocks' searches (solve_milp solves the two axes separately).
struct IlpPin {
  const char* name;
  double hpwl, area, objective;
  long bb_nodes;
  bool snapped;
};
constexpr IlpPin kIlpPins[] = {
    {"Adder", 82.450000000000003, 72, 458.45501265443488, 37, true},
    {"CC-OTA", 131.40000000000001, 153, 905.43095587945754, 54, true},
    {"Comp1", 153.05000000000001, 144, 889.87420812114215, 49, true},
    {"Comp2", 180.5, 189, 1128.137536560427, 45, true},
    {"CM-OTA1", 99, 108, 707.69509602221092, 78, true},
    {"CM-OTA2", 142, 176, 1033.6617419027914, 58, true},
    {"SCF", 662.59999999999991, 1386, 7180.2677350324648, 48, true},
    {"VGA", 151.65000000000001, 169, 953.53632067677722, 54, false},
    {"VCO1", 235, 330, 1887.204033555957, 18, true},
    {"VCO2", 446.69999999999999, 444, 2991.1078399572671, 32, true},
};

struct TwoStagePin {
  const char* name;
  double hpwl, area, stage1_width, stage1_height;
};
constexpr TwoStagePin kTwoStagePins[] = {
    {"Adder", 83.649999999999991, 72, 16, 18},
    {"CC-OTA", 192.40000000000001, 180, 24, 30},
    {"Comp1", 161.30000000000001, 180, 20, 36},
    {"Comp2", 206.5, 154, 22, 28},
    {"CM-OTA1", 149.09999999999999, 154, 28, 22},
    {"CM-OTA2", 204.5, 180, 18, 40},
    {"SCF", 880.29999999999995, 1750, 100, 70},
    {"VGA", 204.69999999999999, 170.5, 31, 22},
    {"VCO1", 308.39999999999998, 318.5, 49, 26},
    {"VCO2", 472.19999999999999, 661.5, 48.999999999999986, 54},
};

template <class Pin, std::size_t N>
const Pin* find_pin(const Pin (&pins)[N], const std::string& name) {
  for (const Pin& p : pins) {
    if (name == p.name) return &p;
  }
  return nullptr;
}

TEST_P(LegalizerPropertyTest, IlpLegalOnEveryCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  sa::SaOptions sopts;
  sopts.max_moves = 3000;
  const netlist::Placement seed = sa::SaPlacer(c, sopts).place().placement;

  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  numeric::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = seed.position(DeviceId{i});
    v[i] = p.x + rng.normal(0, 1.0);       // perturb into overlap
    v[n + i] = p.y + rng.normal(0, 1.0);
  }

  const IlpResult r = IlpDetailedPlacer(c).place(v);
  ASSERT_TRUE(r.ok()) << GetParam();
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6))
      << GetParam() << ": overlap=" << q.overlap_area
      << " sym=" << q.symmetry_violation << " align=" << q.alignment_violation
      << " order=" << q.ordering_violation;

  const IlpPin* pin = find_pin(kIlpPins, GetParam());
  ASSERT_NE(pin, nullptr) << GetParam();
  EXPECT_EQ(q.hpwl, pin->hpwl) << GetParam();
  EXPECT_EQ(q.area, pin->area) << GetParam();
  EXPECT_EQ(r.objective, pin->objective) << GetParam();
  EXPECT_EQ(r.bb_nodes, pin->bb_nodes) << GetParam();
  EXPECT_EQ(r.snapped, pin->snapped) << GetParam();
}

TEST_P(LegalizerPropertyTest, TwoStageLegalOnEveryCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  sa::SaOptions sopts;
  sopts.max_moves = 3000;
  sopts.seed = 17;
  const netlist::Placement seed = sa::SaPlacer(c, sopts).place().placement;

  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  numeric::Rng rng(23);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = seed.position(DeviceId{i});
    v[i] = p.x + rng.normal(0, 1.0);
    v[n + i] = p.y + rng.normal(0, 1.0);
  }

  const TwoStageResult r = TwoStageLpLegalizer(c).place(v);
  ASSERT_TRUE(r.ok()) << GetParam();
  const netlist::QualityReport q = netlist::Evaluator(c).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << GetParam();

  const TwoStagePin* pin = find_pin(kTwoStagePins, GetParam());
  ASSERT_NE(pin, nullptr) << GetParam();
  EXPECT_EQ(q.hpwl, pin->hpwl) << GetParam();
  EXPECT_EQ(q.area, pin->area) << GetParam();
  EXPECT_EQ(r.stage1_width, pin->stage1_width) << GetParam();
  EXPECT_EQ(r.stage1_height, pin->stage1_height) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, LegalizerPropertyTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace aplace::legal
