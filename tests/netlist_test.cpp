// Circuit database: construction invariants, finalize() validation,
// placement geometry queries and the quality evaluator.

#include <gtest/gtest.h>

#include "netlist/circuit.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/placement.hpp"
#include "netlist/validate.hpp"
#include "test_util.hpp"

namespace aplace::netlist {
namespace {

TEST(CircuitTest, BuildAndQuery) {
  Circuit c("t");
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 3);
  const DeviceId b = c.add_device("B", DeviceType::Capacitor, 4, 4);
  const PinId pa = c.add_pin(a, "g", {0, 1.5});
  const PinId pb = c.add_center_pin(b, "t");
  const NetId n = c.add_net("n1", {pa, pb}, 2.0, true);
  c.finalize();

  EXPECT_EQ(c.num_devices(), 2u);
  EXPECT_EQ(c.num_pins(), 2u);
  EXPECT_EQ(c.num_nets(), 1u);
  EXPECT_EQ(c.device(a).name, "A");
  EXPECT_DOUBLE_EQ(c.device(b).area(), 16.0);
  EXPECT_EQ(c.pin(pb).offset, geom::Point(2, 2));
  EXPECT_TRUE(c.net(n).critical);
  EXPECT_DOUBLE_EQ(c.net(n).weight, 2.0);
  EXPECT_EQ(c.find_device("B"), b);
  EXPECT_FALSE(c.find_device("missing").valid());
  EXPECT_DOUBLE_EQ(c.total_device_area(), 6 + 16);
}

TEST(CircuitTest, RejectsDuplicateDeviceName) {
  Circuit c;
  c.add_device("A", DeviceType::Nmos, 1, 1);
  EXPECT_THROW(c.add_device("A", DeviceType::Pmos, 1, 1), CheckError);
}

TEST(CircuitTest, RejectsBadFootprint) {
  Circuit c;
  EXPECT_THROW(c.add_device("A", DeviceType::Nmos, 0, 1), CheckError);
  EXPECT_THROW(c.add_device("B", DeviceType::Nmos, 1, -2), CheckError);
}

TEST(CircuitTest, RejectsPinOutsideFootprint) {
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  EXPECT_THROW(c.add_pin(a, "p", {3, 1}), CheckError);
  EXPECT_THROW(c.add_pin(a, "p", {1, -0.1}), CheckError);
}

TEST(CircuitTest, AcceptsSinglePinNetRejectsPinless) {
  // Dangling single-pin nets are legal (consumers skip them); a net with
  // no pins at all is a construction bug.
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  const PinId p = c.add_center_pin(a, "p");
  EXPECT_THROW(c.add_net("empty", {}), CheckError);
  const NetId n = c.add_net("stub", {p});
  EXPECT_EQ(c.net(n).degree(), 1u);
}

TEST(CircuitTest, RejectsDoublyConnectedPin) {
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", DeviceType::Nmos, 2, 2);
  const PinId pa = c.add_center_pin(a, "p");
  const PinId pb = c.add_center_pin(b, "p");
  c.add_net("n", {pa, pb});
  EXPECT_THROW(c.add_net("n2", {pa, pb}), CheckError);
}

TEST(CircuitTest, FinalizeRejectsUnconnectedPin) {
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", DeviceType::Nmos, 2, 2);
  const PinId pa = c.add_center_pin(a, "p");
  const PinId pb = c.add_center_pin(b, "p");
  c.add_net("n", {pa, pb});
  c.add_pin(a, "dangling", {0, 0});
  EXPECT_THROW(c.finalize(), CheckError);
}

TEST(CircuitTest, FinalizeRejectsDeviceInTwoSymmetryGroups) {
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", DeviceType::Nmos, 2, 2);
  const DeviceId d = c.add_device("D", DeviceType::Nmos, 2, 2);
  const PinId pa = c.add_center_pin(a, "p");
  const PinId pb = c.add_center_pin(b, "p");
  const PinId pd = c.add_center_pin(d, "p");
  c.add_net("n", {pa, pb, pd});
  SymmetryGroup g1;
  g1.pairs.emplace_back(a, b);
  c.add_symmetry_group(g1);
  SymmetryGroup g2;
  g2.pairs.emplace_back(a, d);
  c.add_symmetry_group(g2);
  EXPECT_THROW(c.finalize(), CheckError);
}

TEST(CircuitTest, FinalizeRejectsMismatchedSymmetryFootprints) {
  Circuit c;
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  const DeviceId b = c.add_device("B", DeviceType::Nmos, 3, 2);
  const PinId pa = c.add_center_pin(a, "p");
  const PinId pb = c.add_center_pin(b, "p");
  c.add_net("n", {pa, pb});
  SymmetryGroup g;
  g.pairs.emplace_back(a, b);
  c.add_symmetry_group(g);
  EXPECT_THROW(c.finalize(), CheckError);
}

TEST(CircuitTest, RejectsEmptySymmetryGroup) {
  Circuit c;
  c.add_device("A", DeviceType::Nmos, 2, 2);
  EXPECT_THROW(c.add_symmetry_group(SymmetryGroup{}), CheckError);
}

TEST(ValidateTest, RejectsSingleSelfSymmetricOnlyGroup) {
  // A group holding one self-symmetric device and no pairs slips past
  // construction (it is non-empty) but its penalty is identically zero:
  // the optimal mirror axis simply tracks the device. The validator must
  // flag it instead of letting the placer silently ignore the constraint.
  Circuit c;
  const DeviceId s = c.add_device("S", DeviceType::Nmos, 4, 2);
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 2, 2);
  c.add_net("n", {c.add_center_pin(s, "p"), c.add_center_pin(a, "p")});
  SymmetryGroup g;
  g.axis = Axis::Vertical;
  g.self_symmetric.push_back(s);
  c.add_symmetry_group(std::move(g));
  c.finalize();

  const aplace::Status st = validate(c);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), aplace::StatusCode::InvalidInput);
  EXPECT_NE(st.message().find("'S'"), std::string::npos) << st.to_string();
}

TEST(ValidateTest, AcceptsSelfSymmetricDeviceAlongsidePairs) {
  // The same self-symmetric device is fine once a pair pins the axis.
  const Circuit c = test::constrained_circuit();
  EXPECT_TRUE(validate(c).ok());
}

TEST(CircuitTest, MutationAfterFinalizeRejected) {
  Circuit c = test::two_device_circuit();
  EXPECT_THROW(c.add_device("X", DeviceType::Nmos, 1, 1), CheckError);
}

TEST(PlacementTest, RequiresFinalizedCircuit) {
  Circuit c;
  c.add_device("A", DeviceType::Nmos, 1, 1);
  EXPECT_THROW(Placement p(c), CheckError);
}

TEST(PlacementTest, DeviceRectAndPins) {
  const Circuit c = test::two_device_circuit();
  Placement pl(c);
  const DeviceId a = c.find_device("A");
  pl.set_position(a, {5, 5});
  EXPECT_EQ(pl.device_rect(a), geom::Rect(4, 4, 6, 6));

  // Pin at offset (1,1) on a 2x2 device = its center.
  const PinId pa = c.device(a).pins[0];
  EXPECT_EQ(pl.pin_position(pa), geom::Point(5, 5));
}

TEST(PlacementTest, PinPositionUnderFlip) {
  Circuit c("t");
  const DeviceId a = c.add_device("A", DeviceType::Nmos, 4, 2);
  const DeviceId b = c.add_device("B", DeviceType::Nmos, 4, 2);
  const PinId pa = c.add_pin(a, "g", {0, 1});  // left edge
  const PinId pb = c.add_pin(b, "g", {0, 1});
  c.add_net("n", {pa, pb});
  c.finalize();

  Placement pl(c);
  pl.set_position(a, {2, 1});
  EXPECT_EQ(pl.pin_position(pa), geom::Point(0, 1));
  pl.set_orientation(a, {true, false});
  EXPECT_EQ(pl.pin_position(pa), geom::Point(4, 1))
      << "x-flip mirrors the pin to the right edge";
}

TEST(PlacementTest, HpwlAndBbox) {
  const Circuit c = test::two_device_circuit();
  Placement pl(c);
  pl.set_position(c.find_device("A"), {1, 1});   // 2x2 at (0,0)-(2,2)
  pl.set_position(c.find_device("B"), {7, 1});   // 4x2 at (5,0)-(9,2)
  // Pins: A center (1,1); B pin offset (1,1) from corner -> (6,1).
  EXPECT_DOUBLE_EQ(pl.net_hpwl(NetId{0u}), 5.0);
  EXPECT_DOUBLE_EQ(pl.total_hpwl(), 5.0);
  EXPECT_EQ(pl.bounding_box(), geom::Rect(0, 0, 9, 2));
  EXPECT_DOUBLE_EQ(pl.layout_area(), 18.0);
  EXPECT_DOUBLE_EQ(pl.total_overlap_area(), 0.0);
}

TEST(PlacementTest, OverlapArea) {
  const Circuit c = test::two_device_circuit();
  Placement pl(c);
  pl.set_position(c.find_device("A"), {1, 1});
  pl.set_position(c.find_device("B"), {2, 1});  // B 4x2 at (0,0)-(4,2)
  EXPECT_DOUBLE_EQ(pl.total_overlap_area(), 4.0);  // A fully inside B's span
}

TEST(PlacementTest, NormalizeToOrigin) {
  const Circuit c = test::two_device_circuit();
  Placement pl(c);
  pl.set_position(c.find_device("A"), {-3, 4});
  pl.set_position(c.find_device("B"), {5, 9});
  pl.normalize_to_origin();
  const geom::Rect bb = pl.bounding_box();
  EXPECT_NEAR(bb.xlo(), 0, 1e-12);
  EXPECT_NEAR(bb.ylo(), 0, 1e-12);
}

TEST(EvaluatorTest, SymmetryResidual) {
  const netlist::Circuit c = test::constrained_circuit();
  Placement pl(c);
  const DeviceId a = c.find_device("A"), b = c.find_device("B");
  const DeviceId s = c.find_device("S");
  pl.set_position(a, {2, 5});
  pl.set_position(b, {8, 5});
  pl.set_position(s, {5, 2});
  pl.set_position(c.find_device("R1"), {1, 10});
  pl.set_position(c.find_device("R2"), {9, 10});
  const Evaluator ev(c);
  const SymmetryGroup& g = c.constraints().symmetry_groups[0];
  EXPECT_NEAR(ev.best_axis(pl, g), 5.0, 1e-12);
  EXPECT_NEAR(ev.symmetry_residual(pl, g), 0.0, 1e-12);

  pl.set_position(b, {8, 6});  // break orthogonal match
  EXPECT_NEAR(ev.symmetry_residual(pl, g), 1.0, 1e-12);
}

TEST(EvaluatorTest, AlignmentAndOrderingResiduals) {
  const netlist::Circuit c = test::constrained_circuit();
  Placement pl(c);
  pl.set_position(c.find_device("A"), {2, 5});
  pl.set_position(c.find_device("B"), {8, 5});
  pl.set_position(c.find_device("S"), {5, 2});
  pl.set_position(c.find_device("R1"), {1, 10});
  pl.set_position(c.find_device("R2"), {9, 10.5});  // bottoms differ by 0.5
  const Evaluator ev(c);
  EXPECT_NEAR(ev.alignment_residual(pl, c.constraints().alignments[0]), 0.5,
              1e-12);
  // Ordering R1 (w=1) before S (w=4): gap = (5-2) - (0.5+2) = 0.5 >= 0 OK.
  EXPECT_NEAR(ev.ordering_residual(pl, c.constraints().orderings[0]), 0.0,
              1e-12);
  pl.set_position(c.find_device("S"), {2.0, 2});  // violated by 1.5
  EXPECT_NEAR(ev.ordering_residual(pl, c.constraints().orderings[0]), 1.5,
              1e-12);
}

TEST(EvaluatorTest, ViolationListAndLegalFlag) {
  const netlist::Circuit c = test::constrained_circuit();
  Placement pl(c);
  pl.set_position(c.find_device("A"), {2, 5});
  pl.set_position(c.find_device("B"), {8, 5});
  pl.set_position(c.find_device("S"), {5, 2});
  pl.set_position(c.find_device("R1"), {1, 10});
  pl.set_position(c.find_device("R2"), {9, 10});
  const Evaluator ev(c);
  EXPECT_TRUE(ev.evaluate(pl).legal());
  EXPECT_TRUE(ev.violations(pl).empty());

  pl.set_position(c.find_device("R2"), {1.2, 10});  // overlap R1/R2
  const QualityReport q = ev.evaluate(pl);
  EXPECT_FALSE(q.legal());
  EXPECT_GT(q.overlap_area, 0);
  EXPECT_FALSE(ev.violations(pl).empty());
}

}  // namespace
}  // namespace aplace::netlist
