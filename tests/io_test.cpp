// I/O: circuit/placement text round trips over every registry circuit, SVG
// rendering sanity, and diagnostics on malformed input (the hardened parsers
// return Result<T> with line/column context instead of throwing).

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include <string>

#include "base/fnv.hpp"
#include "circuits/testcases.hpp"
#include "io/netlist_io.hpp"
#include "io/svg.hpp"
#include "sa/annealer.hpp"
#include "test_util.hpp"

namespace aplace::io {
namespace {

netlist::Placement quick_placement(const netlist::Circuit& c) {
  sa::SaOptions opts;
  opts.max_moves = 2000;
  return sa::SaPlacer(c, opts).place().placement;
}

void expect_invalid(const Status& st, const std::string& needle) {
  EXPECT_EQ(st.code(), StatusCode::InvalidInput) << st.to_string();
  EXPECT_NE(st.to_string().find(needle), std::string::npos)
      << "expected '" << needle << "' in: " << st.to_string();
}

class IoRoundtripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IoRoundtripTest, CircuitTextRoundtrip) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const std::string text = circuit_to_text(tc.circuit);
  const Result<netlist::Circuit> parsed = circuit_from_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const netlist::Circuit& back = parsed.value();

  EXPECT_EQ(back.name(), tc.circuit.name());
  ASSERT_EQ(back.num_devices(), tc.circuit.num_devices());
  ASSERT_EQ(back.num_pins(), tc.circuit.num_pins());
  ASSERT_EQ(back.num_nets(), tc.circuit.num_nets());
  for (std::size_t i = 0; i < back.num_devices(); ++i) {
    const netlist::Device& a = tc.circuit.device(DeviceId{i});
    const netlist::Device& b = back.device(DeviceId{i});
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.type, b.type);
    // Exact (to_chars) serialization: bit-identical, not just close.
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.height, b.height);
  }
  for (std::size_t p = 0; p < back.num_pins(); ++p) {
    const netlist::Pin& a = tc.circuit.pin(PinId{p});
    const netlist::Pin& b = back.pin(PinId{p});
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.offset.x, b.offset.x);
    EXPECT_EQ(a.offset.y, b.offset.y);
  }
  for (std::size_t e = 0; e < back.num_nets(); ++e) {
    const netlist::Net& a = tc.circuit.net(NetId{e});
    const netlist::Net& b = back.net(NetId{e});
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.pins.size(), b.pins.size());
    EXPECT_EQ(a.critical, b.critical);
    EXPECT_EQ(a.weight, b.weight);
  }
  const netlist::ConstraintSet& ca = tc.circuit.constraints();
  const netlist::ConstraintSet& cb = back.constraints();
  EXPECT_EQ(ca.symmetry_groups.size(), cb.symmetry_groups.size());
  EXPECT_EQ(ca.alignments.size(), cb.alignments.size());
  EXPECT_EQ(ca.orderings.size(), cb.orderings.size());
  EXPECT_EQ(ca.common_centroids.size(), cb.common_centroids.size());
  // A second serialization must be byte-identical (canonical form).
  EXPECT_EQ(circuit_to_text(back), text);
}

TEST_P(IoRoundtripTest, PlacementTextRoundtrip) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Placement pl = quick_placement(tc.circuit);
  const Result<netlist::Placement> parsed =
      placement_from_text(tc.circuit, placement_to_text(pl));
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const netlist::Placement& back = parsed.value();
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(back.position(DeviceId{i}), pl.position(DeviceId{i}));
    EXPECT_EQ(back.orientation(DeviceId{i}), pl.orientation(DeviceId{i}));
  }
  EXPECT_DOUBLE_EQ(back.total_hpwl(), pl.total_hpwl());
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, IoRoundtripTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(IoRoundtripExactTest, AwkwardDoublesSurviveBitExactly) {
  // Coordinates with no short decimal form must still round-trip to the
  // same bits (the run journal replays placements through this path).
  const netlist::Circuit c = test::two_device_circuit();
  netlist::Placement pl(c);
  pl.set_position(c.find_device("A"), {0.1 + 0.2, 1.0 / 3.0});
  pl.set_position(c.find_device("B"), {1e-300, 12345.678901234567});
  pl.set_orientation(c.find_device("B"), {true, false});
  const Result<netlist::Placement> back =
      placement_from_text(c, placement_to_text(pl));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    EXPECT_EQ(back.value().position(DeviceId{i}), pl.position(DeviceId{i}));
    EXPECT_EQ(back.value().orientation(DeviceId{i}),
              pl.orientation(DeviceId{i}));
  }
}

TEST(IoErrorTest, RejectsUnknownDirective) {
  const auto r = circuit_from_text("circuit x\nbogus line\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "line 2");
  expect_invalid(r.status(), "bogus");
}

TEST(IoErrorTest, RejectsDirectiveBeforeCircuit) {
  const auto r = circuit_from_text("device A nmos 2 2\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "expected 'circuit <name>'");
}

TEST(IoErrorTest, DuplicateDeviceNamesBothLines) {
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\n"
      "device B nmos 2 2\n"
      "device A pmos 3 3\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "line 4");
  expect_invalid(r.status(), "duplicate device 'A'");
  expect_invalid(r.status(), "first defined at line 2");
}

TEST(IoErrorTest, DuplicateNetNamesBothLines) {
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\ndevice B nmos 2 2\n"
      "pin A p 1 1\npin B p 1 1\n"
      "net n 1 0 A.p\n"
      "net n 1 0 B.p\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "line 7");
  expect_invalid(r.status(), "duplicate net 'n'");
  expect_invalid(r.status(), "first defined at line 6");
}

TEST(IoErrorTest, DuplicatePinNamesBothLines) {
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\n"
      "pin A p 1 1\n"
      "pin A p 0 0\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "duplicate pin 'A.p'");
  expect_invalid(r.status(), "first defined at line 3");
}

TEST(IoErrorTest, RejectsUnknownDeviceInNet) {
  const std::string text =
      "circuit x\n"
      "device A nmos 2 2\n"
      "pin A p 1 1\n"
      "net n 1 0 A.p B.q\n";
  const auto r = circuit_from_text(text);
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "unknown pin 'B.q'");
  expect_invalid(r.status(), "line 4");
}

TEST(IoErrorTest, RejectsPinOnTwoNets) {
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\ndevice B nmos 2 2\n"
      "pin A p 1 1\npin B p 1 1\n"
      "net n1 1 0 A.p B.p\n"
      "net n2 1 0 A.p\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "pin 'A.p' already on net 'n1'");
}

TEST(IoErrorTest, RejectsUnconnectedPin) {
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\ndevice B nmos 2 2\n"
      "pin A p 1 1\npin B p 1 1\npin B q 0 0\n"
      "net n 1 0 A.p B.p\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "pin 'B.q' is not connected");
  expect_invalid(r.status(), "line 6");
}

TEST(IoErrorTest, RejectsMalformedNumbers) {
  const auto r = circuit_from_text("circuit x\ndevice A nmos 2 tall\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "expected a finite number");
  expect_invalid(r.status(), "'tall'");
}

TEST(IoErrorTest, RejectsNonFiniteCoordinates) {
  const netlist::Circuit c = test::two_device_circuit();
  const auto r = placement_from_text(
      c, "placement two\nplace A inf 0\nplace B 0 0\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "finite number");
}

TEST(IoErrorTest, RejectsNonPositiveFootprint) {
  const auto r = circuit_from_text("circuit x\ndevice A nmos 2 0\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "positive footprint");
}

TEST(IoErrorTest, RejectsPinOutsideFootprint) {
  const auto r =
      circuit_from_text("circuit x\ndevice A nmos 2 2\npin A p 3 1\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "outside device 'A' footprint");
}

TEST(IoErrorTest, RejectsSecondCircuitDirective) {
  const auto r = circuit_from_text("circuit x\ncircuit y\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "duplicate 'circuit'");
}

TEST(IoErrorTest, RejectsBadSymmetryAxis) {
  const auto r = circuit_from_text(
      "circuit x\ndevice A nmos 2 2\npin A p 1 1\nnet n 1 0 A.p\n"
      "sym X self A\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "V or H");
}

TEST(IoErrorTest, RejectsIncompletePlacement) {
  const netlist::Circuit c = test::two_device_circuit();
  const auto r = placement_from_text(c, "placement two\nplace A 1 1\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "missing 'B'");
}

TEST(IoErrorTest, DuplicatePlaceNamesBothLines) {
  const netlist::Circuit c = test::two_device_circuit();
  const auto r = placement_from_text(
      c, "placement two\nplace A 1 1\nplace A 2 2\nplace B 0 0\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "duplicate 'place' for device 'A'");
  expect_invalid(r.status(), "first at line 2");
}

TEST(IoErrorTest, RejectsWrongCircuitName) {
  const netlist::Circuit c = test::two_device_circuit();
  const auto r = placement_from_text(
      c, "placement other\nplace A 1 1\nplace B 2 2\n");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "placement is for circuit 'other'");
}

TEST(IoErrorTest, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n"
      "circuit x\n"
      "\n"
      "device A nmos 2 2   # trailing comment\n"
      "device B nmos 2 2\n"
      "pin A p 1 1\n"
      "pin B p 1 1\n"
      "net n 1 0 A.p B.p\n";
  const auto r = circuit_from_text(text);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().num_devices(), 2u);
}

TEST(IoErrorTest, SinglePinNetsAccepted) {
  // add_net allows dangling single-pin nets and circuit_to_text emits them,
  // so the parser must accept them for the round trip to close.
  const auto r = circuit_from_text(
      "circuit x\n"
      "device A nmos 2 2\ndevice B nmos 2 2\n"
      "pin A p 1 1\npin B p 1 1\n"
      "net n1 1 0 A.p\n"
      "net n2 1 0 B.p\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value().num_nets(), 2u);
}

TEST(SvgTest, RendersAllDevicesAndParses) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const netlist::Placement pl = quick_placement(tc.circuit);
  const std::string svg = to_svg(pl);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  for (const netlist::Device& d : tc.circuit.devices()) {
    EXPECT_NE(svg.find(">" + d.name + "<"), std::string::npos) << d.name;
  }
  // Symmetry axes drawn for both groups.
  std::size_t dashes = 0, pos = 0;
  while ((pos = svg.find("stroke-dasharray=\"2 4\"", pos)) !=
         std::string::npos) {
    ++dashes;
    pos += 1;
  }
  EXPECT_EQ(dashes, tc.circuit.constraints().symmetry_groups.size());
}

TEST(SvgTest, OptionsDisableLayers) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const netlist::Placement pl = quick_placement(tc.circuit);
  SvgOptions opt;
  opt.draw_nets = false;
  opt.draw_pins = false;
  opt.draw_labels = false;
  opt.draw_symmetry = false;
  const std::string svg = to_svg(pl, opt);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
  EXPECT_EQ(svg.find("<text"), std::string::npos);
}

TEST(SvgTest, DefaultRenderPinned) {
  // The default scale (40 px/um) and margin (1 um) reach every coordinate
  // of the document, so one digest pins both, along with the layer order.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const std::string svg = to_svg(quick_placement(tc.circuit));
  EXPECT_EQ(svg.size(), 9391u);
  EXPECT_EQ(base::fnv1a64(svg), 16137287348278445186ULL);
}

TEST(IoFileTest, WriteAndReadBack) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  // One directory per process, so concurrent runs do not collide.
  const std::string dir = (std::filesystem::path(::testing::TempDir()) /
                           ("io_test_" + std::to_string(::getpid())))
                              .string();
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(write_circuit(tc.circuit, dir + "/adder.acirc").ok());
  const Result<netlist::Circuit> back = read_circuit(dir + "/adder.acirc");
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value().num_devices(), tc.circuit.num_devices());

  const netlist::Placement pl = quick_placement(tc.circuit);
  ASSERT_TRUE(write_placement(pl, dir + "/adder.aplc").ok());
  const Result<netlist::Placement> pback =
      read_placement(tc.circuit, dir + "/adder.aplc");
  ASSERT_TRUE(pback.ok()) << pback.status().to_string();
  EXPECT_DOUBLE_EQ(pback.value().total_hpwl(), pl.total_hpwl());

  write_svg(pl, dir + "/adder.svg");
  EXPECT_THROW(write_svg(pl, "/nonexistent-dir/x.svg"), CheckError);
  std::filesystem::remove_all(dir);
}

TEST(IoFileTest, MissingFilesReportThePath) {
  const Result<netlist::Circuit> r = read_circuit("/no/such/file.acirc");
  ASSERT_FALSE(r.ok());
  expect_invalid(r.status(), "/no/such/file.acirc");
  EXPECT_FALSE(write_circuit(circuits::make_testcase("Adder").circuit,
                             "/no/such/dir/x.acirc")
                   .ok());
}

TEST(IoRoundtripExtraTest, CommonCentroidDirective) {
  const std::string text =
      "circuit quad\n"
      "device A1 nmos 2 2\ndevice A2 nmos 2 2\n"
      "device B1 nmos 2 2\ndevice B2 nmos 2 2\n"
      "pin A1 p 1 1\npin A2 p 1 1\npin B1 p 1 1\npin B2 p 1 1\n"
      "net n 1 0 A1.p A2.p B1.p B2.p\n"
      "centroid A1 A2 B1 B2\n";
  const Result<netlist::Circuit> parsed = circuit_from_text(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
  const netlist::Circuit& c = parsed.value();
  ASSERT_EQ(c.constraints().common_centroids.size(), 1u);
  // Round trip preserves the directive.
  const Result<netlist::Circuit> back =
      circuit_from_text(circuit_to_text(c));
  ASSERT_TRUE(back.ok()) << back.status().to_string();
  EXPECT_EQ(back.value().constraints().common_centroids.size(), 1u);
  EXPECT_EQ(circuit_to_text(back.value()), circuit_to_text(c));
}

}  // namespace
}  // namespace aplace::io
