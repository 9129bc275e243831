// Property tests for netlist::CompiledCircuit: every flat array and CSR
// table must round-trip exactly against the Circuit accessors it mirrors,
// on every circuit in the registry. This is the contract that lets engines
// index compiled tables instead of rebuilding adjacency (see
// docs/DATA_MODEL.md) — any divergence here would silently skew every
// engine at once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "circuits/testcases.hpp"
#include "core/compile_cache.hpp"
#include "gp/eplace_gp.hpp"
#include "netlist/compiled.hpp"
#include "numeric/rng.hpp"

namespace {

using namespace aplace;
using netlist::CompiledCircuit;

class CompiledAllCircuitsTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, CompiledAllCircuitsTest,
    ::testing::ValuesIn(circuits::testcase_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST_P(CompiledAllCircuitsTest, DeviceArraysMatchCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const CompiledCircuit cc(c);

  ASSERT_EQ(cc.num_devices(), c.num_devices());
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    const netlist::Device& d = c.device(DeviceId{i});
    EXPECT_EQ(cc.dev_width()[i], d.width) << i;
    EXPECT_EQ(cc.dev_height()[i], d.height) << i;
    EXPECT_EQ(cc.dev_area()[i], d.area()) << i;
    EXPECT_EQ(cc.dev_half_width()[i], d.width / 2) << i;
    EXPECT_EQ(cc.dev_half_height()[i], d.height / 2) << i;
    EXPECT_EQ(cc.dev_type()[i], d.type) << i;
  }
  EXPECT_EQ(cc.total_device_area(), c.total_device_area());
}

TEST_P(CompiledAllCircuitsTest, PinAndNetArraysMatchCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const CompiledCircuit cc(c);

  ASSERT_EQ(cc.num_pins(), c.num_pins());
  for (std::size_t p = 0; p < c.num_pins(); ++p) {
    const netlist::Pin& pin = c.pin(PinId{p});
    EXPECT_EQ(cc.pin_offset_x()[p], pin.offset.x) << p;
    EXPECT_EQ(cc.pin_offset_y()[p], pin.offset.y) << p;
    EXPECT_EQ(cc.pin_device()[p], pin.device.index()) << p;
    EXPECT_EQ(cc.pin_net()[p], pin.net.index()) << p;
  }

  ASSERT_EQ(cc.num_nets(), c.num_nets());
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const netlist::Net& net = c.net(NetId{n});
    EXPECT_EQ(cc.net_weight()[n], net.weight) << n;
    EXPECT_EQ(cc.net_critical()[n] != 0, net.critical) << n;
  }
}

TEST_P(CompiledAllCircuitsTest, CsrTablesMatchCircuitAdjacency) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const CompiledCircuit cc(c);

  // net_pins: declaration order of Net::pins.
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const netlist::Net& net = c.net(NetId{n});
    const auto pins = cc.net_pins(n);
    ASSERT_EQ(pins.size(), net.pins.size()) << n;
    for (std::size_t k = 0; k < pins.size(); ++k) {
      EXPECT_EQ(pins[k], net.pins[k].index()) << n << "," << k;
    }
  }

  // device_pins: declaration order of Device::pins.
  for (std::size_t d = 0; d < c.num_devices(); ++d) {
    const netlist::Device& dev = c.device(DeviceId{d});
    const auto pins = cc.device_pins(d);
    ASSERT_EQ(pins.size(), dev.pins.size()) << d;
    for (std::size_t k = 0; k < pins.size(); ++k) {
      EXPECT_EQ(pins[k], dev.pins[k].index()) << d << "," << k;
    }
  }

  // device_nets: the same deduped ascending table Circuit::nets_of exposes.
  for (std::size_t d = 0; d < c.num_devices(); ++d) {
    const auto nets = cc.device_nets(d);
    const auto expect = c.nets_of(DeviceId{d});
    ASSERT_EQ(nets.size(), expect.size()) << d;
    for (std::size_t k = 0; k < nets.size(); ++k) {
      EXPECT_EQ(nets[k], expect[k].index()) << d << "," << k;
    }
  }

  // net_devices: sort+unique over the devices of the net's pins.
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    std::vector<std::uint32_t> expect;
    for (const PinId p : c.net(NetId{n}).pins) {
      expect.push_back(
          static_cast<std::uint32_t>(c.pin(p).device.index()));
    }
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    const auto devs = cc.net_devices(n);
    ASSERT_EQ(devs.size(), expect.size()) << n;
    for (std::size_t k = 0; k < devs.size(); ++k) {
      EXPECT_EQ(devs[k], expect[k]) << n << "," << k;
    }
  }
}

TEST_P(CompiledAllCircuitsTest, WirelengthTableMatchesCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const CompiledCircuit cc(c);

  std::size_t wl = 0;
  for (std::size_t n = 0; n < c.num_nets(); ++n) {
    const netlist::Net& net = c.net(NetId{n});
    if (net.degree() < 2) continue;  // degenerate nets carry no wirelength
    ASSERT_LT(wl, cc.num_wl_nets());
    EXPECT_EQ(cc.wl_net_id()[wl], n);
    EXPECT_EQ(cc.wl_weight()[wl], net.weight);
    const auto dev = cc.wl_pin_device(wl);
    const auto dx = cc.wl_pin_dx(wl);
    const auto dy = cc.wl_pin_dy(wl);
    ASSERT_EQ(dev.size(), net.pins.size());
    for (std::size_t k = 0; k < net.pins.size(); ++k) {
      const netlist::Pin& pin = c.pin(net.pins[k]);
      const netlist::Device& d = c.device(pin.device);
      EXPECT_EQ(dev[k], pin.device.index());
      EXPECT_EQ(dx[k], pin.offset.x - d.width / 2);
      EXPECT_EQ(dy[k], pin.offset.y - d.height / 2);
    }
    ++wl;
  }
  EXPECT_EQ(wl, cc.num_wl_nets());
}

TEST_P(CompiledAllCircuitsTest, ConstraintTablesMatchCircuit) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;
  const netlist::ConstraintSet& cs = c.constraints();
  const CompiledCircuit cc(c);

  ASSERT_EQ(cc.num_symmetry_groups(), cs.symmetry_groups.size());
  for (std::size_t g = 0; g < cs.symmetry_groups.size(); ++g) {
    const netlist::SymmetryGroup& sg = cs.symmetry_groups[g];
    EXPECT_EQ(cc.sym_axis(g), sg.axis) << g;
    const auto pa = cc.sym_pair_a(g);
    const auto pb = cc.sym_pair_b(g);
    ASSERT_EQ(pa.size(), sg.pairs.size()) << g;
    ASSERT_EQ(pb.size(), sg.pairs.size()) << g;
    for (std::size_t k = 0; k < sg.pairs.size(); ++k) {
      EXPECT_EQ(pa[k], sg.pairs[k].first.index()) << g << "," << k;
      EXPECT_EQ(pb[k], sg.pairs[k].second.index()) << g << "," << k;
    }
    const auto self = cc.sym_self(g);
    ASSERT_EQ(self.size(), sg.self_symmetric.size()) << g;
    for (std::size_t k = 0; k < self.size(); ++k) {
      EXPECT_EQ(self[k], sg.self_symmetric[k].index()) << g << "," << k;
    }
  }

  ASSERT_EQ(cc.num_alignments(), cs.alignments.size());
  for (std::size_t k = 0; k < cs.alignments.size(); ++k) {
    EXPECT_EQ(cc.align_kind()[k], cs.alignments[k].kind) << k;
    EXPECT_EQ(cc.align_a()[k], cs.alignments[k].a.index()) << k;
    EXPECT_EQ(cc.align_b()[k], cs.alignments[k].b.index()) << k;
  }

  ASSERT_EQ(cc.num_orderings(), cs.orderings.size());
  for (std::size_t k = 0; k < cs.orderings.size(); ++k) {
    EXPECT_EQ(cc.order_direction(k), cs.orderings[k].direction) << k;
    const auto devs = cc.order_devices(k);
    ASSERT_EQ(devs.size(), cs.orderings[k].devices.size()) << k;
    for (std::size_t j = 0; j < devs.size(); ++j) {
      EXPECT_EQ(devs[j], cs.orderings[k].devices[j].index()) << k << "," << j;
    }
  }

  ASSERT_EQ(cc.num_centroids(), cs.common_centroids.size());
  for (std::size_t k = 0; k < cs.common_centroids.size(); ++k) {
    const netlist::CommonCentroidQuad& q = cs.common_centroids[k];
    EXPECT_EQ(cc.cent_a1()[k], q.a1.index()) << k;
    EXPECT_EQ(cc.cent_a2()[k], q.a2.index()) << k;
    EXPECT_EQ(cc.cent_b1()[k], q.b1.index()) << k;
    EXPECT_EQ(cc.cent_b2()[k], q.b2.index()) << k;
  }
}

TEST_P(CompiledAllCircuitsTest, PlacementStateRoundTripsExactly) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;

  // Scatter the devices (including orientations) with a seeded RNG, then
  // round-trip Placement -> PlacementState -> Placement: every coordinate
  // bit and both flip flags must survive.
  netlist::Placement ref(c);
  numeric::Rng rng(12345);
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    ref.set_position(DeviceId{i}, {rng.uniform(-50.0, 50.0),
                                   rng.uniform(-50.0, 50.0)});
    ref.set_orientation(DeviceId{i}, {rng.uniform_int(0, 1) == 1,
                                      rng.uniform_int(0, 1) == 1});
  }

  const netlist::PlacementState state =
      netlist::PlacementState::from_placement(ref);
  ASSERT_EQ(state.size(), c.num_devices());
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    EXPECT_EQ(state.x[i], ref.position(DeviceId{i}).x) << i;
    EXPECT_EQ(state.y[i], ref.position(DeviceId{i}).y) << i;
    EXPECT_EQ(state.orient[i], ref.orientation(DeviceId{i})) << i;
  }

  const netlist::Placement back = state.to_placement(c);
  netlist::Placement applied(c);
  state.apply_to(applied);
  for (std::size_t i = 0; i < c.num_devices(); ++i) {
    const DeviceId id{i};
    EXPECT_EQ(back.position(id).x, ref.position(id).x) << i;
    EXPECT_EQ(back.position(id).y, ref.position(id).y) << i;
    EXPECT_EQ(back.orientation(id), ref.orientation(id)) << i;
    EXPECT_EQ(applied.position(id).x, ref.position(id).x) << i;
    EXPECT_EQ(applied.position(id).y, ref.position(id).y) << i;
    EXPECT_EQ(applied.orientation(id), ref.orientation(id)) << i;
  }
}

TEST(CompileCacheTest, SharesOneSnapshotPerCircuit) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  core::CompileCache cache;
  const auto first = cache.get_or_compile(tc.circuit);
  const auto second = cache.get_or_compile(tc.circuit);
  EXPECT_EQ(first.get(), second.get());  // hit returns the cached snapshot
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(&first->circuit(), &tc.circuit);

  circuits::TestCase other = circuits::make_testcase("VGA");
  const auto third = cache.get_or_compile(other.circuit);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CompileCacheTest, IdenticalContentSharesDigestDistinctObjectStaysSafe) {
  // Two separately built but identical circuits share a digest; the cache
  // still never hands circuit B a snapshot borrowing circuit A.
  circuits::TestCase a = circuits::make_testcase("Comp1");
  circuits::TestCase b = circuits::make_testcase("Comp1");
  ASSERT_EQ(a.circuit.digest(), b.circuit.digest());

  core::CompileCache cache;
  const auto sa = cache.get_or_compile(a.circuit);
  const auto sb = cache.get_or_compile(b.circuit);
  EXPECT_EQ(&sa->circuit(), &a.circuit);
  EXPECT_EQ(&sb->circuit(), &b.circuit);
}

TEST(CompileCacheTest, NullCacheCompilesPrivately) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const auto snap = core::compile_or_fetch(nullptr, tc.circuit);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(&snap->circuit(), &tc.circuit);
}

// The handle every engine holds its snapshot through: it shares a snapshot
// it is given, compiles a private one from a Circuit, and keeps whichever
// it holds alive for as long as the engine lives.
TEST(CompiledRefTest, SharesCompilesAndOwnsItsSnapshot) {
  circuits::TestCase tc = circuits::make_testcase("Adder");

  const auto shared = std::make_shared<const CompiledCircuit>(tc.circuit);
  const long before = shared.use_count();
  {
    const netlist::CompiledRef ref(shared);
    EXPECT_EQ(ref.get(), shared.get());
    EXPECT_EQ(&*ref, shared.get());
    EXPECT_EQ(shared.use_count(), before + 1);
  }
  EXPECT_EQ(shared.use_count(), before);

  const netlist::CompiledRef own(tc.circuit);
  EXPECT_EQ(&own->circuit(), &tc.circuit);
  EXPECT_EQ(own->num_devices(), tc.circuit.num_devices());

  // The engine must own the snapshot: the caller's last pointer goes away
  // before run(), which then reads only what the engine keeps alive.
  gp::EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.max_iters = 20;
  opts.min_iters = 5;
  auto temp = std::make_shared<const CompiledCircuit>(tc.circuit);
  gp::EPlaceGlobalPlacer placer(temp, opts);
  temp.reset();
  const gp::GpResult r = placer.run();
  ASSERT_EQ(r.positions.size(), 2 * tc.circuit.num_devices());
  for (const double x : r.positions) EXPECT_TRUE(std::isfinite(x));
}

}  // namespace
