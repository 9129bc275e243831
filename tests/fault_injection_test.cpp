// Fault-injection harness (robustness tentpole): drive all three flows over
// a gallery of adversarial circuits — malformed inputs, contradictory
// constraint sets, pathological geometry, poisoned GP hand-offs and expired
// budgets — and require the pipeline's contract to hold everywhere:
//
//   * a flow NEVER crashes or lets an exception escape;
//   * an Ok result means a legal placement with finite coordinates;
//   * a non-Ok result carries a structured Status (code != Ok) explaining
//     what went wrong, with validator rejections typed InvalidInput.

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/flow.hpp"

namespace aplace::core {
namespace {

using netlist::AlignmentKind;
using netlist::AlignmentPair;
using netlist::Axis;
using netlist::Circuit;
using netlist::CommonCentroidQuad;
using netlist::DeviceType;
using netlist::OrderDirection;
using netlist::OrderingConstraint;
using netlist::SymmetryGroup;

struct Adversary {
  std::string name;
  Circuit circuit;
  bool expect_invalid = false;  ///< pre-flight validation must reject it
};

// `prefix` followed by `i`, built with append(): gcc 12 at -O3 reports a
// false -Wrestrict inside libstdc++ for "p" + std::to_string(i).
std::string numbered(const char* prefix, std::size_t i) {
  return std::string(prefix).append(std::to_string(i));
}

// Adds a two-pin chain net between consecutive devices so finalize() passes
// (every pin must be on a net) and the wirelength engines have work to do.
void connect_chain(Circuit& c, const std::vector<DeviceId>& devs,
                   double weight = 1.0) {
  for (std::size_t i = 0; i + 1 < devs.size(); ++i) {
    const PinId a = c.add_center_pin(devs[i], numbered("p", i));
    const PinId b = c.add_center_pin(devs[i + 1], numbered("q", i));
    c.add_net(numbered("n", i), {a, b}, weight);
  }
}

std::vector<DeviceId> add_devices(Circuit& c, int count, double w = 2.0,
                                  double h = 1.0) {
  std::vector<DeviceId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    out.push_back(c.add_device(numbered("m", i), DeviceType::Nmos, w, h));
  }
  return out;
}

std::vector<Adversary> adversarial_circuits() {
  std::vector<Adversary> out;
  auto add = [&](std::string name, Circuit c, bool invalid = false) {
    out.push_back(Adversary{std::move(name), std::move(c), invalid});
  };

  // 1. Unfinalized circuit with a dangling pin: the classic API-misuse case.
  {
    Circuit c("unfinalized");
    const DeviceId d = c.add_device("m0", DeviceType::Nmos, 2, 1);
    c.add_center_pin(d, "g");  // never connected, finalize() never called
    add("unfinalized", std::move(c), /*invalid=*/true);
  }

  // 2. Empty-of-constraints, pinless circuit: no nets at all, HPWL is 0.
  {
    Circuit c("no-nets");
    add_devices(c, 3);
    c.finalize();
    add("no-nets", std::move(c));
  }

  // 3. A single device with a single-pin (dangling-but-legal) net.
  {
    Circuit c("single-device");
    const DeviceId d = c.add_device("m0", DeviceType::Nmos, 3, 2);
    c.add_net("n0", {c.add_center_pin(d, "g")});
    c.finalize();
    add("single-device", std::move(c));
  }

  // 4. Extreme aspect ratio next to square devices.
  {
    Circuit c("extreme-aspect");
    std::vector<DeviceId> d;
    d.push_back(c.add_device("sliver", DeviceType::Resistor, 100.0, 0.05));
    d.push_back(c.add_device("m1", DeviceType::Nmos, 2, 2));
    d.push_back(c.add_device("m2", DeviceType::Nmos, 2, 2));
    connect_chain(c, d);
    c.finalize();
    add("extreme-aspect", std::move(c));
  }

  // 5. Huge absolute scale (micron-grid numbers blown up by 1e6).
  {
    Circuit c("huge-scale");
    connect_chain(c, add_devices(c, 4, 2e6, 1e6));
    c.finalize();
    add("huge-scale", std::move(c));
  }

  // 6. Tiny absolute scale.
  {
    Circuit c("tiny-scale");
    connect_chain(c, add_devices(c, 4, 2e-5, 1e-5));
    c.finalize();
    add("tiny-scale", std::move(c));
  }

  // 7. Mixed scales in one net: 1e-3-sized devices wired to 1e3-sized ones.
  {
    Circuit c("mixed-scale");
    std::vector<DeviceId> d;
    d.push_back(c.add_device("tiny", DeviceType::Capacitor, 2e-3, 1e-3));
    d.push_back(c.add_device("big", DeviceType::Module, 2e3, 1e3));
    d.push_back(c.add_device("mid", DeviceType::Nmos, 2, 1));
    connect_chain(c, d);
    c.finalize();
    add("mixed-scale", std::move(c));
  }

  // 8. One massively weighted net spanning every device.
  {
    Circuit c("heavy-net");
    const std::vector<DeviceId> d = add_devices(c, 10);
    std::vector<PinId> pins;
    for (std::size_t i = 0; i < d.size(); ++i) {
      pins.push_back(c.add_center_pin(d[i], numbered("p", i)));
    }
    c.add_net("bus", pins, 1e6);
    c.finalize();
    add("heavy-net", std::move(c));
  }

  // 9. Many symmetry pairs in one group (a wide symmetry island).
  {
    Circuit c("many-sym-pairs");
    const std::vector<DeviceId> d = add_devices(c, 8);
    connect_chain(c, d);
    SymmetryGroup g;
    for (std::size_t i = 0; i + 1 < d.size(); i += 2) g.pairs.push_back({d[i], d[i + 1]});
    c.add_symmetry_group(std::move(g));
    c.finalize();
    add("many-sym-pairs", std::move(c));
  }

  // 10. A stack of self-symmetric devices sharing one axis.
  {
    Circuit c("self-sym-stack");
    const std::vector<DeviceId> d = add_devices(c, 5, 3.0, 1.0);
    connect_chain(c, d);
    SymmetryGroup g;
    g.self_symmetric = d;
    c.add_symmetry_group(std::move(g));
    c.finalize();
    add("self-sym-stack", std::move(c));
  }

  // 11. Cyclic ordering: A < B, B < C, C < A in x. finalize() accepts it
  //     (per-constraint checks only); the pre-flight validator must not.
  {
    Circuit c("cyclic-ordering");
    const std::vector<DeviceId> d = add_devices(c, 3);
    connect_chain(c, d);
    c.add_ordering({OrderDirection::LeftToRight, {d[0], d[1]}});
    c.add_ordering({OrderDirection::LeftToRight, {d[1], d[2]}});
    c.add_ordering({OrderDirection::LeftToRight, {d[2], d[0]}});
    c.finalize();
    add("cyclic-ordering", std::move(c), /*invalid=*/true);
  }

  // 12. Vertical-axis symmetry pair ordered bottom-to-top: the mirror makes
  //     their y equal, the ordering demands a strict y gap.
  {
    Circuit c("sym-vs-ordering");
    const std::vector<DeviceId> d = add_devices(c, 4);
    connect_chain(c, d);
    c.add_symmetry_group({Axis::Vertical, {{d[0], d[1]}}, {}});
    c.add_ordering({OrderDirection::BottomToTop, {d[0], d[1]}});
    c.finalize();
    add("sym-vs-ordering", std::move(c), /*invalid=*/true);
  }

  // 13. VerticalCenter alignment (equal x) vs. left-to-right ordering.
  {
    Circuit c("align-vs-ordering");
    const std::vector<DeviceId> d = add_devices(c, 3);
    connect_chain(c, d);
    c.add_alignment({AlignmentKind::VerticalCenter, d[0], d[2]});
    c.add_ordering({OrderDirection::LeftToRight, {d[0], d[1], d[2]}});
    c.finalize();
    add("align-vs-ordering", std::move(c), /*invalid=*/true);
  }

  // 14. Deep left-to-right ordering chain over every device.
  {
    Circuit c("deep-ordering");
    const std::vector<DeviceId> d = add_devices(c, 10);
    connect_chain(c, d);
    c.add_ordering({OrderDirection::LeftToRight, d});
    c.finalize();
    add("deep-ordering", std::move(c));
  }

  // 15. Crossed orderings: x-order one way, y-order the other. Feasible
  //     (a staircase) but adversarial for packers.
  {
    Circuit c("crossed-orderings");
    const std::vector<DeviceId> d = add_devices(c, 5);
    connect_chain(c, d);
    c.add_ordering({OrderDirection::LeftToRight, d});
    c.add_ordering(
        {OrderDirection::BottomToTop, {d[4], d[3], d[2], d[1], d[0]}});
    c.finalize();
    add("crossed-orderings", std::move(c));
  }

  // 16. Common-centroid quad with an ordering slicing through it.
  {
    Circuit c("centroid-plus-ordering");
    const std::vector<DeviceId> d = add_devices(c, 6);
    connect_chain(c, d);
    c.add_common_centroid({d[0], d[3], d[1], d[2]});
    c.add_ordering({OrderDirection::LeftToRight, {d[4], d[5]}});
    c.finalize();
    add("centroid-plus-ordering", std::move(c));
  }

  // 17. Two common-centroid quads sharing two devices.
  {
    Circuit c("overlapping-centroids");
    const std::vector<DeviceId> d = add_devices(c, 6);
    connect_chain(c, d);
    c.add_common_centroid({d[0], d[1], d[2], d[3]});
    c.add_common_centroid({d[2], d[3], d[4], d[5]});
    c.finalize();
    add("overlapping-centroids", std::move(c));
  }

  // 18. Bottom-alignment chain across devices of very different heights.
  {
    Circuit c("alignment-chain");
    std::vector<DeviceId> d;
    for (int i = 0; i < 5; ++i) {
      d.push_back(c.add_device(numbered("m", i), DeviceType::Pmos, 2.0,
                               0.5 + 1.5 * i));
    }
    connect_chain(c, d);
    for (std::size_t i = 0; i + 1 < d.size(); ++i) {
      c.add_alignment({AlignmentKind::Bottom, d[i], d[i + 1]});
    }
    c.finalize();
    add("alignment-chain", std::move(c));
  }

  // 19. One giant module dwarfing many small devices (density hot spot).
  {
    Circuit c("giant-module");
    std::vector<DeviceId> d;
    d.push_back(c.add_device("core", DeviceType::Module, 40, 40));
    for (int i = 0; i < 8; ++i) {
      d.push_back(c.add_device(numbered("m", i), DeviceType::Nmos, 1, 1));
    }
    connect_chain(c, d);
    c.finalize();
    add("giant-module", std::move(c));
  }

  // 20. Symmetric pairs of extreme-aspect devices (mirror + sliver packing).
  {
    Circuit c("sliver-symmetry");
    std::vector<DeviceId> d;
    for (int i = 0; i < 4; ++i) {
      d.push_back(c.add_device(numbered("r", i), DeviceType::Resistor,
                               20.0, 0.2));
    }
    connect_chain(c, d);
    c.add_symmetry_group({Axis::Vertical, {{d[0], d[1]}, {d[2], d[3]}}, {}});
    c.finalize();
    add("sliver-symmetry", std::move(c));
  }

  // 21. Every constraint kind at once on a small circuit.
  {
    Circuit c("all-constraints");
    const std::vector<DeviceId> d = add_devices(c, 8);
    connect_chain(c, d);
    c.add_symmetry_group({Axis::Vertical, {{d[0], d[1]}}, {d[2]}});
    c.add_common_centroid({d[3], d[6], d[4], d[5]});
    c.add_alignment({AlignmentKind::Bottom, d[3], d[4]});
    c.add_ordering({OrderDirection::LeftToRight, {d[3], d[4], d[5]}});
    c.finalize();
    add("all-constraints", std::move(c));
  }

  // 22. Horizontal-axis symmetry (the less-exercised mirror direction)
  //     combined with a bottom-to-top ordering of the same pair — legal,
  //     since the mirror equalizes x while the ordering separates y.
  {
    Circuit c("horizontal-sym-ordered");
    const std::vector<DeviceId> d = add_devices(c, 4);
    connect_chain(c, d);
    c.add_symmetry_group({Axis::Horizontal, {{d[0], d[1]}}, {}});
    c.add_ordering({OrderDirection::BottomToTop, {d[0], d[1]}});
    c.finalize();
    add("horizontal-sym-ordered", std::move(c));
  }

  return out;
}

bool finite_placement(const netlist::Placement& pl) {
  for (const geom::Point& p : pl.positions()) {
    if (!(std::isfinite(p.x) && std::isfinite(p.y))) return false;
  }
  return true;
}

// The harness contract, checked for one flow on one adversary.
void check_contract(const char* flow, const Adversary& adv,
                    const std::optional<FlowResult>& r) {
  ASSERT_TRUE(r.has_value()) << flow << " threw on '" << adv.name << "'";
  if (adv.expect_invalid) {
    EXPECT_FALSE(r->ok()) << flow << " accepted invalid input '" << adv.name
                          << "'";
    EXPECT_EQ(r->status.code(), aplace::StatusCode::InvalidInput)
        << flow << " on '" << adv.name << "': " << r->status.to_string();
    return;
  }
  if (r->ok()) {
    EXPECT_TRUE(r->legal(1e-6))
        << flow << " reported Ok but is illegal on '" << adv.name << "'";
    EXPECT_TRUE(finite_placement(r->placement))
        << flow << " produced non-finite coordinates on '" << adv.name << "'";
  } else {
    EXPECT_NE(r->status.code(), aplace::StatusCode::Ok);
    EXPECT_FALSE(r->status.message().empty())
        << flow << " failed without a message on '" << adv.name << "'";
  }
}

EPlaceAOptions quick_eplace() {
  EPlaceAOptions o;
  o.candidates = 1;
  o.gp.num_starts = 1;
  o.gp.max_iters = 150;
  return o;
}

SaFlowOptions quick_sa() {
  SaFlowOptions o;
  o.sa.max_moves = 5000;
  return o;
}

TEST(FaultInjectionTest, EPlaceASurvivesAdversarialCircuits) {
  for (const Adversary& adv : adversarial_circuits()) {
    std::optional<FlowResult> r;
    EXPECT_NO_THROW(r.emplace(run_eplace_a(adv.circuit, quick_eplace())))
        << "ePlace-A threw on '" << adv.name << "'";
    check_contract("ePlace-A", adv, r);
  }
}

TEST(FaultInjectionTest, PriorWorkSurvivesAdversarialCircuits) {
  for (const Adversary& adv : adversarial_circuits()) {
    std::optional<FlowResult> r;
    PriorWorkOptions opts;
    opts.gp.outer_iters = 4;
    EXPECT_NO_THROW(r.emplace(run_prior_work(adv.circuit, opts)))
        << "prior-work threw on '" << adv.name << "'";
    check_contract("prior-work", adv, r);
  }
}

TEST(FaultInjectionTest, SaSurvivesAdversarialCircuits) {
  for (const Adversary& adv : adversarial_circuits()) {
    std::optional<FlowResult> r;
    EXPECT_NO_THROW(r.emplace(run_sa(adv.circuit, quick_sa())))
        << "SA threw on '" << adv.name << "'";
    check_contract("SA", adv, r);
  }
}

// Poisoned GP hand-off: the legalizers must sanitize NaN coordinates and
// still end with a legal placement (or a structured error), never NaN out.
TEST(FaultInjectionTest, PoisonedGpHandOffIsSanitized) {
  Circuit c("poisoned");
  const std::vector<DeviceId> d = add_devices(c, 6);
  connect_chain(c, d);
  c.finalize();

  EPlaceAOptions eo = quick_eplace();
  eo.inject.poison_gp = true;
  const FlowResult ep = run_eplace_a(c, eo);
  EXPECT_TRUE(ep.gp_diverged);
  if (ep.ok()) {
    EXPECT_TRUE(ep.legal(1e-6));
    EXPECT_TRUE(finite_placement(ep.placement));
  } else {
    EXPECT_NE(ep.status.code(), aplace::StatusCode::Ok);
  }

  PriorWorkOptions po;
  po.gp.outer_iters = 4;
  po.inject.poison_gp = true;
  const FlowResult pw = run_prior_work(c, po);
  EXPECT_TRUE(pw.gp_diverged);
  if (pw.ok()) {
    EXPECT_TRUE(pw.legal(1e-6));
    EXPECT_TRUE(finite_placement(pw.placement));
  } else {
    EXPECT_NE(pw.status.code(), aplace::StatusCode::Ok);
  }
}

// Injected failures at every chain level, on every flow: the chain must
// bottom out at greedy shift rather than crash or lie about success.
TEST(FaultInjectionTest, InjectedChainFailuresNeverCrash) {
  Circuit c("inject-all");
  const std::vector<DeviceId> d = add_devices(c, 6);
  connect_chain(c, d);
  c.add_symmetry_group({Axis::Vertical, {{d[0], d[1]}}, {}});
  c.finalize();

  for (int mask = 1; mask < 8; ++mask) {
    FaultInjection inj;
    inj.fail_primary_dp = (mask & 1) != 0;
    inj.fail_rounded_lp = (mask & 2) != 0;
    inj.fail_two_stage = (mask & 4) != 0;

    EPlaceAOptions eo = quick_eplace();
    eo.inject = inj;
    std::optional<FlowResult> r;
    EXPECT_NO_THROW(r.emplace(run_eplace_a(c, eo))) << "mask " << mask;
    ASSERT_TRUE(r.has_value());
    if (r->ok()) {
      EXPECT_TRUE(r->legal(1e-6)) << "mask " << mask;
    } else {
      EXPECT_NE(r->status.code(), aplace::StatusCode::Ok) << "mask " << mask;
    }
    if (inj.fail_primary_dp) {
      EXPECT_NE(r->fallback, FallbackLevel::None) << "mask " << mask;
    }
  }
}

// Expired budgets on all three flows: BudgetExhausted/deadline_hit shows up
// in the result, and the answer is still legal or a structured error.
TEST(FaultInjectionTest, ExpiredBudgetsReportDeadlineHit) {
  Circuit c("budget");
  const std::vector<DeviceId> d = add_devices(c, 6);
  connect_chain(c, d);
  c.finalize();

  EPlaceAOptions eo = quick_eplace();
  eo.deadline = Deadline::after_seconds(1e-6);
  const FlowResult ep = run_eplace_a(c, eo);
  EXPECT_TRUE(ep.deadline_hit);
  if (ep.ok()) {
    EXPECT_TRUE(ep.legal(1e-6));
  }

  PriorWorkOptions po;
  po.deadline = Deadline::after_seconds(1e-6);
  const FlowResult pw = run_prior_work(c, po);
  EXPECT_TRUE(pw.deadline_hit);
  if (pw.ok()) {
    EXPECT_TRUE(pw.legal(1e-6));
  }

  SaFlowOptions so = quick_sa();
  so.deadline = Deadline::after_seconds(1e-6);
  const FlowResult sa = run_sa(c, so);
  EXPECT_TRUE(sa.deadline_hit);
  if (sa.ok()) {
    EXPECT_TRUE(sa.legal(1e-6));
  }
}

// The validator itself: every expect_invalid adversary is rejected with a
// non-empty actionable message; every valid one passes clean.
TEST(FaultInjectionTest, ValidatorClassifiesTheGallery) {
  for (const Adversary& adv : adversarial_circuits()) {
    const aplace::Status s = netlist::validate(adv.circuit);
    if (adv.expect_invalid) {
      EXPECT_FALSE(s.ok()) << "'" << adv.name << "' should be invalid";
      EXPECT_EQ(s.code(), aplace::StatusCode::InvalidInput);
      EXPECT_FALSE(s.message().empty());
    } else {
      EXPECT_TRUE(s.ok()) << "'" << adv.name << "': " << s.to_string();
    }
  }
}

}  // namespace
}  // namespace aplace::core
