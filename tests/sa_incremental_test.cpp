// Incremental SA cost engine: property tests against from-scratch
// recomputation on every circuit and the no-leaked-state contract of
// sample_random. (LCS-vs-naive packer identity is checked in sa_test.)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "circuits/testcases.hpp"
#include "netlist/evaluator.hpp"
#include "sa/annealer.hpp"
#include "test_util.hpp"

namespace aplace::sa {
namespace {

class IncrementalAllCircuitsTest
    : public ::testing::TestWithParam<std::string> {};

// The heart of the engine's correctness story: run randomized sequences of
// all five move kinds (sequence swaps, flips, island row swap/mirror) with
// random accept/reject, and after every move compare the incremental
// bookkeeping against (a) a from-scratch recompute of the cost and (b) a
// freshly realized placement of the committed representation. 1e-9 leaves
// room only for delta-accumulation rounding.
TEST_P(IncrementalAllCircuitsTest, MatchesFullRecomputeUnderRandomMoves) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  SaPlacer placer(tc.circuit, {});
  EXPECT_LE(placer.verify_incremental(101, 400), 1e-9);
  // A second run must be independent of the first (no leaked state).
  const double a = placer.verify_incremental(202, 200);
  const double b = SaPlacer(tc.circuit, {}).verify_incremental(202, 200);
  EXPECT_DOUBLE_EQ(a, b);
}

// The incremental engine must not change what the annealer produces in
// kind: legal placements with exact island symmetry.
TEST_P(IncrementalAllCircuitsTest, AnnealerStaysLegal) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  SaOptions opts;
  opts.seed = 31;
  opts.max_moves = 4000;
  const SaResult r = SaPlacer(tc.circuit, opts).place();
  const netlist::QualityReport q =
      netlist::Evaluator(tc.circuit).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "overlap=" << q.overlap_area
                             << " sym=" << q.symmetry_violation;
  EXPECT_GT(r.moves_per_second, 0.0);
  EXPECT_GT(r.eval_stats.evals, 0u);
  // The delta evaluator must actually skip work, not just match. Sequence
  // swaps cascade packing shifts to downstream blocks, so the average move
  // still dirties a large fraction of nets on the small circuits — but
  // never all of them.
  EXPECT_LT(r.eval_stats.net_eval_ratio(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, IncrementalAllCircuitsTest,
                         ::testing::ValuesIn(circuits::testcase_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

// IncrementalCost rules out unmoved nets and constraints with one bitmask
// AND only when there are at most 64 blocks; beyond that it walks every
// delta list. No testcase has more than 37 blocks, so a synthetic circuit
// of 72 single devices (a ring of two-pin nets, four nets spanning distant
// devices, an alignment and an ordering) checks that path against the same
// from-scratch recompute.
TEST(SaIncrementalTest, MatchesFullRecomputeBeyondSixtyFourBlocks) {
  constexpr std::size_t kDevices = 72;
  netlist::Circuit c("wide");
  std::vector<DeviceId> devs;
  std::vector<PinId> left, right;
  for (std::size_t i = 0; i < kDevices; ++i) {
    const double w = 1.0 + static_cast<double>(i % 4);
    const double h = 1.0 + static_cast<double>(i % 3);
    const DeviceId d =
        c.add_device("D" + std::to_string(i),
                     i % 2 == 0 ? netlist::DeviceType::Nmos
                                : netlist::DeviceType::Pmos,
                     w, h);
    devs.push_back(d);
    left.push_back(c.add_pin(d, "l", {0, h / 2}));
    right.push_back(c.add_pin(d, "r", {w, h / 2}));
  }
  for (std::size_t i = 0; i < kDevices; ++i) {
    c.add_net("c" + std::to_string(i), {right[i], left[(i + 1) % kDevices]});
  }
  for (std::size_t k = 0; k < 4; ++k) {
    std::vector<PinId> pins;
    for (std::size_t i = k; i < kDevices; i += 9) {
      pins.push_back(c.add_pin(devs[i], "m", {0.5, 0.5}));
    }
    c.add_net("m" + std::to_string(k), std::move(pins));
  }
  c.add_alignment({netlist::AlignmentKind::Bottom, devs[0], devs[70]});
  c.add_ordering({netlist::OrderDirection::LeftToRight, {devs[3], devs[40]}});
  c.finalize();

  SaPlacer placer(c, {});
  ASSERT_GT(placer.num_blocks(), 64u);
  EXPECT_LE(placer.verify_incremental(101, 400), 1e-9);
}

// sample_random used to permanently mutate the placer's island/orientation
// state, so annealing after sampling started from a different configuration
// than a fresh placer. Sampling now runs on dedicated copies: place() after
// heavy sampling matches a pristine placer exactly, and the samples drawn
// for a fixed rng are unchanged by an interleaved place().
TEST(SaIncrementalTest, SampleRandomDoesNotPerturbAnnealing) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  SaOptions opts;
  opts.seed = 7;
  opts.max_moves = 2000;

  SaPlacer sampled(tc.circuit, opts);
  numeric::Rng rng(41);
  for (int k = 0; k < 8; ++k) (void)sampled.sample_random(rng);
  const SaResult after_sampling = sampled.place();
  const SaResult fresh = SaPlacer(tc.circuit, opts).place();
  EXPECT_DOUBLE_EQ(after_sampling.cost, fresh.cost);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(after_sampling.placement.position(DeviceId{i}),
              fresh.placement.position(DeviceId{i}));
  }

  // Sampling sequence is a function of the rng alone.
  SaPlacer s1(tc.circuit, opts);
  SaPlacer s2(tc.circuit, opts);
  numeric::Rng r1(77), r2(77);
  (void)s1.sample_random(r1);
  (void)s2.sample_random(r2);
  (void)s2.place();  // must not disturb the sampling stream
  const netlist::Placement p1 = s1.sample_random(r1);
  const netlist::Placement p2 = s2.sample_random(r2);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(p1.position(DeviceId{i}), p2.position(DeviceId{i}));
  }
}

}  // namespace
}  // namespace aplace::sa
