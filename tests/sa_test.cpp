// Simulated-annealing placer: sequence-pair packing properties, symmetry
// islands, annealer legality/determinism/improvement.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "circuits/testcases.hpp"
#include "kernel_oracle.hpp"
#include "netlist/evaluator.hpp"
#include "sa/annealer.hpp"
#include "sa/island.hpp"
#include "sa/sequence_pair.hpp"
#include "test_util.hpp"

namespace aplace::sa {
namespace {

TEST(SequencePairTest, IdentityPacksInRow) {
  // (abc, abc) = all left-of relations -> a row.
  SequencePair sp(3);
  const std::vector<double> w{2, 3, 4}, h{1, 1, 1};
  const auto pk = sp.pack(w, h);
  EXPECT_DOUBLE_EQ(pk.x[0], 0);
  EXPECT_DOUBLE_EQ(pk.x[1], 2);
  EXPECT_DOUBLE_EQ(pk.x[2], 5);
  EXPECT_DOUBLE_EQ(pk.width, 9);
  EXPECT_DOUBLE_EQ(pk.height, 1);
}

TEST(SequencePairTest, ReversedMinusPacksInColumn) {
  // gamma+ = (0,1,2), gamma- = (2,1,0): 0 above 1 above 2.
  SequencePair sp(3);
  sp.swap_in_both(0, 2);           // gamma+ = 2,1,0 ; gamma- = 2,1,0
  sp.swap_in_plus(0, 2);           // gamma+ = 0,1,2 ; gamma- = 2,1,0
  const std::vector<double> w{2, 2, 2}, h{1, 2, 3};
  const auto pk = sp.pack(w, h);
  EXPECT_DOUBLE_EQ(pk.width, 2);
  EXPECT_DOUBLE_EQ(pk.height, 6);
}

TEST(SequencePairTest, RelationsAreConsistent) {
  SequencePair sp(4);
  numeric::Rng rng(9);
  sp.shuffle(rng);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = 0; b < 4; ++b) {
      if (a == b) continue;
      // Exactly one of: left_of(a,b), left_of(b,a), below(a,b), below(b,a).
      const int rel = sp.left_of(a, b) + sp.left_of(b, a) + sp.below(a, b) +
                      sp.below(b, a);
      EXPECT_EQ(rel, 1);
    }
  }
}

TEST(SequencePairTest, PackingNeverOverlapsProperty) {
  numeric::Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform_int(0, 6));
    SequencePair sp(n);
    sp.shuffle(rng);
    std::vector<double> w(n), h(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(0.5, 4.0);
      h[i] = rng.uniform(0.5, 4.0);
    }
    const auto pk = sp.pack(w, h);
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = a + 1; b < n; ++b) {
        const geom::Rect ra(pk.x[a], pk.y[a], pk.x[a] + w[a], pk.y[a] + h[a]);
        const geom::Rect rb(pk.x[b], pk.y[b], pk.x[b] + w[b], pk.y[b] + h[b]);
        EXPECT_FALSE(ra.overlaps(rb))
            << "trial " << trial << " blocks " << a << "," << b;
      }
    }
  }
}

TEST(SequencePairTest, LcsPackerMatchesNaiveBitForBit) {
  // The Tang-Wong LCS packer computes the same max/+ reductions over the
  // same operands as the naive longest-path packer, so coordinates must be
  // bit-identical — not merely close — on random instances.
  numeric::Rng rng(29);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 39));
    SequencePair sp(n);
    sp.shuffle(rng);
    std::vector<double> w(n), h(n);
    for (std::size_t i = 0; i < n; ++i) {
      w[i] = rng.uniform(0.25, 7.0);
      h[i] = rng.uniform(0.25, 7.0);
    }
    const auto fast = sp.pack(w, h);
    const auto naive = oracle::pack_naive(sp, w, h);
    EXPECT_DOUBLE_EQ(fast.width, naive.width) << "trial " << trial;
    EXPECT_DOUBLE_EQ(fast.height, naive.height) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(fast.x[i], naive.x[i]) << "trial " << trial;
      EXPECT_DOUBLE_EQ(fast.y[i], naive.y[i]) << "trial " << trial;
    }
  }
}

TEST(IslandTest, PairRowGeometry) {
  const netlist::Circuit c = test::constrained_circuit();
  const netlist::SymmetryGroup& g = c.constraints().symmetry_groups[0];
  Island island(c, g);
  // One pair row (2x2 + 2x2 = 4 wide) and one self row (4 wide).
  EXPECT_EQ(island.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(island.width(), 4);
  EXPECT_DOUBLE_EQ(island.height(), 2 + 2);

  // Members mirror exactly about the island axis (x = 2).
  for (const Island::Member& m : island.members()) {
    if (!c.device(m.device).name.starts_with("S")) continue;
    EXPECT_DOUBLE_EQ(m.center.x, 2.0);
  }
  const auto members = island.members();
  double ax = 0, bx = 0, ay = -1, by = -2;
  for (const auto& m : members) {
    if (c.device(m.device).name == "A") { ax = m.center.x; ay = m.center.y; }
    if (c.device(m.device).name == "B") { bx = m.center.x; by = m.center.y; }
  }
  EXPECT_DOUBLE_EQ(ax + bx, 4.0);
  EXPECT_DOUBLE_EQ(ay, by);
}

TEST(IslandTest, MirrorRowSwapsSides) {
  const netlist::Circuit c = test::constrained_circuit();
  Island island(c, c.constraints().symmetry_groups[0]);
  auto x_of = [&](const char* name) {
    for (const auto& m : island.members()) {
      if (c.device(m.device).name == name) return m.center.x;
    }
    return -1.0;
  };
  const double before = x_of("A");
  island.mirror_row(0);
  EXPECT_NE(x_of("A"), before);
  island.mirror_row(0);
  EXPECT_DOUBLE_EQ(x_of("A"), before);
}

TEST(IslandTest, SwapRowsKeepsExtent) {
  const netlist::Circuit c = test::constrained_circuit();
  Island island(c, c.constraints().symmetry_groups[0]);
  const double w = island.width(), h = island.height();
  island.swap_rows(0, 1);
  EXPECT_DOUBLE_EQ(island.width(), w);
  EXPECT_DOUBLE_EQ(island.height(), h);
}

TEST(SaPlacerTest, ProducesLegalPlacement) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  SaOptions opts;
  opts.seed = 5;
  opts.max_moves = 20000;
  SaPlacer placer(tc.circuit, opts);
  const SaResult r = placer.place();
  const netlist::QualityReport q =
      netlist::Evaluator(tc.circuit).evaluate(r.placement);
  EXPECT_TRUE(q.legal(1e-6)) << "overlap=" << q.overlap_area
                             << " sym=" << q.symmetry_violation;
  EXPECT_GT(r.moves_accepted, 0);
}

TEST(SaPlacerTest, DeterministicForSeed) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  SaOptions opts;
  opts.seed = 11;
  opts.max_moves = 5000;
  const SaResult a = SaPlacer(tc.circuit, opts).place();
  const SaResult b = SaPlacer(tc.circuit, opts).place();
  EXPECT_DOUBLE_EQ(a.cost, b.cost);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    EXPECT_EQ(a.placement.position(DeviceId{i}),
              b.placement.position(DeviceId{i}));
  }
}

TEST(SaPlacerTest, MoreBudgetDoesNotHurtMuch) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  SaOptions small, large;
  small.seed = large.seed = 3;
  small.max_moves = 2000;
  large.max_moves = 60000;
  const double cost_small = SaPlacer(tc.circuit, small).place().cost;
  const double cost_large = SaPlacer(tc.circuit, large).place().cost;
  EXPECT_LE(cost_large, cost_small * 1.05);
}

TEST(SaPlacerTest, SymmetryHoldsExactlyViaIslands) {
  circuits::TestCase tc = circuits::make_testcase("Comp2");
  SaOptions opts;
  opts.max_moves = 10000;
  const SaResult r = SaPlacer(tc.circuit, opts).place();
  const netlist::Evaluator ev(tc.circuit);
  for (const netlist::SymmetryGroup& g :
       tc.circuit.constraints().symmetry_groups) {
    EXPECT_NEAR(ev.symmetry_residual(r.placement, g), 0.0, 1e-9);
  }
}

TEST(SaPlacerTest, RandomSamplesAreLegalAndDiverse) {
  circuits::TestCase tc = circuits::make_testcase("VGA");
  SaPlacer placer(tc.circuit, {});
  numeric::Rng rng(23);
  const netlist::Evaluator ev(tc.circuit);
  double first_area = -1;
  bool diverse = false;
  for (int k = 0; k < 10; ++k) {
    const netlist::Placement pl = placer.sample_random(rng);
    const netlist::QualityReport q = ev.evaluate(pl);
    EXPECT_NEAR(q.overlap_area, 0.0, 1e-9);
    EXPECT_NEAR(q.symmetry_violation, 0.0, 1e-9);
    if (first_area < 0) first_area = q.area;
    else if (std::abs(q.area - first_area) > 1e-9) diverse = true;
  }
  EXPECT_TRUE(diverse);
}

// --- skipping extra_cost must not change a decision --------------------------

// A cheap, deterministic placement function in [0, 1): large enough next to
// the normalized area + wirelength cost that the cost without it and the
// full cost often fall on different sides of the Metropolis threshold.
double spread_term(const netlist::Placement& pl) {
  const std::size_t n = pl.positions().size();
  const geom::Point first = pl.positions().front();
  const double dx = first.x - pl.positions().back().x;
  const double dy = pl.position(DeviceId{n / 2}).y - first.y;
  const double d2 = dx * dx + 0.5 * dy * dy;
  return d2 / (1.0 + d2);
}

TEST(SaSkipTest, NonNegativeExtraCostSkipIsExactOnEveryCircuit) {
  long skips = 0;
  for (const std::string& name : circuits::testcase_names()) {
    const circuits::TestCase tc = circuits::make_testcase(name);
    for (std::uint64_t seed : {1u, 7u, 4099u}) {
      SaOptions opts;
      opts.seed = seed;
      opts.max_moves = 3000;
      opts.extra_cost = [](const netlist::Placement& pl) {
        return 0.3 * spread_term(pl);
      };
      skips += test::expect_matches_reference_anneal(
                   tc.circuit, opts, name + " seed " + std::to_string(seed))
                   .extra_cost_skips;
    }
  }
  EXPECT_GT(skips, 0);
}

TEST(SaSkipTest, InfiniteAndNanExtraCostSkipIsExact) {
  // +inf and NaN reject a move whatever u is; SA rejects such a move either
  // before the call or after it, never accepts it. The first 41 values
  // (initial state and T0 calibration, identical in both runs) stay finite
  // so that the schedule anneals at all.
  for (const char* name : {"CC-OTA", "Comp2"}) {
    const circuits::TestCase tc = circuits::make_testcase(name);
    SaOptions opts;
    opts.seed = 5;
    opts.max_moves = 3000;
    // Each run copies the callback, so each counts its own calls from 0.
    opts.extra_cost = [calls = 0](const netlist::Placement& pl) mutable {
      const double s = spread_term(pl);
      if (++calls <= 41) return s;
      const auto bucket = static_cast<int>(s * 16.0) % 4;
      if (bucket == 0) return std::numeric_limits<double>::infinity();
      if (bucket == 1) return std::numeric_limits<double>::quiet_NaN();
      return s;
    };
    const SaResult fast =
        test::expect_matches_reference_anneal(tc.circuit, opts, name);
    EXPECT_TRUE(std::isfinite(fast.cost)) << name;
    EXPECT_GT(fast.extra_cost_skips, 0) << name;
  }
}

TEST(SaSkipTest, PlainSaMatchesReferenceLoop) {
  // Without extra_cost the move loop tests the cost alone: the same chain
  // as the reference, and no extra-cost work counted.
  for (const char* name : {"CM-OTA2", "SCF", "VGA"}) {
    const circuits::TestCase tc = circuits::make_testcase(name);
    SaOptions opts;
    opts.seed = 9;
    opts.max_moves = 4000;
    test::expect_matches_reference_anneal(tc.circuit, opts, name);
  }
}

TEST(SaSkipTest, NegativeExtraCostFailsTheDebugCheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "APLACE_DCHECK is compiled out in NDEBUG builds";
#else
  const circuits::TestCase tc = circuits::make_testcase("Adder");
  SaOptions opts;
  opts.max_moves = 500;
  opts.extra_cost = [](const netlist::Placement&) { return -0.1; };
  EXPECT_THROW((void)SaPlacer(tc.circuit, opts).place(), CheckError);
#endif
}

}  // namespace
}  // namespace aplace::sa
