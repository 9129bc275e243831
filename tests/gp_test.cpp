// Global placement: constraint-penalty gradients against finite
// differences, symmetry projection, and end-to-end behaviour of both GP
// engines (spreading, constraint satisfaction trends, extra-term hooks).

#include <gtest/gtest.h>

#include <vector>

#include "circuits/testcases.hpp"
#include "gp/eplace_gp.hpp"
#include "gp/ntu_gp.hpp"
#include "gp/penalties.hpp"
#include "netlist/placement.hpp"
#include "test_util.hpp"

namespace aplace::gp {
namespace {

std::vector<double> irregular_positions(const netlist::Circuit& c) {
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = 2.3 * static_cast<double>(i % 4) + 0.31 * static_cast<double>(i);
    v[n + i] =
        1.9 * static_cast<double>(i / 4) + 0.17 * static_cast<double>(i % 7);
  }
  return v;
}

class PenaltyGradientTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(PenaltyGradientTest, MatchesFiniteDifference) {
  const std::string kind = GetParam();
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(c);
  const std::vector<double> v = irregular_positions(c);
  const geom::Rect region{0.5, 0.5, 6.0, 5.0};  // forces boundary hinges on

  auto eval = [&](const std::vector<double>& x, std::vector<double>* g) {
    std::vector<double> tmp(x.size(), 0.0);
    double val = 0;
    if (kind == "symmetry") val = pen.symmetry(x, tmp, 1.0);
    else if (kind == "alignment") val = pen.alignment(x, tmp, 1.0);
    else if (kind == "ordering") val = pen.ordering(x, tmp, 1.0);
    else val = pen.boundary(x, tmp, 1.0, region);
    if (g) *g = tmp;
    return val;
  };

  std::vector<double> grad;
  eval(v, &grad);
  const auto fd = test::numeric_gradient(
      [&](const std::vector<double>& x) { return eval(x, nullptr); }, v);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    EXPECT_NEAR(grad[i], fd[i], 1e-4 + 1e-4 * std::abs(fd[i]))
        << kind << " index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, PenaltyGradientTest,
                         ::testing::Values("symmetry", "alignment",
                                           "ordering", "boundary"));

TEST(PenaltiesTest, SymmetryZeroAtSymmetricState) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(c);
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n, 0.0);
  // A, B mirrored about x=5 at equal y; S centered.
  v[c.find_device("A").index()] = 3;
  v[c.find_device("B").index()] = 7;
  v[n + c.find_device("A").index()] = 2;
  v[n + c.find_device("B").index()] = 2;
  v[c.find_device("S").index()] = 5;
  v[c.find_device("R1").index()] = 1;
  v[c.find_device("R2").index()] = 9;
  std::vector<double> g(2 * n, 0.0);
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-12);
}

TEST(PenaltiesTest, ProjectionZeroesSymmetryPenalty) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(c);
  std::vector<double> v = irregular_positions(c);
  std::vector<double> g(v.size(), 0.0);
  EXPECT_GT(pen.symmetry(v, g, 1.0), 0.0);
  pen.project_symmetry(v);
  std::fill(g.begin(), g.end(), 0.0);
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-12);
}

TEST(PenaltiesTest, BoundaryZeroInside) {
  const netlist::Circuit c = test::constrained_circuit();
  const ConstraintPenalties pen(c);
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n, 50.0);  // all well inside a huge region
  std::vector<double> g(2 * n, 0.0);
  EXPECT_DOUBLE_EQ(pen.boundary(v, g, 1.0, {0, 0, 100, 100}), 0.0);
  for (double x : g) EXPECT_DOUBLE_EQ(x, 0.0);
}

// --- ePlace GP ---------------------------------------------------------------

TEST(EPlaceGpTest, SpreadsAndKeepsDevicesNearRegion) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  const GpResult r = placer.run();
  ASSERT_EQ(r.positions.size(), 2 * tc.circuit.num_devices());
  EXPECT_GT(r.iterations, kMinIters);

  netlist::Placement pl(tc.circuit);
  const std::size_t n = tc.circuit.num_devices();
  for (std::size_t i = 0; i < n; ++i) {
    pl.set_position(DeviceId{i}, {r.positions[i], r.positions[n + i]});
  }
  // Residual overlap far below the fully-stacked initial state.
  EXPECT_LT(pl.total_overlap_area(), 0.5 * tc.circuit.total_device_area());
  // Devices stay within (or very near) the placement region.
  const geom::Rect region = placer.region().inflated(2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(region.contains(pl.position(DeviceId{i})))
        << tc.circuit.device(DeviceId{i}).name;
  }
}

TEST(EPlaceGpTest, DeterministicForSeed) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  const GpResult a = EPlaceGlobalPlacer(tc.circuit, opts).run();
  const GpResult b = EPlaceGlobalPlacer(tc.circuit, opts).run();
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(EPlaceGpTest, HardSymmetryProducesExactMirrors) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.hard_symmetry = true;
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  const GpResult r = placer.run();
  const ConstraintPenalties pen(tc.circuit);
  std::vector<double> g(r.positions.size(), 0.0);
  std::vector<double> v = r.positions;
  EXPECT_NEAR(pen.symmetry(v, g, 1.0), 0.0, 1e-9);
}

TEST(EPlaceGpTest, SoftSymmetryNearlySymmetric) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  const GpResult r = placer.run();
  const ConstraintPenalties pen(tc.circuit);
  std::vector<double> g(r.positions.size(), 0.0);
  std::vector<double> v = r.positions;
  // Soft constraints: small but not necessarily zero residual, relative to
  // the layout scale.
  const double residual = pen.symmetry(v, g, 1.0);
  EXPECT_LT(residual, tc.circuit.total_device_area());
}

TEST(EPlaceGpTest, ExtraTermReceivesCalls) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.max_iters = 40;
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  int calls = 0;
  placer.set_extra_term(std::make_shared<FunctionTerm>(
      "extra", [&](std::span<const double>, std::span<double>) {
        ++calls;
        return 0.0;
      }));
  (void)placer.run();
  EXPECT_GT(calls, 10);
}

TEST(EPlaceGpTest, LseSmoothingOptionRuns) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.smoothing = WlSmoothing::LogSumExp;
  const GpResult r = EPlaceGlobalPlacer(tc.circuit, opts).run();
  EXPECT_GT(r.hpwl, 0.0);
}

// --- prior-work GP --------------------------------------------------------------

TEST(NtuGpTest, RunsAndReducesWirelength) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  NtuGpOptions opts;
  PriorAnalyticalGlobalPlacer placer(tc.circuit, opts);
  const GpResult r = placer.run();
  ASSERT_EQ(r.positions.size(), 2 * tc.circuit.num_devices());
  // Wirelength should beat a naive row placement by a wide margin.
  netlist::Placement rows(tc.circuit);
  double x = 0;
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    const netlist::Device& d = tc.circuit.device(DeviceId{i});
    rows.set_position(DeviceId{i}, {x + d.width / 2, d.height / 2});
    x += d.width;
  }
  EXPECT_LT(r.hpwl, rows.total_hpwl());
}

TEST(NtuGpTest, Deterministic) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const GpResult a = PriorAnalyticalGlobalPlacer(tc.circuit, {}).run();
  const GpResult b = PriorAnalyticalGlobalPlacer(tc.circuit, {}).run();
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.positions[i], b.positions[i]);
  }
}

// --- mid-run cancellation ---------------------------------------------------
// An extra term that requests the cancel on its k-th call, i.e. inside a
// running solver loop. The loop must stop at its next per-iteration poll of
// the Deadline: at most one iteration's worth of further evaluations.

constexpr int kCancelAtCall = 30;

std::shared_ptr<ObjectiveTerm> cancelling_extra(const base::CancelToken& cancel,
                                                int& calls) {
  return std::make_shared<FunctionTerm>(
      "extra", [&calls, cancel](std::span<const double>, std::span<double>) {
        if (++calls == kCancelAtCall) cancel.request_cancel();
        return 0.0;
      });
}

TEST(GpCancelTest, NesterovStopsWithinOneIteration) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const base::CancelToken cancel = base::CancelToken::make_cancellable();
  EPlaceGpOptions opts;
  opts.num_starts = 1;
  opts.deadline = Deadline{}.with_cancel(cancel);
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  int calls = 0;
  placer.set_extra_term(cancelling_extra(cancel, calls));
  const GpResult r = placer.run();
  EXPECT_TRUE(r.deadline_hit);
  // One Nesterov iteration: the trial, up to 10 backtracking halvings and
  // one watchdog restart.
  EXPECT_LE(calls - kCancelAtCall, 12);
}

TEST(GpCancelTest, CgStopsWithinOneIteration) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  const base::CancelToken cancel = base::CancelToken::make_cancellable();
  NtuGpOptions opts;
  opts.deadline = Deadline{}.with_cancel(cancel);
  PriorAnalyticalGlobalPlacer placer(tc.circuit, opts);
  int calls = 0;
  placer.set_extra_term(cancelling_extra(cancel, calls));
  const GpResult r = placer.run();
  EXPECT_TRUE(r.deadline_hit);
  // One CG iteration: up to 20 line-search trials and one watchdog restart.
  EXPECT_LE(calls - kCancelAtCall, 21);
}

// --- term weight traces -----------------------------------------------------
// Each placer's calibration and growth schedule, read back from its
// TermTrace: per term, the name, the eval count, the final weight and the
// weight at the first sample, plus the sample stride. Exact, so any change
// to the calibration order, the tied weights or the growth factors shows.

struct TermPin {
  const char* name;
  std::uint64_t evals;
  double weight;        ///< final weight
  double first_weight;  ///< samples.front().weights
};

void expect_trace(const TermTrace& t, int stride,
                  const std::vector<TermPin>& pins) {
  ASSERT_EQ(t.terms.size(), pins.size());
  ASSERT_FALSE(t.samples.empty());
  ASSERT_EQ(t.samples.front().weights.size(), pins.size());
  EXPECT_EQ(t.sample_stride, stride);
  for (std::size_t i = 0; i < pins.size(); ++i) {
    EXPECT_EQ(t.terms[i].name, pins[i].name) << i;
    EXPECT_EQ(t.terms[i].evals, pins[i].evals) << pins[i].name;
    EXPECT_EQ(t.terms[i].weight, pins[i].weight) << pins[i].name;
    EXPECT_EQ(t.samples.front().weights[i], pins[i].first_weight)
        << pins[i].name;
  }
}

// A smooth, non-negative stand-in for the GNN term.
std::shared_ptr<ObjectiveTerm> quadratic_extra() {
  return std::make_shared<FunctionTerm>(
      "extra", [](std::span<const double> v, std::span<double> grad) {
        double f = 0;
        for (std::size_t i = 0; i < v.size(); ++i) {
          f += 1e-3 * v[i] * v[i];
          grad[i] += 2e-3 * v[i];
        }
        return f;
      });
}

TermTrace eplace_trace(const EPlaceGpOptions& opts, bool extra) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceGlobalPlacer placer(tc.circuit, opts);
  if (extra) placer.set_extra_term(quadratic_extra());
  return placer.run().trace;
}

TermTrace ntu_trace(bool extra) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  PriorAnalyticalGlobalPlacer placer(tc.circuit, {});
  if (extra) placer.set_extra_term(quadratic_extra());
  return placer.run().trace;
}

TEST(GpWeightTraceTest, EPlaceDefault) {
  expect_trace(eplace_trace({}, false), 16,
               {
                   {"wirelength", 1619, 0x1p+0, 0x1p+0},
                   {"density", 1622, 0x1.fbc261f61e24dp+6,
                    0x1.ac88eafabb242p-9},
                   {"symmetry", 1619, 0x1.14608e747e08fp+14,
                    0x1.5c3f995e2221dp-5},
                   {"common-centroid", 1616, 0x1.14608e747e08fp+14,
                    0x1.5c3f995e2221dp-5},
                   {"area", 1619, 0x1.0ae0bf9efcaacp+3, 0x1.0b3f4204fd189p+3},
                   {"alignment", 1616, 0x1.14608e747e08fp+15,
                    0x1.5c3f995e2221dp-4},
                   {"ordering", 1616, 0x1.14608e747e08fp+15,
                    0x1.5c3f995e2221dp-4},
                   {"boundary", 1616, 0x1.074d45438692cp+1,
                    0x1.0752c501ff674p+1}
               });
}

TEST(GpWeightTraceTest, EPlaceHardSymmetry) {
  EPlaceGpOptions opts;
  opts.hard_symmetry = true;
  expect_trace(eplace_trace(opts, false), 32,
               {
                   {"wirelength", 3418, 0x1p+0, 0x1p+0},
                   {"density", 3421, 0x1.25497d5cdbba5p+3,
                    0x1.ac88eafabb242p-9},
                   {"symmetry", 3418, 0x1.0482ee32e304ep+1,
                    0x1.059ada497b7c8p+1},
                   {"common-centroid", 3415, 0x1.0482ee32e304ep+1,
                    0x1.059ada497b7c8p+1},
                   {"area", 3418, 0x1.0ae0bf9efcaacp+3, 0x1.0b3f4204fd189p+3},
                   {"alignment", 3415, 0x1.4d7464182cd3p-2,
                    0x1.4edab101e5be1p-2},
                   {"ordering", 3415, 0x1.4d7464182cd3p-2,
                    0x1.4edab101e5be1p-2},
                   {"boundary", 3415, 0x1.074d45438692cp+1,
                    0x1.0752c501ff674p+1}
               });
}

TEST(GpWeightTraceTest, EPlaceLse) {
  EPlaceGpOptions opts;
  opts.smoothing = WlSmoothing::LogSumExp;
  expect_trace(eplace_trace(opts, false), 16,
               {
                   {"wirelength", 1608, 0x1p+0, 0x1p+0},
                   {"density", 1611, 0x1.ff7ce5b1ad48fp+5,
                    0x1.b33ae2a436869p-10},
                   {"symmetry", 1608, 0x1.18b0b61eb8256p+13,
                    0x1.61b073fff219fp-6},
                   {"common-centroid", 1605, 0x1.18b0b61eb8256p+13,
                    0x1.61b073fff219fp-6},
                   {"area", 1608, 0x1.0f0af3f739488p+2, 0x1.0f6c239afb3aep+2},
                   {"alignment", 1605, 0x1.18b0b61eb8256p+14,
                    0x1.61b073fff219fp-5},
                   {"ordering", 1605, 0x1.18b0b61eb8256p+14,
                    0x1.61b073fff219fp-5},
                   {"boundary", 1605, 0x1.0b69302e4a1e1p+0,
                    0x1.0b6ff50b1a2b4p+0}
               });
}

TEST(GpWeightTraceTest, EPlaceWithoutAreaTerm) {
  EPlaceGpOptions opts;
  opts.eta_rel = 0;
  expect_trace(eplace_trace(opts, false), 8,
               {
                   {"wirelength", 1008, 0x1p+0, 0x1p+0},
                   {"density", 1011, 0x1.5e9d92f699cadp+1,
                    0x1.ac88eafabb242p-9},
                   {"symmetry", 1008, 0x1.6797da762b7adp+7,
                    0x1.5c3f995e2221dp-5},
                   {"common-centroid", 1005, 0x1.6797da762b7adp+7,
                    0x1.5c3f995e2221dp-5},
                   {"area", 0, 0x0p+0, 0x0p+0},
                   {"alignment", 1005, 0x1.6797da762b7adp+8,
                    0x1.5c3f995e2221dp-4},
                   {"ordering", 1005, 0x1.6797da762b7adp+8,
                    0x1.5c3f995e2221dp-4},
                   {"boundary", 1005, 0x1.074d45438692cp+1,
                    0x1.0752c501ff674p+1}
               });
}

TEST(GpWeightTraceTest, EPlaceWithExtraTerm) {
  expect_trace(eplace_trace({}, true), 16,
               {
                   {"wirelength", 2737, 0x1p+0, 0x1p+0},
                   {"density", 2740, 0x1.a86d03f68a702p+14,
                    0x1.ac88eafabb242p-9},
                   {"symmetry", 2737, 0x1.22b5b2e4bd65p+21,
                    0x1.5c3f995e2221dp-5},
                   {"common-centroid", 2734, 0x1.22b5b2e4bd65p+21,
                    0x1.5c3f995e2221dp-5},
                   {"area", 2737, 0x1.0ae0bf9efcaacp+3, 0x1.0b3f4204fd189p+3},
                   {"alignment", 2734, 0x1.22b5b2e4bd65p+22,
                    0x1.5c3f995e2221dp-4},
                   {"ordering", 2734, 0x1.22b5b2e4bd65p+22,
                    0x1.5c3f995e2221dp-4},
                   {"boundary", 2734, 0x1.074d45438692cp+1,
                    0x1.0752c501ff674p+1},
                   {"extra", 2737, 0x1.0035638108ad8p+6, 0x1.003de24676143p+6}
               });
}

TEST(GpWeightTraceTest, Prior) {
  expect_trace(ntu_trace(false), 1,
               {
                   {"wirelength", 1642, 0x1p+0, 0x1p+0},
                   {"density", 1642, 0x1.71b6a809cefacp+1,
                    0x1.71b6a809cefacp-9},
                   {"symmetry", 1642, 0x1.2fef6c64cfecp+0,
                    0x1.51532f47e6e83p-6},
                   {"common-centroid", 1641, 0x1.2fef6c64cfecp+0,
                    0x1.51532f47e6e83p-6},
                   {"alignment", 1641, 0x1.2fef6c64cfecp+1,
                    0x1.51532f47e6e83p-5},
                   {"ordering", 1641, 0x1.2fef6c64cfecp+1,
                    0x1.51532f47e6e83p-5},
                   {"boundary", 1641, 0x1.0b6254ec05ae7p+0,
                    0x1.0b6254ec05ae7p+0}
               });
}

TEST(GpWeightTraceTest, PriorWithExtraTerm) {
  expect_trace(ntu_trace(true), 1,
               {
                   {"wirelength", 4848, 0x1p+0, 0x1p+0},
                   {"density", 4848, 0x1.71b6a809cefacp+1,
                    0x1.71b6a809cefacp-9},
                   {"symmetry", 4848, 0x1.2fef6c64cfecp+0,
                    0x1.51532f47e6e83p-6},
                   {"common-centroid", 4847, 0x1.2fef6c64cfecp+0,
                    0x1.51532f47e6e83p-6},
                   {"alignment", 4847, 0x1.2fef6c64cfecp+1,
                    0x1.51532f47e6e83p-5},
                   {"ordering", 4847, 0x1.2fef6c64cfecp+1,
                    0x1.51532f47e6e83p-5},
                   {"boundary", 4847, 0x1.0b6254ec05ae7p+0,
                    0x1.0b6254ec05ae7p+0},
                   {"extra", 4848, 0x1.043999f8d3ac7p+5, 0x1.043999f8d3ac7p+5}
               });
}

}  // namespace
}  // namespace aplace::gp
