// Thread-count determinism of the placement flows. The parallelism layers
// (candidate fan-out, density/wirelength hot loops, the batch driver) are
// designed so a fixed seed gives bit-identical quality for ANY pool size:
// chunk boundaries depend only on range size + grain, reductions happen in
// chunk order, and every concurrent unit draws from its own split RNG
// stream. These tests pin that contract at 1, 2, and 8 threads.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <vector>

#include "base/fnv.hpp"
#include "base/thread_pool.hpp"
#include "circuits/testcases.hpp"
#include "core/batch.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"
#include "io/netlist_io.hpp"
#include "legal/ilp_detailed.hpp"
#include "numeric/rng.hpp"
#include "obs/obs.hpp"
#include "sa/annealer.hpp"

namespace {

using namespace aplace;

constexpr unsigned kThreadCounts[] = {1, 2, 8};

// Restore the default global pool afterwards so other tests (and test
// order) are unaffected.
class DeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    base::ThreadPool::set_global_threads(base::ThreadPool::default_threads());
  }
};

void expect_same_quality(const netlist::QualityReport& a,
                         const netlist::QualityReport& b,
                         const char* what, unsigned threads) {
  EXPECT_EQ(a.hpwl, b.hpwl) << what << " at " << threads << " threads";
  EXPECT_EQ(a.area, b.area) << what << " at " << threads << " threads";
  EXPECT_EQ(a.overlap_area, b.overlap_area)
      << what << " at " << threads << " threads";
}

TEST_F(DeterminismTest, EPlaceAIdenticalAcrossThreadCounts) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  core::EPlaceAOptions opts;
  opts.candidates = 3;  // exercise the concurrent candidate fan-out
  opts.gp.seed = 11;

  std::vector<core::FlowResult> results;
  for (unsigned threads : kThreadCounts) {
    base::ThreadPool::set_global_threads(threads);
    results.push_back(core::run_eplace_a(tc.circuit, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_same_quality(results[0].quality, results[i].quality, "eplace-a",
                        kThreadCounts[i]);
    EXPECT_EQ(results[0].fallback, results[i].fallback);
  }
}

TEST_F(DeterminismTest, IlpPlacerIdenticalAcrossThreadCounts) {
  // solve_milp solves the x- and y-blocks of every ILP round separately and
  // merges them in block order; the legalized placement must not depend on
  // the pool size.
  circuits::TestCase tc = circuits::make_testcase("VCO2");
  const netlist::Circuit& c = tc.circuit;
  sa::SaOptions sopts;
  sopts.max_moves = 3000;
  const netlist::Placement seed = sa::SaPlacer(c, sopts).place().placement;
  const std::size_t n = c.num_devices();
  std::vector<double> v(2 * n);
  numeric::Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = seed.position(DeviceId{i});
    v[i] = p.x + rng.normal(0, 1.0);  // perturb into overlap
    v[n + i] = p.y + rng.normal(0, 1.0);
  }

  std::vector<legal::IlpResult> results;
  for (unsigned threads : {1u, 4u}) {
    base::ThreadPool::set_global_threads(threads);
    results.push_back(legal::IlpDetailedPlacer(c).place(v));
  }
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(io::placement_to_text(results[0].placement),
            io::placement_to_text(results[1].placement));
  EXPECT_EQ(results[0].objective, results[1].objective);
  EXPECT_EQ(results[0].bb_nodes, results[1].bb_nodes);
  EXPECT_EQ(results[0].snapped, results[1].snapped);
}

TEST_F(DeterminismTest, PriorWorkIdenticalAcrossThreadCounts) {
  circuits::TestCase tc = circuits::make_testcase("CM-OTA1");
  core::PriorWorkOptions opts;
  opts.gp.seed = 5;

  std::vector<core::FlowResult> results;
  for (unsigned threads : kThreadCounts) {
    base::ThreadPool::set_global_threads(threads);
    results.push_back(core::run_prior_work(tc.circuit, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_same_quality(results[0].quality, results[i].quality, "prior-work",
                        kThreadCounts[i]);
  }
}

TEST_F(DeterminismTest, SimdKernelsIdenticalAcrossThreadCounts) {
  // The Vec4d kernels (wirelength, density splat/force, FFT) honor the
  // thread-count contract: per-net/per-device work is independent and the
  // reductions run in chunk order, so the flow is bit-identical at 1/2/8
  // threads down to the placement text.
  circuits::TestCase tc = circuits::make_testcase("VCO2");
  core::EPlaceAOptions opts;
  opts.candidates = 2;
  opts.gp.seed = 11;

  std::vector<core::FlowResult> results;
  for (unsigned threads : kThreadCounts) {
    base::ThreadPool::set_global_threads(threads);
    results.push_back(core::run_eplace_a(tc.circuit, opts));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    expect_same_quality(results[0].quality, results[i].quality, "eplace-simd",
                        kThreadCounts[i]);
    EXPECT_EQ(io::placement_to_text(results[0].placement),
              io::placement_to_text(results[i].placement))
        << "placement bits moved at " << kThreadCounts[i] << " threads";
  }
}

TEST_F(DeterminismTest, ObsDisabledBitIdenticalAcrossFullCircuitRegistry) {
  // The observability layer is observation-only: toggling it must not move
  // a single placement bit. Pinned on every built-in circuit with the
  // analytical prior-work flow (cheap enough to sweep the registry), using
  // the exact-double placement serialization so one changed coordinate bit
  // fails the test.
  struct EnabledGuard {
    bool saved = obs::enabled();
    ~EnabledGuard() { obs::set_enabled(saved); }
  } guard;

  for (const std::string& name : circuits::testcase_names()) {
    circuits::TestCase tc = circuits::make_testcase(name);
    core::PriorWorkOptions opts;
    opts.gp.seed = 3;

    obs::set_enabled(true);
    const core::FlowResult on = core::run_prior_work(tc.circuit, opts);
    obs::set_enabled(false);
    const core::FlowResult off = core::run_prior_work(tc.circuit, opts);
    obs::set_enabled(true);

    EXPECT_EQ(io::placement_to_text(on.placement),
              io::placement_to_text(off.placement))
        << name << ": placement moved when observability was toggled";
    expect_same_quality(on.quality, off.quality, name.c_str(), 1);
    EXPECT_EQ(on.spans.empty(), false) << name;
    EXPECT_EQ(off.spans.empty(), true) << name;
  }
}

TEST_F(DeterminismTest, ObsDisabledBitIdenticalForSaFlow) {
  // Same contract for the annealer path (counter flushes, the chain span,
  // incremental-evaluator stats).
  struct EnabledGuard {
    bool saved = obs::enabled();
    ~EnabledGuard() { obs::set_enabled(saved); }
  } guard;

  circuits::TestCase tc = circuits::make_testcase("VGA");
  core::SaFlowOptions opts;
  opts.sa.seed = 21;
  opts.sa.max_moves = 3000;

  obs::set_enabled(true);
  const core::FlowResult on = core::run_sa(tc.circuit, opts);
  obs::set_enabled(false);
  const core::FlowResult off = core::run_sa(tc.circuit, opts);
  obs::set_enabled(true);

  EXPECT_EQ(io::placement_to_text(on.placement),
            io::placement_to_text(off.placement));
  expect_same_quality(on.quality, off.quality, "sa-obs-toggle", 1);
}

TEST_F(DeterminismTest, GoldenQualityPinnedAcrossFullCircuitRegistry) {
  // Committed golden values: run_prior_work at gp.seed=3 on every registry
  // circuit must reproduce these doubles *exactly* (EXPECT_EQ, no
  // tolerance). Catches cross-version drift the thread-count tests above
  // cannot see — they only compare a binary against itself. If an
  // intentional algorithm change moves these numbers, regenerate the table
  // with the same flow/seed and say so in the commit message.
  //
  // Every Vec4d backend rounds the same way and the build disables FMA
  // contraction, so one table holds on the scalar, SSE2 and AVX2 builds.
  struct Golden {
    const char* name;
    double hpwl, area, overlap_area;
  };
  constexpr Golden kGolden[] = {
      {"Adder", 59.199999999999996, 72, 0},
      {"CC-OTA", 83.400000000000006, 168, 0},
      {"Comp1", 78.900000000000006, 117, 0},
      {"Comp2", 146.80000000000001, 266, 0},
      {"CM-OTA1", 74.699999999999989, 132, 0},
      {"CM-OTA2", 104.40000000000001, 204, 0},
      {"SCF", 352.50000000000006, 1935, 0},
      {"VGA", 105.09999999999999, 208, 0},
      {"VCO1", 212.5, 374, 0},
      {"VCO2", 391.19999999999999, 812, 0},
  };
  ASSERT_EQ(std::size(kGolden), circuits::testcase_names().size());

  for (const Golden& g : kGolden) {
    circuits::TestCase tc = circuits::make_testcase(g.name);
    core::PriorWorkOptions opts;
    opts.gp.seed = 3;
    const core::FlowResult r = core::run_prior_work(tc.circuit, opts);
    ASSERT_TRUE(r.ok()) << g.name;
    EXPECT_TRUE(r.legal(1e-6)) << g.name;
    EXPECT_EQ(r.quality.hpwl, g.hpwl) << g.name;
    EXPECT_EQ(r.quality.area, g.area) << g.name;
    EXPECT_EQ(r.quality.overlap_area, g.overlap_area) << g.name;
  }
}

TEST_F(DeterminismTest, GoldenEPlaceAQualityPinned) {
  // The prior-work goldens above run LSE wirelength plus bell density; this
  // table pins the ePlace-A path (electrostatic splat/force, the FFT
  // Poisson solve, the ILP legalizer) exactly, at gp.seed=7 with default
  // options. Same cross-build contract and regeneration rule as above.
  struct Golden {
    const char* name;
    double hpwl, area;
  };
  constexpr Golden kGolden[] = {
      {"Adder", 53.549999999999997, 56},
      {"CC-OTA", 101.40000000000001, 135},
      {"CM-OTA1", 76.200000000000003, 120},
      {"Comp2", 171.70000000000002, 182},
  };
  for (const Golden& g : kGolden) {
    circuits::TestCase tc = circuits::make_testcase(g.name);
    core::EPlaceAOptions opts;
    opts.gp.seed = 7;
    const core::FlowResult r = core::run_eplace_a(tc.circuit, opts);
    ASSERT_TRUE(r.ok()) << g.name;
    EXPECT_TRUE(r.legal(1e-6)) << g.name;
    EXPECT_EQ(r.quality.hpwl, g.hpwl) << g.name;
    EXPECT_EQ(r.quality.area, g.area) << g.name;
  }
}

TEST_F(DeterminismTest, GoldenSaQualityPinned) {
  // Plain run_sa at default options on Adder: max_moves 0, so the run
  // ends on the stop-temperature ratio, and the constraint weight enters
  // every cost. Same cross-build contract and regeneration rule as above.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  const core::FlowResult r = core::run_sa(tc.circuit);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_EQ(r.quality.hpwl, 49.149999999999999);
  EXPECT_EQ(r.quality.area, 48);
  EXPECT_EQ(base::fnv1a64(io::placement_to_text(r.placement)),
            10763793568902481928ULL);
}

TEST_F(DeterminismTest, PerfContextIdenticalAcrossThreadCounts) {
  // build_perf_context samples, labels and trains on the pool: the dataset
  // threshold, the training report and every trained weight are the same
  // at any pool size (flow_test's quick dataset).
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  core::DatasetOptions data;
  data.random_samples = 120;
  data.optimized_samples = 4;
  data.sa_moves_per_sample = 500;
  gnn::TrainOptions train;
  train.epochs = 60;

  std::vector<std::unique_ptr<core::PerfContext>> ctxs;
  for (unsigned threads : kThreadCounts) {
    base::ThreadPool::set_global_threads(threads);
    ctxs.push_back(
        core::build_perf_context(tc.circuit, tc.spec, data, train));
  }
  const core::PerfContext& a = *ctxs[0];
  for (std::size_t i = 1; i < ctxs.size(); ++i) {
    const core::PerfContext& b = *ctxs[i];
    const unsigned threads = kThreadCounts[i];
    EXPECT_EQ(a.label_threshold, b.label_threshold) << threads;
    EXPECT_EQ(a.training.final_loss, b.training.final_loss) << threads;
    EXPECT_EQ(a.training.train_accuracy, b.training.train_accuracy)
        << threads;
    EXPECT_EQ(a.training.validation_accuracy, b.training.validation_accuracy)
        << threads;
    EXPECT_EQ(a.training.epochs_run, b.training.epochs_run) << threads;
    EXPECT_EQ(a.net.parameters(), b.net.parameters()) << threads;
  }
}

TEST_F(DeterminismTest, BatchResultsIdenticalSequentialVsParallel) {
  circuits::TestCase a = circuits::make_testcase("Adder");
  circuits::TestCase b = circuits::make_testcase("CC-OTA");
  std::vector<core::BatchJob> jobs;
  for (const netlist::Circuit* c : {&a.circuit, &b.circuit}) {
    core::BatchJob ep;
    ep.circuit = c;
    ep.flow = core::FlowKind::EPlaceA;
    ep.eplace.candidates = 2;
    jobs.push_back(ep);
    core::BatchJob sa_job;
    sa_job.circuit = c;
    sa_job.flow = core::FlowKind::Sa;
    sa_job.sa.sa.max_moves = 2000;
    jobs.push_back(sa_job);
  }

  base::ThreadPool::set_global_threads(1);
  core::BatchOptions seq;
  seq.parallel = false;
  const core::BatchReport r1 = core::run_batch(jobs, seq);

  base::ThreadPool::set_global_threads(8);
  const core::BatchReport r8 = core::run_batch(jobs, {});

  ASSERT_EQ(r1.items.size(), r8.items.size());
  for (std::size_t i = 0; i < r1.items.size(); ++i) {
    expect_same_quality(r1.items[i].result.quality,
                        r8.items[i].result.quality, "batch", 8);
    EXPECT_EQ(r1.items[i].result.ok(), r8.items[i].result.ok());
  }
  EXPECT_EQ(r1.num_ok, r1.items.size());
}

}  // namespace
