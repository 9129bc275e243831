// End-to-end flow integration: each method produces legal placements on
// paper testcases; performance-driven variants improve the GNN objective;
// ablation directions (area term, soft symmetry) match the paper.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "circuits/testcases.hpp"
#include "core/flow.hpp"
#include "core/perf_flow.hpp"
#include "kernel_oracle.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/span.hpp"
#include "sa/annealer.hpp"
#include "test_util.hpp"

namespace aplace::core {
namespace {

class ConventionalFlowTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ConventionalFlowTest, AllThreeMethodsLegal) {
  circuits::TestCase tc = circuits::make_testcase(GetParam());
  const netlist::Circuit& c = tc.circuit;

  EPlaceAOptions eopts;
  eopts.candidates = 1;  // keep the test fast
  const FlowResult ep = run_eplace_a(c, eopts);
  EXPECT_TRUE(ep.legal(1e-6)) << "ePlace-A illegal on " << GetParam();
  EXPECT_GT(ep.area(), 0);
  EXPECT_GT(ep.hpwl(), 0);

  const FlowResult pw = run_prior_work(c);
  EXPECT_TRUE(pw.legal(1e-6)) << "prior work illegal on " << GetParam();

  SaFlowOptions sopts;
  sopts.sa.max_moves = 30000;
  const FlowResult sa = run_sa(c, sopts);
  EXPECT_TRUE(sa.legal(1e-6)) << "SA illegal on " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Subset, ConventionalFlowTest,
                         ::testing::Values("Adder", "CC-OTA", "CM-OTA1",
                                           "VCO1"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(FlowTest, AreaTermAblationMatchesPaperDirection) {
  // Paper Fig. 2: dropping the area term inflates area substantially.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions with, without;
  with.candidates = without.candidates = 1;
  without.gp.eta_rel = 0.0;
  const FlowResult rw = run_eplace_a(tc.circuit, with);
  const FlowResult ro = run_eplace_a(tc.circuit, without);
  ASSERT_TRUE(rw.legal() && ro.legal());
  EXPECT_LT(rw.area(), ro.area() * 1.10)
      << "area term should not hurt area meaningfully";
}

TEST(FlowTest, HardSymmetryRunsAndStaysLegal) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.gp.hard_symmetry = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_TRUE(r.legal(1e-6));
}

TEST(FlowTest, RuntimesAreRecorded) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 1;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_GT(r.gp_seconds, 0);
  EXPECT_GT(r.dp_seconds, 0);
  EXPECT_GE(r.total_seconds, r.gp_seconds + r.dp_seconds - 1e-9);
}

TEST(FlowTest, AnalyticalFlowsCarryPerTermTraces) {
  // Both analytical placers run through CompositeObjective, so every
  // FlowResult must surface the per-term instrumentation; SA has no
  // gradient terms and stays empty.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions eopts;
  eopts.candidates = 2;  // exercise candidate trace aggregation too
  const FlowResult ep = run_eplace_a(tc.circuit, eopts);
  ASSERT_FALSE(ep.gp_trace.empty());
  for (const char* term : {"wirelength", "density", "boundary"}) {
    const gp::TermStats* st = ep.gp_trace.find(term);
    ASSERT_NE(st, nullptr) << term;
    EXPECT_GT(st->evals, 0u) << term;
  }
  EXPECT_GT(ep.gp_trace.total_seconds(), 0.0);
  EXPECT_FALSE(ep.gp_trace.samples.empty());

  const FlowResult pw = run_prior_work(tc.circuit);
  ASSERT_FALSE(pw.gp_trace.empty());
  EXPECT_NE(pw.gp_trace.find("wirelength"), nullptr);
  EXPECT_NE(pw.gp_trace.find("density"), nullptr);
  EXPECT_FALSE(pw.gp_trace.samples.empty());

  SaFlowOptions sopts;
  sopts.sa.max_moves = 5000;
  const FlowResult sa = run_sa(tc.circuit, sopts);
  EXPECT_TRUE(sa.gp_trace.empty());
}

// --- robustness: fallback chain, budgets, structured errors ---------------

TEST(FlowRobustnessTest, ForcedInfeasiblePrimaryRecoversViaFallback) {
  // The ISSUE's mandatory case: force the primary ILP to report infeasible
  // and require the chain to still deliver a legal placement with a
  // degraded FallbackLevel.
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_NE(r.fallback, FallbackLevel::None)
      << "primary was forced to fail; a fallback must have produced this";
}

TEST(FlowRobustnessTest, FullInjectedChainBottomsOutAtGreedyShift) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 1;
  opts.inject.fail_primary_dp = true;
  opts.inject.fail_rounded_lp = true;
  opts.inject.fail_two_stage = true;
  const FlowResult r = run_eplace_a(tc.circuit, opts);
  EXPECT_EQ(r.fallback, FallbackLevel::GreedyShift)
      << "status: " << r.status.to_string();
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
}

TEST(FlowRobustnessTest, PriorWorkRecoversFromForcedPrimaryFailure) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  PriorWorkOptions opts;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_prior_work(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_EQ(r.fallback, FallbackLevel::GreedyShift);
}

TEST(FlowRobustnessTest, SaRecoversFromForcedPrimaryFailure) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  SaFlowOptions opts;
  opts.sa.max_moves = 20000;
  opts.inject.fail_primary_dp = true;
  const FlowResult r = run_sa(tc.circuit, opts);
  EXPECT_TRUE(r.ok()) << r.status.to_string();
  EXPECT_TRUE(r.legal(1e-6));
  EXPECT_NE(r.fallback, FallbackLevel::None);
}

TEST(FlowRobustnessTest, TinyTimeBudgetDegradesWithoutThrowing) {
  // An already-expired wall-clock budget: every deadline-aware stage must
  // step aside and the deadline-free greedy last resort still has to end
  // the flow with a legal placement.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  EPlaceAOptions opts;
  opts.candidates = 2;
  opts.deadline = Deadline::after_seconds(1e-6);
  std::optional<FlowResult> r;
  EXPECT_NO_THROW(r.emplace(run_eplace_a(tc.circuit, opts)));
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->deadline_hit);
  EXPECT_TRUE(r->ok()) << r->status.to_string();
  EXPECT_TRUE(r->legal(1e-6));
  EXPECT_EQ(r->fallback, FallbackLevel::GreedyShift)
      << "deadline-aware legalizers should have reported BudgetExhausted";
}

TEST(FlowRobustnessTest, InvalidInputReturnsStructuredStatus) {
  // Unfinalized circuit with a dangling pin: pre-flight validation must
  // reject it from every flow without throwing.
  netlist::Circuit c("broken");
  const auto d = c.add_device("m1", netlist::DeviceType::Nmos, 2.0, 1.0);
  c.add_center_pin(d, "g");  // never connected; finalize() never called

  std::optional<FlowResult> r;
  EXPECT_NO_THROW(r.emplace(run_eplace_a(c)));
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->status.code(), aplace::StatusCode::InvalidInput);
  EXPECT_NE(r->status.to_string().find("pre-flight"), std::string::npos)
      << r->status.to_string();

  const FlowResult pw = run_prior_work(c);
  EXPECT_EQ(pw.status.code(), aplace::StatusCode::InvalidInput);

  const FlowResult sa = run_sa(c);
  EXPECT_EQ(sa.status.code(), aplace::StatusCode::InvalidInput);
}

// --- performance-driven ---------------------------------------------------------

DatasetOptions quick_dataset() {
  DatasetOptions d;
  d.random_samples = 120;
  d.optimized_samples = 4;
  d.sa_moves_per_sample = 500;
  return d;
}

gnn::TrainOptions quick_training() {
  gnn::TrainOptions t;
  t.epochs = 60;
  return t;
}

TEST(PerfFlowTest, ContextBuildsAndGnnLearnsSomething) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  ASSERT_NE(ctx, nullptr);
  EXPECT_GT(ctx->label_threshold, 0.0);
  EXPECT_LT(ctx->label_threshold, 1.0);
  EXPECT_GT(ctx->training.train_accuracy, 0.6)
      << "GNN failed to fit the placement-quality labels at all";
}

TEST(PerfFlowTest, BadDatasetSizesAreRejected) {
  // An empty dataset, or a negative count, fails the entry check instead
  // of reaching the median of no labels.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  DatasetOptions none;
  none.random_samples = 0;
  none.optimized_samples = 0;
  none.analytic_samples = 0;
  EXPECT_THROW((void)build_perf_context(tc.circuit, tc.spec, none),
               CheckError);
  DatasetOptions negative = quick_dataset();
  negative.optimized_samples = -1;
  EXPECT_THROW((void)build_perf_context(tc.circuit, tc.spec, negative),
               CheckError);
}

TEST(PerfFlowTest, ContextSpansAndTrainingCounters) {
  // One perf/context span per build, with its sampling, labeling and
  // training stages as children; the training counters grow by the
  // epochs run and by epochs x train-set size.
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  obs::SpanCollector::global().clear();
  const auto counter = [](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
    const obs::MetricsSnapshot::CounterRow* row = snap.find_counter(name);
    return row != nullptr ? row->value : 0;
  };
  const std::uint64_t epochs0 = counter("gnn/train_epochs");
  const std::uint64_t samples0 = counter("gnn/train_samples");

  circuits::TestCase tc = circuits::make_testcase("Adder");
  DatasetOptions data = quick_dataset();
  data.analytic_samples = 0;
  gnn::TrainOptions train = quick_training();
  train.epochs = 3;
  auto ctx = build_perf_context(tc.circuit, tc.spec, data, train);
  const std::vector<obs::SpanEvent> events =
      obs::SpanCollector::global().drain();
  obs::set_enabled(saved);

  const auto find = [&](std::string_view name) {
    std::vector<const obs::SpanEvent*> out;
    for (const obs::SpanEvent& e : events) {
      if (e.name == name) out.push_back(&e);
    }
    return out;
  };
  const auto context = find("perf/context");
  ASSERT_EQ(context.size(), 1u);
  for (const char* child :
       {"perf/context/sample", "perf/context/label", "gnn/train"}) {
    const auto spans = find(child);
    ASSERT_EQ(spans.size(), 1u) << child;
    EXPECT_EQ(spans[0]->parent, context[0]->id) << child;
  }
  // 124 samples: 25 validate (round(0.2 * 124)), 99 train.
  EXPECT_EQ(counter("gnn/train_epochs") - epochs0, 3u);
  EXPECT_EQ(counter("gnn/train_samples") - samples0, 3u * 99u);
}

TEST(PerfFlowTest, EPlaceApLegalAndScored) {
  circuits::TestCase tc = circuits::make_testcase("CC-OTA");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  EPlaceAOptions opts;
  opts.candidates = 1;
  const PerfFlowResult r = run_eplace_ap(tc.circuit, *ctx, opts);
  EXPECT_TRUE(r.flow.legal(1e-6));
  EXPECT_GT(r.perf.fom, 0.0);
  EXPECT_LE(r.perf.fom, 1.0);
}

TEST(PerfFlowTest, PerfDrivenVariantsRunForAllMethods) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());

  EPlaceAOptions eopts;
  eopts.candidates = 1;
  const PerfFlowResult ap = run_eplace_ap(tc.circuit, *ctx, eopts);
  EXPECT_TRUE(ap.flow.legal(1e-6));

  const PerfFlowResult pw = run_prior_work_perf(tc.circuit, *ctx);
  EXPECT_TRUE(pw.flow.legal(1e-6));

  SaFlowOptions sopts;
  sopts.sa.max_moves = 4000;
  const PerfFlowResult sp = run_sa_perf(tc.circuit, *ctx, sopts, 1.0);
  EXPECT_TRUE(sp.flow.legal(1e-6));
}

TEST(PerfFlowTest, SaPerfHonorsCancellation) {
  // run_sa_perf goes through run_sa, so a token cancelled before the flow
  // starts stops it before any annealing.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  SaFlowOptions sopts;
  sopts.sa.max_moves = 2000;
  const base::CancelToken cancel = base::CancelToken::make_cancellable();
  cancel.request_cancel();
  sopts.deadline = Deadline{}.with_cancel(cancel);
  const PerfFlowResult r = run_sa_perf(tc.circuit, *ctx, sopts, 1.0);
  EXPECT_EQ(r.flow.status.code(), StatusCode::Cancelled);
}

TEST(PerfFlowTest, GnnPhiIsProbability) {
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  SaFlowOptions sopts;
  sopts.sa.max_moves = 2000;
  const FlowResult r = run_sa(tc.circuit, sopts);
  const double phi = gnn_phi(*ctx, r.placement);
  EXPECT_GT(phi, 0.0);
  EXPECT_LT(phi, 1.0);
}

TEST(PerfFlowTest, AdderGnnAndPerfFlowsPinnedExactly) {
  // Exact-value pins (EXPECT_EQ, no tolerance) on every user of the GNN:
  // training, inference (core::gnn_phi), the gradient term the analytical
  // placers descend through (gnn::PhiTerm, in ePlace-AP and Perf*) and
  // SA's per-move Phi cost. A rewrite of the GNN kernel that keeps every
  // sum in the same order must leave them unchanged, on every build (FMA
  // contraction is off). If an intentional model change moves them,
  // regenerate the values with the same options and say so in the commit.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  EXPECT_EQ(ctx->training.final_loss, 0.40821953748870105);

  netlist::Placement fixed(tc.circuit);
  for (std::size_t i = 0; i < tc.circuit.num_devices(); ++i) {
    const auto k = static_cast<double>(i);
    fixed.set_position(DeviceId{i},
                       {2.1 * static_cast<double>(i % 4) + 0.175 * k,
                        1.75 * static_cast<double>(i / 4) + 0.35});
  }
  EXPECT_EQ(gnn_phi(*ctx, fixed), 0.213099557353849);

  EPlaceAOptions eopts;
  eopts.candidates = 1;
  const PerfFlowResult ap = run_eplace_ap(tc.circuit, *ctx, eopts);
  EXPECT_EQ(ap.flow.hpwl(), 53.549999999999997);
  EXPECT_EQ(ap.flow.area(), 56);

  const PerfFlowResult pw = run_prior_work_perf(tc.circuit, *ctx);
  EXPECT_EQ(pw.flow.hpwl(), 55.5);
  EXPECT_EQ(pw.flow.area(), 81);

  SaFlowOptions sopts;
  sopts.sa.max_moves = 4000;
  const PerfFlowResult sp = run_sa_perf(tc.circuit, *ctx, sopts, 1.0);
  EXPECT_EQ(sp.flow.hpwl(), 103.7);
  EXPECT_EQ(sp.flow.area(), 72);
}

// --- SA's Phi skip -----------------------------------------------------------

// The annealer's global counters (all zero when telemetry is disabled).
struct SaCounters {
  std::uint64_t moves = 0, accepts = 0, calls = 0, skips = 0;
};

SaCounters sa_counters() {
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().scrape();
  const auto value = [&snap](const char* name) -> std::uint64_t {
    const obs::MetricsSnapshot::CounterRow* row = snap.find_counter(name);
    return row != nullptr ? row->value : 0;
  };
  return {value("sa/moves"), value("sa/accepts"),
          value("sa/extra_cost_calls"), value("sa/extra_cost_skips")};
}

SaCounters since(const SaCounters& before) {
  const SaCounters now = sa_counters();
  return {now.moves - before.moves, now.accepts - before.accepts,
          now.calls - before.calls, now.skips - before.skips};
}

TEST(PerfFlowTest, PhiSkipLeavesSaDecisionsUnchanged) {
  // The real GNN Phi as run_sa_perf weights it, against the reference loop
  // that calls it on every move: same chain bit for bit.
  for (const char* name : {"Adder", "CC-OTA"}) {
    circuits::TestCase tc = circuits::make_testcase(name);
    auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                  quick_training());
    for (const double alpha : {1.0, 0.0}) {
      const std::string label =
          std::string(name) + " alpha " + std::to_string(alpha);
      sa::SaOptions opts;
      opts.seed = 21;
      opts.max_moves = 3000;
      opts.extra_cost = [&ctx, alpha](const netlist::Placement& pl) {
        return alpha * gnn_phi(*ctx, pl);
      };
      EXPECT_GT(test::expect_matches_reference_anneal(tc.circuit, opts, label)
                    .extra_cost_skips,
                0)
          << label;
    }
  }
}

TEST(PerfFlowTest, SaPerfSkipsPhiCallsAndMatchesReference) {
  // run_sa_perf's placement is the reference loop's (the SA result is
  // legal, so the flow keeps it); the annealer counters show the same
  // moves and accepts, and Phi calls skipped.
  const bool saved = obs::enabled();
  obs::set_enabled(true);
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  for (const double alpha : {1.0, 0.0}) {
    const std::string label = "alpha " + std::to_string(alpha);
    SaFlowOptions sopts;
    sopts.sa.max_moves = 4000;
    const SaCounters before = sa_counters();
    const PerfFlowResult sp = run_sa_perf(tc.circuit, *ctx, sopts, alpha);
    const SaCounters fast = since(before);

    sopts.sa.extra_cost = [&ctx, alpha](const netlist::Placement& pl) {
      return alpha * gnn_phi(*ctx, pl);
    };
    const oracle::ReferenceAnneal ref =
        oracle::reference_anneal(tc.circuit, sopts.sa);

    ASSERT_TRUE(sp.flow.legal(1e-6)) << label;
    EXPECT_EQ(sp.flow.placement.positions(), ref.placement.positions())
        << label;
    EXPECT_EQ(fast.moves, static_cast<std::uint64_t>(ref.moves_evaluated))
        << label;
    EXPECT_EQ(fast.accepts, static_cast<std::uint64_t>(ref.moves_accepted))
        << label;
    EXPECT_EQ(fast.calls + fast.skips, fast.moves) << label;
    EXPECT_GT(fast.skips, 0u) << label;
  }
  obs::set_enabled(saved);
}

TEST(PerfFlowTest, SaPerfRejectsNegativeAlpha) {
  // A negative alpha would make alpha * Phi negative, below the floor of 0
  // SA's extra_cost must keep.
  circuits::TestCase tc = circuits::make_testcase("Adder");
  auto ctx = build_perf_context(tc.circuit, tc.spec, quick_dataset(),
                                quick_training());
  SaFlowOptions sopts;
  sopts.sa.max_moves = 100;
  EXPECT_THROW((void)run_sa_perf(tc.circuit, *ctx, sopts, -0.5), CheckError);
}

}  // namespace
}  // namespace aplace::core
