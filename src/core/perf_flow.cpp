#include "core/perf_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <utility>

#include "base/thread_pool.hpp"
#include "gnn/phi_term.hpp"
#include "numeric/rng.hpp"
#include "obs/span.hpp"
#include "sa/annealer.hpp"

namespace aplace::core {
namespace {

void positions_into(const netlist::Placement& pl, std::vector<double>& v) {
  const std::size_t n = pl.circuit().num_devices();
  v.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = pl.position(DeviceId{i});
    v[i] = p.x;
    v[n + i] = p.y;
  }
}

std::vector<double> positions_of(const netlist::Placement& pl) {
  std::vector<double> v;
  positions_into(pl, v);
  return v;
}

double coord_scale_of(const netlist::Circuit& c) {
  return std::sqrt(c.total_device_area() / 0.5);
}

}  // namespace

std::unique_ptr<PerfContext> build_perf_context(
    const netlist::Circuit& circuit, const perf::PerformanceSpec& spec,
    DatasetOptions opts, gnn::TrainOptions train_opts) {
  APLACE_CHECK_MSG(opts.random_samples >= 0 && opts.optimized_samples >= 0 &&
                       opts.analytic_samples >= 0,
                   "dataset sample counts must be non-negative");
  APLACE_CHECK_MSG(
      opts.random_samples + opts.optimized_samples + opts.analytic_samples > 0,
      "the dataset needs at least one sample");
  obs::Span span("perf/context");
  auto compiled = std::make_shared<const netlist::CompiledCircuit>(circuit);
  auto ctx = std::make_unique<PerfContext>(
      compiled, perf::PerformanceModel(compiled, spec),
      gnn::CircuitGraph(compiled, coord_scale_of(circuit)));
  base::ThreadPool& pool = base::ThreadPool::global();

  // --- sample placements ------------------------------------------------------
  // Every draw from `rng` happens on this thread in the serial order: the
  // random packings, the short-SA area weights, then (after the concurrent
  // jobs) the jitter. The short SA runs and the analytical base placement
  // draw from nothing shared, so they run concurrently.
  const auto n_random = static_cast<std::size_t>(opts.random_samples);
  const auto n_optimized = static_cast<std::size_t>(opts.optimized_samples);
  numeric::Rng rng(opts.seed);
  std::vector<netlist::Placement> placements;
  placements.reserve(n_random + n_optimized +
                     static_cast<std::size_t>(opts.analytic_samples));
  {
    obs::Span sample_span("perf/context/sample");
    {
      sa::SaOptions sopts;
      sopts.seed = opts.seed;
      sa::SaPlacer sampler(compiled, sopts);
      for (std::size_t k = 0; k < n_random; ++k) {
        placements.push_back(sampler.sample_random(rng));
      }
    }
    std::vector<double> area_weights(n_optimized);
    for (double& w : area_weights) w = 0.25 + 0.5 * rng.uniform();
    placements.resize(n_random + n_optimized, netlist::Placement(circuit));

    // The short SA runs go to the pool while this thread computes the
    // analytical base placement, the largest of the jobs (its ILP tableau
    // stays in this thread's heap instead of growing a worker's).
    base::ThreadPool::TaskGroup group(pool);
    for (std::size_t k = 0; k < n_optimized; ++k) {
      group.run([&, k] {
        sa::SaOptions sopts;
        sopts.seed = opts.seed + 1000 + k;
        sopts.max_moves = opts.sa_moves_per_sample;
        sopts.area_weight = area_weights[k];
        placements[n_random + k] =
            sa::SaPlacer(compiled, sopts).place().placement;
      });
    }
    std::optional<FlowResult> analytic_base;
    if (opts.analytic_samples > 0) {
      // Neighborhood of a good analytical placement: jittered copies teach
      // the model the local landscape where ePlace-AP descends.
      EPlaceAOptions eopts;
      eopts.candidates = 1;
      eopts.gp.num_starts = 1;
      analytic_base = run_eplace_a(circuit, eopts);
    }
    group.wait();

    const std::size_t n = circuit.num_devices();
    for (int k = 0; k < opts.analytic_samples; ++k) {
      netlist::Placement pl = analytic_base->placement;
      const double sigma = 0.1 + 2.0 * rng.uniform();
      for (std::size_t i = 0; i < n; ++i) {
        const geom::Point p = pl.position(DeviceId{i});
        pl.set_position(DeviceId{i}, {p.x + rng.normal(0, sigma),
                                      p.y + rng.normal(0, sigma)});
      }
      placements.push_back(std::move(pl));
    }
  }

  // --- label by routed surrogate performance ---------------------------------
  std::vector<double> foms(placements.size());
  {
    obs::Span label_span("perf/context/label");
    // One chunk and one router scratch per pool thread, the scratches
    // allocated here: routing then allocates little on the workers, whose
    // heaps would keep that memory after the stage. Each FOM is written by
    // index, so the split cannot change a result.
    const route::GridRouter router;
    std::vector<route::RouteScratch> scratch(pool.num_threads());
    const std::size_t grain =
        (placements.size() + scratch.size() - 1) / scratch.size();
    pool.parallel_for(0, placements.size(), grain,
                      [&](std::size_t lo, std::size_t hi) {
                        route::RouteScratch& rs = scratch[lo / grain];
                        for (std::size_t k = lo; k < hi; ++k) {
                          const route::RoutingResult rr =
                              router.route(*ctx->compiled, placements[k], rs);
                          foms[k] = ctx->model.evaluate(placements[k], &rr).fom;
                        }
                      });
  }
  // Median-FOM threshold keeps the two classes balanced for every circuit
  // (the paper's threshold is user-specified; balance is what training
  // needs). Reported FOMs in the benches are raw, threshold-independent.
  std::vector<double> sorted = foms;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  ctx->label_threshold = sorted[sorted.size() / 2];

  std::vector<gnn::Sample> samples;
  samples.reserve(placements.size());
  for (std::size_t k = 0; k < placements.size(); ++k) {
    samples.push_back(gnn::Sample{
        positions_of(placements[k]),
        foms[k] < ctx->label_threshold ? 1.0 : 0.0});
  }

  // --- train -------------------------------------------------------------------
  numeric::Rng init_rng(opts.seed + 77);
  ctx->net.initialize(init_rng);
  gnn::Trainer trainer(ctx->graph, ctx->net, train_opts);
  ctx->training = trainer.train(samples);
  return ctx;
}

perf::PerformanceResult evaluate_routed(const PerfContext& ctx,
                                        const netlist::Placement& placement) {
  obs::Span span("route/estimate");
  const route::GridRouter router;
  const route::RoutingResult rr = router.route(*ctx.compiled, placement);
  return ctx.model.evaluate(placement, &rr);
}

double gnn_phi(const PerfContext& ctx, const netlist::Placement& placement) {
  // SA calls this on most moves: per-thread buffers keep it allocation-free
  // and let threads evaluate one context concurrently.
  thread_local std::vector<double> v;
  thread_local gnn::Workspace ws;
  positions_into(placement, v);
  return ctx.net.forward(ctx.graph, v, ws);
}

PerfFlowResult run_eplace_ap(const netlist::Circuit& circuit, PerfContext& ctx,
                             EPlaceAOptions opts) {
  APLACE_CHECK(opts.candidates >= 1);
  const netlist::Evaluator eval(circuit);
  PerfFlowResult best{FlowResult{netlist::Placement(circuit), {}, 0, 0, 0},
                      {}};
  double best_score = std::numeric_limits<double>::infinity();
  double scale_area = 1.0, scale_hpwl = 1.0;
  double acc_gp = 0, acc_dp = 0, acc_total = 0;

  // Candidate 0 is the conventional trajectory (no GNN term): when the
  // model is noisy on a circuit, its own phi-aware score can still fall
  // back to the conventional placement rather than regress below it.
  for (int k = 0; k <= opts.candidates; ++k) {
    gp::EPlaceGpOptions gopts = opts.gp;
    gopts.seed = opts.gp.seed + 48ULL * static_cast<std::uint64_t>(k);

    const double t0 = obs::now_seconds();
    gp::EPlaceGlobalPlacer placer(circuit, gopts);
    if (k > 0) {
      placer.set_extra_term(std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
    }
    gp::GpResult gpr = placer.run();
    const double gp_s = obs::now_seconds() - t0;

    const double t1 = obs::now_seconds();
    const legal::IlpDetailedPlacer dp(circuit, opts.dp);
    legal::IlpResult dpr = dp.place(gpr.positions);
    APLACE_CHECK_MSG(dpr.ok(), "ePlace-AP detailed placement failed on '"
                                   << circuit.name() << "'");
    const double dp_s = obs::now_seconds() - t1;
    acc_gp += gp_s;
    acc_dp += dp_s;
    acc_total += gp_s + dp_s;

    PerfFlowResult cand{
        FlowResult{std::move(dpr.placement), {}, 0, 0, 0}, {}};
    cand.flow.quality = eval.evaluate(cand.flow.placement);
    cand.flow.gp_trace = std::move(gpr.trace);
    if (k == 0) {
      scale_area = std::max(cand.flow.quality.area, 1e-9);
      scale_hpwl = std::max(cand.flow.quality.hpwl, 1e-9);
    }
    // Candidate choice by the method's own objective: normalized geometry
    // plus the GNN's failure probability (not the surrogate oracle).
    const double score = cand.flow.quality.area / scale_area +
                         cand.flow.quality.hpwl / scale_hpwl +
                         2.0 * gnn_phi(ctx, cand.flow.placement);
    if (score < best_score) {
      best_score = score;
      std::swap(best, cand);
    }
    if (k > 0) {
      // Fold the losing candidate's per-term counters into the winner's
      // trace (winner keeps its weights and convergence samples).
      best.flow.gp_trace.merge_counts(cand.flow.gp_trace);
    }
  }
  best.flow.gp_seconds = acc_gp;
  best.flow.dp_seconds = acc_dp;
  best.flow.total_seconds = acc_total;
  best.perf = evaluate_routed(ctx, best.flow.placement);
  return best;
}

PerfFlowResult run_prior_work_perf(const netlist::Circuit& circuit,
                                   PerfContext& ctx, PriorWorkOptions opts) {
  const double t0 = obs::now_seconds();
  gp::PriorAnalyticalGlobalPlacer placer(circuit, opts.gp);
  placer.set_extra_term(std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
  gp::GpResult gpr = placer.run();
  const double gp_s = obs::now_seconds() - t0;

  const double t1 = obs::now_seconds();
  const legal::TwoStageLpLegalizer dp(circuit, opts.dp);
  legal::TwoStageResult dpr = dp.place(gpr.positions);
  APLACE_CHECK_MSG(dpr.ok(), "Perf* detailed placement failed on '"
                                 << circuit.name() << "'");
  const double dp_s = obs::now_seconds() - t1;

  PerfFlowResult out{
      FlowResult{std::move(dpr.placement), {}, gp_s, dp_s, gp_s + dp_s}, {}};
  out.flow.quality = netlist::Evaluator(circuit).evaluate(out.flow.placement);
  out.flow.gp_trace = std::move(gpr.trace);
  out.perf = evaluate_routed(ctx, out.flow.placement);
  return out;
}

PerfFlowResult run_sa_perf(const netlist::Circuit& circuit, PerfContext& ctx,
                           SaFlowOptions opts, double alpha) {
  // Phi is a sigmoid in [0, 1], so alpha >= 0 keeps alpha * Phi
  // non-negative, as SA's extra_cost requires: SA then skips the GNN on
  // moves the Metropolis test rejects anyway.
  APLACE_CHECK(alpha >= 0);
  opts.sa.extra_cost = [&ctx, alpha](const netlist::Placement& pl) {
    return alpha * gnn_phi(ctx, pl);
  };
  PerfFlowResult out{run_sa(circuit, std::move(opts)), {}};
  out.perf = evaluate_routed(ctx, out.flow.placement);
  return out;
}

}  // namespace aplace::core
