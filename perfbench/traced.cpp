// The traced run: every workload call re-composed from the public entry
// points of its layers, mirroring src/core/flow.cpp and
// src/core/perf_flow.cpp step by step, with one Tracer span per layer call.
// main.cpp checks that each composition reproduces its flow's placement
// quality, legality and fallback level exactly; otherwise the per-layer
// numbers would describe a different program.

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <thread>

#include "base/thread_pool.hpp"
#include "bench.hpp"
#include "gnn/phi_term.hpp"
#include "gp/eplace_gp.hpp"
#include "gp/ntu_gp.hpp"
#include "legal/greedy_shift.hpp"
#include "legal/ilp_detailed.hpp"
#include "legal/two_stage_lp.hpp"
#include "numeric/rng.hpp"
#include "obs/span.hpp"
#include "sa/annealer.hpp"

namespace perfbench {

void Tracer::add(const std::string& key, double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  totals_[key] += v;
}

double Tracer::total(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = totals_.find(key);
  return it != totals_.end() ? it->second : 0.0;
}

std::vector<Tracer::Event> Tracer::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void Tracer::close(const char* name, double start, double dur) {
  const std::size_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  totals_[std::string(name) + "_s"] += dur;
  const auto it =
      tids_.emplace(thread, static_cast<std::uint32_t>(tids_.size() + 1)).first;
  events_.push_back(Event{name, it->second, start, dur});
}

namespace {

using core::FallbackLevel;

void add_terms(Tracer& tr, const gp::TermTrace& trace) {
  for (const gp::TermStats& t : trace.terms) {
    tr.add("gp.term." + t.name + ".s", t.seconds);
    tr.add("gp.term." + t.name + ".evals", static_cast<double>(t.evals));
  }
}

netlist::QualityReport evaluate(Tracer& tr, const netlist::Circuit& circuit,
                                const netlist::Placement& pl) {
  const Tracer::Span span(tr, "netlist.evaluate");
  return netlist::Evaluator(circuit).evaluate(pl);
}

std::vector<double> positions_of(const netlist::Placement& pl) {
  const std::size_t n = pl.circuit().num_devices();
  std::vector<double> v(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Point p = pl.position(DeviceId{i});
    v[i] = p.x;
    v[n + i] = p.y;
  }
  return v;
}

/// A placement with the flow-level verdict on it.
struct Placed {
  netlist::Placement placement;
  netlist::QualityReport quality{};
  bool ok = false;
  FallbackLevel fallback = FallbackLevel::None;
};

Outcome to_outcome(Placed p) {
  Outcome o;
  o.ok = p.ok;
  o.fallback = p.fallback;
  o.reported = p.quality;
  o.placement = std::move(p.placement);
  return o;
}

// The legalization fallback chain of run_eplace_a (ILP, rounded LP,
// two-stage LP, greedy shift) with an unlimited deadline, no cancellation and
// no fault injection, as the flow runs by default.
Placed legalize_chain(Tracer& tr,
                      const std::shared_ptr<const netlist::CompiledCircuit>& cc,
                      std::span<const double> positions,
                      const legal::IlpOptions& ilp) {
  const netlist::Circuit& circuit = cc->circuit();
  Placed out{netlist::Placement(circuit)};

  // One level: `attempt` fills `pl` and returns whether the legalizer
  // reported success; like the flow, the claim is re-checked for legality.
  auto level = [&](FallbackLevel lvl, auto&& attempt) {
    tr.add("legal.chain_attempts", 1);
    netlist::Placement pl(circuit);
    bool ok = false;
    try {
      ok = attempt(pl);
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) ok = evaluate(tr, circuit, pl).legal(1e-6);
    out.placement = std::move(pl);
    if (ok) {
      out.fallback = lvl;
      out.ok = true;
    }
    return ok;
  };

  auto ilp_level = [&](const char* span, const std::string& prefix,
                       const legal::IlpOptions& o) {
    return [&, span, prefix, o](netlist::Placement& pl) {
      legal::IlpResult r = [&] {
        const Tracer::Span s(tr, span);
        return legal::IlpDetailedPlacer(cc, o).place(positions);
      }();
      tr.add(prefix + ".calls", 1);
      tr.add(prefix + ".bb_nodes", static_cast<double>(r.bb_nodes));
      tr.add(prefix + ".snapped", r.snapped ? 1 : 0);
      if (r.ok()) pl = std::move(r.placement);
      return r.outcome.ok();
    };
  };
  const bool primary = level(FallbackLevel::None,
                             ilp_level("legal.ilp.place", "legal.ilp", ilp));
  tr.add("legal.ilp.ok", primary ? 1 : 0);
  if (primary) return out;

  legal::IlpOptions rounded = ilp;
  rounded.enable_flipping = false;
  rounded.refine_rounds = 1;
  rounded.reshape_attempts = 0;
  if (level(FallbackLevel::RoundedLp,
            ilp_level("legal.rounded_lp.place", "legal.rounded_lp", rounded))) {
    return out;
  }

  auto two_stage = [&](netlist::Placement& pl) {
    legal::TwoStageResult r = [&] {
      const Tracer::Span s(tr, "legal.two_stage.place");
      return legal::TwoStageLpLegalizer(cc, {}).place(positions);
    }();
    tr.add("legal.two_stage.calls", 1);
    if (r.ok()) pl = std::move(r.placement);
    return r.outcome.ok();
  };
  const bool two_ok = level(FallbackLevel::TwoStageLp, two_stage);
  tr.add("legal.two_stage.ok", two_ok ? 1 : 0);
  if (two_ok) return out;

  if (level(FallbackLevel::GreedyShift, [&](netlist::Placement& pl) {
        legal::GreedyShiftResult r = [&] {
          const Tracer::Span s(tr, "legal.greedy.place");
          return legal::GreedyShiftLegalizer(circuit).place(positions);
        }();
        tr.add("legal.greedy.calls", 1);
        pl = std::move(r.placement);
        return r.outcome.ok();
      })) {
    return out;
  }
  out.fallback = FallbackLevel::GreedyShift;
  return out;
}

// run_eplace_a: candidates on split_seed streams, concurrently on the pool
// when it has more than one thread, then the ordered best-of reduction.
Placed eplace_a(Tracer& tr, const netlist::Circuit& circuit,
                const std::shared_ptr<const netlist::CompiledCircuit>& cc,
                const core::EPlaceAOptions& opts) {
  const std::size_t num_cands = static_cast<std::size_t>(opts.candidates);
  std::vector<double> cand_seconds(num_cands, 0.0);

  auto run_candidate = [&](std::size_t k) -> Placed {
    const Tracer::Span cand_span(tr, "core.candidate");
    gp::EPlaceGpOptions g = opts.gp;
    g.seed = numeric::split_seed(opts.gp.seed, k);
    gp::GpResult gpr = [&] {
      const Tracer::Span s(tr, "gp.eplace.run");
      return gp::EPlaceGlobalPlacer(cc, g).run();
    }();
    add_terms(tr, gpr.trace);
    Placed cand = legalize_chain(tr, cc, gpr.positions, opts.dp);
    cand.quality = evaluate(tr, circuit, cand.placement);
    cand_seconds[k] = cand_span.seconds();
    return cand;
  };

  std::vector<std::optional<Placed>> cands(num_cands);
  base::ThreadPool& pool = base::ThreadPool::global();
  if (pool.num_threads() > 1 && num_cands > 1) {
    base::ThreadPool::TaskGroup group(pool);
    for (std::size_t k = 1; k < num_cands; ++k) {
      group.run([&, k] { cands[k] = run_candidate(k); });
    }
    cands[0] = run_candidate(0);
    group.wait();
  } else {
    for (std::size_t k = 0; k < num_cands; ++k) cands[k] = run_candidate(k);
  }

  if (num_cands > 1) {
    double sum = 0, worst = 0;
    for (double s : cand_seconds) {
      sum += s;
      worst = std::max(worst, s);
    }
    tr.add("core.candidate.max_over_mean_sum",
           worst / (sum / static_cast<double>(num_cands)));
    tr.add("core.candidate.flows", 1);
  }

  Placed best{netlist::Placement(circuit)};
  double best_score = std::numeric_limits<double>::infinity();
  double scale_area = 1.0, scale_hpwl = 1.0;
  bool have_ok = false, have_scales = false;
  for (std::optional<Placed>& c : cands) {
    if (c->ok) {
      if (!have_scales) {
        scale_area = std::max(c->quality.area, 1e-9);
        scale_hpwl = std::max(c->quality.hpwl, 1e-9);
        have_scales = true;
      }
      const double score =
          c->quality.area / scale_area + c->quality.hpwl / scale_hpwl;
      if (!have_ok || score < best_score) {
        best_score = score;
        best = std::move(*c);
        have_ok = true;
      }
    } else if (!have_ok) {
      best = std::move(*c);
    }
  }
  return best;
}

// core::evaluate_routed, split into its two layers.
double routed_fom(Tracer& tr, const core::PerfContext& ctx,
                  const netlist::Placement& pl) {
  const route::RoutingResult rr = [&] {
    const Tracer::Span s(tr, "route.route");
    return route::GridRouter().route(*ctx.compiled, pl);
  }();
  tr.add("route.calls", 1);
  const Tracer::Span s(tr, "perf.evaluate");
  return ctx.model.evaluate(pl, &rr).fom;
}

double phi(Tracer& tr, const core::PerfContext& ctx,
           const netlist::Placement& pl) {
  tr.add("gnn.phi_calls", 1);
  const Tracer::Span s(tr, "gnn.phi");
  return core::gnn_phi(ctx, pl);
}

// run_eplace_ap: candidate 0 without the GNN term, candidates
// 1..candidates with gnn::PhiTerm, sequential, additive seeds.
Outcome eplace_ap(Tracer& tr, const netlist::Circuit& circuit,
                  core::PerfContext& ctx, const core::EPlaceAOptions& opts) {
  const netlist::Evaluator eval(circuit);
  std::optional<netlist::Placement> best;
  netlist::QualityReport best_q{};
  double best_score = std::numeric_limits<double>::infinity();
  double scale_area = 1.0, scale_hpwl = 1.0;
  for (int k = 0; k <= opts.candidates; ++k) {
    gp::EPlaceGpOptions g = opts.gp;
    g.seed = opts.gp.seed + 48ULL * static_cast<std::uint64_t>(k);
    gp::GpResult gpr = [&] {
      const Tracer::Span s(tr, "gp.eplace.run");
      gp::EPlaceGlobalPlacer placer(circuit, g);
      if (k > 0) {
        placer.set_extra_term(
            std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
      }
      return placer.run();
    }();
    add_terms(tr, gpr.trace);
    legal::IlpResult dpr = [&] {
      const Tracer::Span s(tr, "legal.ilp.place");
      return legal::IlpDetailedPlacer(circuit, opts.dp).place(gpr.positions);
    }();
    tr.add("legal.ilp.calls", 1);
    tr.add("legal.ilp.bb_nodes", static_cast<double>(dpr.bb_nodes));
    tr.add("legal.ilp.snapped", dpr.snapped ? 1 : 0);
    tr.add("legal.ilp.ok", dpr.ok() ? 1 : 0);
    if (!dpr.ok()) {
      Outcome failed;
      failed.error = "ePlace-AP detailed placement failed";
      return failed;
    }
    const netlist::QualityReport q = [&] {
      const Tracer::Span s(tr, "netlist.evaluate");
      return eval.evaluate(dpr.placement);
    }();
    if (k == 0) {
      scale_area = std::max(q.area, 1e-9);
      scale_hpwl = std::max(q.hpwl, 1e-9);
    }
    const double score = q.area / scale_area + q.hpwl / scale_hpwl +
                         2.0 * phi(tr, ctx, dpr.placement);
    if (score < best_score) {
      best_score = score;
      best = std::move(dpr.placement);
      best_q = q;
    }
  }
  Outcome o;
  o.ok = true;
  o.reported = best_q;
  o.reported_fom = routed_fom(tr, ctx, *best);
  o.placement = std::move(best);
  return o;
}

Outcome prior_work_perf(Tracer& tr, const netlist::Circuit& circuit,
                        core::PerfContext& ctx,
                        const core::PriorWorkOptions& opts) {
  gp::GpResult gpr = [&] {
    const Tracer::Span s(tr, "gp.ntu.run");
    gp::PriorAnalyticalGlobalPlacer placer(circuit, opts.gp);
    placer.set_extra_term(std::make_shared<gnn::PhiTerm>(ctx.graph, ctx.net));
    return placer.run();
  }();
  add_terms(tr, gpr.trace);
  legal::TwoStageResult dpr = [&] {
    const Tracer::Span s(tr, "legal.two_stage.place");
    return legal::TwoStageLpLegalizer(circuit, opts.dp).place(gpr.positions);
  }();
  tr.add("legal.two_stage.calls", 1);
  tr.add("legal.two_stage.ok", dpr.ok() ? 1 : 0);
  if (!dpr.ok()) {
    Outcome failed;
    failed.error = "Perf* detailed placement failed";
    return failed;
  }
  Outcome o;
  o.ok = true;
  o.reported = evaluate(tr, circuit, dpr.placement);
  o.reported_fom = routed_fom(tr, ctx, dpr.placement);
  o.placement = std::move(dpr.placement);
  return o;
}

Outcome sa_perf(Tracer& tr, const netlist::Circuit& circuit,
                core::PerfContext& ctx, const core::SaFlowOptions& opts,
                double alpha) {
  // GNN inference runs on every annealing move: accumulate locally and
  // publish once instead of recording one span per move.
  double phi_s = 0;
  double phi_calls = 0;
  sa::SaOptions sopts = opts.sa;
  sopts.extra_cost = [&ctx, alpha, &phi_s,
                      &phi_calls](const netlist::Placement& pl) {
    const double t0 = wall_now();
    const double v = alpha * core::gnn_phi(ctx, pl);
    phi_s += wall_now() - t0;
    phi_calls += 1;
    return v;
  };
  sa::SaResult sar = [&] {
    const Tracer::Span s(tr, "sa.perf.place");
    return sa::SaPlacer(circuit, sopts).place();
  }();
  tr.add("gnn.phi_s", phi_s);
  tr.add("gnn.phi_calls", phi_calls);
  tr.add("sa.perf.phi_s", phi_s);
  tr.add("sa.nets_evaluated",
         static_cast<double>(sar.eval_stats.nets_evaluated));
  tr.add("sa.nets_total", static_cast<double>(sar.eval_stats.nets_total));
  Outcome o;
  o.ok = true;
  o.reported = evaluate(tr, circuit, sar.placement);
  o.reported_fom = routed_fom(tr, ctx, sar.placement);
  o.placement = std::move(sar.placement);
  return o;
}

// core::build_perf_context at its default options, layer by layer.
std::unique_ptr<core::PerfContext> perf_context(
    Tracer& tr, const netlist::Circuit& circuit,
    const perf::PerformanceSpec& spec) {
  const core::DatasetOptions opts;
  const gnn::TrainOptions train_opts;
  auto compile = [&] {
    const Tracer::Span s(tr, "netlist.compile");
    return std::make_shared<const netlist::CompiledCircuit>(circuit);
  };
  const auto compiled = compile();
  auto ctx = std::make_unique<core::PerfContext>(
      compiled, perf::PerformanceModel(compiled, spec),
      gnn::CircuitGraph(compiled,
                        std::sqrt(circuit.total_device_area() / 0.5)));

  numeric::Rng rng(opts.seed);
  std::vector<netlist::Placement> placements;
  {
    const Tracer::Span s(tr, "sa.sample");
    sa::SaOptions sopts;
    sopts.seed = opts.seed;
    sa::SaPlacer sampler(circuit, sopts);
    for (int k = 0; k < opts.random_samples; ++k) {
      placements.push_back(sampler.sample_random(rng));
    }
    for (int k = 0; k < opts.optimized_samples; ++k) {
      sa::SaOptions o;
      o.seed = opts.seed + 1000 + static_cast<std::uint64_t>(k);
      o.max_moves = opts.sa_moves_per_sample;
      o.area_weight = 0.25 + 0.5 * rng.uniform();
      sa::SaPlacer sap(circuit, o);
      placements.push_back(sap.place().placement);
    }
  }
  if (opts.analytic_samples > 0) {
    core::EPlaceAOptions eopts;
    eopts.candidates = 1;
    eopts.gp.num_starts = 1;
    const Placed base = eplace_a(tr, circuit, compile(), eopts);
    const std::size_t n = circuit.num_devices();
    for (int k = 0; k < opts.analytic_samples; ++k) {
      netlist::Placement pl = base.placement;
      const double sigma = 0.1 + 2.0 * rng.uniform();
      for (std::size_t i = 0; i < n; ++i) {
        const geom::Point p = pl.position(DeviceId{i});
        pl.set_position(DeviceId{i}, {p.x + rng.normal(0, sigma),
                                      p.y + rng.normal(0, sigma)});
      }
      placements.push_back(std::move(pl));
    }
  }

  std::vector<double> foms;
  foms.reserve(placements.size());
  for (const netlist::Placement& pl : placements) {
    foms.push_back(routed_fom(tr, *ctx, pl));
  }
  std::vector<double> sorted = foms;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2,
                   sorted.end());
  ctx->label_threshold = sorted[sorted.size() / 2];

  std::vector<gnn::Sample> samples;
  samples.reserve(placements.size());
  for (std::size_t k = 0; k < placements.size(); ++k) {
    samples.push_back(gnn::Sample{positions_of(placements[k]),
                                  foms[k] < ctx->label_threshold ? 1.0 : 0.0});
  }

  {
    const Tracer::Span s(tr, "gnn.train");
    numeric::Rng init_rng(opts.seed + 77);
    ctx->net.initialize(init_rng);
    gnn::Trainer trainer(ctx->graph, ctx->net, train_opts);
    ctx->training = trainer.train(samples);
  }
  tr.add("gnn.contexts", 1);
  tr.add("gnn.epochs", ctx->training.epochs_run);
  tr.add("gnn.validation_accuracy", ctx->training.validation_accuracy);
  return ctx;
}

}  // namespace

Setup make_setup_traced(const Workload& w, Tracer& tr) {
  const ObsCounters before = ObsCounters::read();
  Setup s;
  for (const std::string& name : w.circuits) {
    auto c = [&] {
      const Tracer::Span span(tr, "circuits.make");
      return std::make_unique<Case>(
          Case{circuits::make_testcase(name), {}, {}});
    }();
    {
      const Tracer::Span span(tr, "netlist.compile");
      c->compiled = s.cache->get_or_compile(c->tc.circuit);
    }
    if (w.perf_context) c->perf = perf_context(tr, c->tc.circuit, c->tc.spec);
    s.cases.push_back(std::move(c));
  }
  // Set-up GP runs are the analytic dataset samples (ePlace).
  const ObsCounters d = ObsCounters::read() - before;
  tr.add("gp.eplace.iterations", d.gp_iterations);
  tr.add("density.evals", d.density_evals);
  tr.add("fft.transforms2d", d.fft_transforms);
  tr.add("pool.tasks", d.pool_tasks);
  tr.add("pool.task_wait_s", d.pool_wait_s);
  obs::SpanCollector::global().clear();
  return s;
}

bool same_contexts(const Setup& a, const Setup& b) {
  if (a.cases.size() != b.cases.size()) return false;
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    const core::PerfContext* x = a.cases[i]->perf.get();
    const core::PerfContext* y = b.cases[i]->perf.get();
    if ((x == nullptr) != (y == nullptr)) return false;
    if (x == nullptr) continue;
    const gnn::TrainReport& p = x->training;
    const gnn::TrainReport& q = y->training;
    if (x->label_threshold != y->label_threshold ||
        p.final_loss != q.final_loss ||
        p.train_accuracy != q.train_accuracy ||
        p.validation_accuracy != q.validation_accuracy ||
        p.epochs_run != q.epochs_run ||
        x->net.parameters() != y->net.parameters()) {
      return false;
    }
  }
  return true;
}

Outcome run_composed(const Setup& s, const Call& call, Tracer& tr) {
  Case& c = *s.cases.at(call.case_index);
  const netlist::Circuit& circuit = c.tc.circuit;
  const ObsCounters before = ObsCounters::read();
  Outcome out;
  const char* counted = "";  // where this flow's GP iterations / SA moves go
  switch (call.flow) {
    case Flow::EPlaceA: {
      core::EPlaceAOptions o;
      o.gp.seed = call.seed;
      out = to_outcome(eplace_a(tr, circuit, c.compiled, o));
      counted = "gp.eplace";
      break;
    }
    case Flow::EPlaceAP: {
      core::EPlaceAOptions o;
      o.gp.seed = call.seed;
      out = eplace_ap(tr, circuit, *c.perf, o);
      counted = "gp.eplace";
      break;
    }
    case Flow::PriorWorkPerf: {
      core::PriorWorkOptions o;
      o.gp.seed = call.seed;
      out = prior_work_perf(tr, circuit, *c.perf, o);
      counted = "gp.ntu";
      break;
    }
    case Flow::SaPerf: {
      core::SaFlowOptions o;
      o.sa.seed = call.seed;
      out = sa_perf(tr, circuit, *c.perf, o, 1.0);
      counted = "sa";
      break;
    }
  }
  const ObsCounters d = ObsCounters::read() - before;
  const std::string prefix = counted;
  if (prefix.starts_with("gp.")) {
    tr.add(prefix + ".iterations", d.gp_iterations);
  } else {
    tr.add(prefix + ".moves", d.sa_moves);
    tr.add(prefix + ".accepts", d.sa_accepts);
  }
  tr.add("density.evals", d.density_evals);
  tr.add("fft.transforms2d", d.fft_transforms);
  tr.add("pool.tasks", d.pool_tasks);
  tr.add("pool.task_wait_s", d.pool_wait_s);
  obs::SpanCollector::global().clear();
  return out;
}

}  // namespace perfbench
