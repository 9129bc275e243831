#include "core/flow.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/thread_pool.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"

namespace aplace::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Placement requires a finalized circuit, but error results must be
// constructible even for inputs validate() rejected before finalization.
// Those carry a placement over this minimal static circuit instead; a
// non-ok status tells callers not to read it.
const netlist::Circuit& placeholder_circuit() {
  static const netlist::Circuit c = [] {
    netlist::Circuit cc("invalid-input-placeholder");
    cc.add_device("dummy", netlist::DeviceType::Nmos, 1.0, 1.0);
    cc.finalize();
    return cc;
  }();
  return c;
}

netlist::Placement safe_placement(const netlist::Circuit& c) {
  return netlist::Placement(c.finalized() ? c : placeholder_circuit());
}

// Shared per-flow boilerplate: stamp timing and evaluate quality once the
// final placement is known (previously duplicated in every flow).
FlowResult assemble_result(const netlist::Circuit& circuit,
                           netlist::Placement placement, double gp_seconds,
                           double dp_seconds) {
  FlowResult out{std::move(placement), {}, gp_seconds, dp_seconds,
                 gp_seconds + dp_seconds};
  obs::Span span("flow/evaluate");
  out.quality = netlist::Evaluator(circuit).evaluate(out.placement);
  return out;
}

FlowResult error_result(const netlist::Circuit& circuit, aplace::Status status,
                        double total_seconds) {
  FlowResult out{safe_placement(circuit), {}, 0, 0, total_seconds};
  out.status = std::move(status);
  return out;
}

// Flow boundary: pre-flight validation, then run the flow body with every
// escaped exception converted to a structured status carrying the circuit
// name and flow stage instead of crashing the caller. A cancelled flow
// reports Cancelled — unless the body still finished with a legal placement
// (the cancel arrived too late to matter), which stays Ok so completed work
// is never thrown away.
template <class Fn>
FlowResult run_guarded(const char* flow_name, const netlist::Circuit& circuit,
                       const base::CancelToken& cancel, Fn&& body) {
  const auto t0 = Clock::now();
  if (cancel.cancelled()) {
    return error_result(
        circuit,
        aplace::Status::cancelled("flow cancelled before it started")
            .add_context(std::string(flow_name) + " flow on circuit '" +
                         circuit.name() + "'"),
        seconds_since(t0));
  }
  if (aplace::Status s = netlist::validate(circuit); !s.ok()) {
    s.add_context(std::string(flow_name) + " pre-flight validation of '" +
                  circuit.name() + "'");
    return error_result(circuit, std::move(s), seconds_since(t0));
  }
  // The flow root span starts a fresh trace tree (Root::New) so this
  // flow's subtree can be pulled out of the collector by root id — even
  // when the flow itself runs inside a batch job span.
  std::uint64_t span_root = 0;
  auto timed_body = [&]() -> FlowResult {
    obs::Span span(flow_name, obs::Span::Root::New);
    span_root = span.root_id();
    obs::counter("flow/runs").inc();
    return body();
  };
  auto attach_spans = [&](FlowResult& out) {
    if (span_root != 0) {
      out.spans = obs::SpanCollector::global().take_events_for_root(span_root);
    }
  };
  try {
    FlowResult out = timed_body();
    out.total_seconds = seconds_since(t0);
    attach_spans(out);
    if (!out.status.ok() && cancel.cancelled() &&
        out.status.code() != aplace::StatusCode::Cancelled) {
      // The failure happened while a cancellation was pending: the job was
      // truncated, not genuinely infeasible, so report it as Cancelled (a
      // non-terminal outcome the batch journal will re-run on resume).
      out.status = aplace::Status::cancelled("flow stopped by cancellation")
                       .add_context("pre-cancel status: " +
                                    out.status.to_string())
                       .add_context(std::string(flow_name) +
                                    " flow on circuit '" + circuit.name() +
                                    "'");
    }
    return out;
  } catch (const aplace::CheckError& e) {
    obs::counter("flow/errors").inc();
    FlowResult out = error_result(
        circuit,
        aplace::Status::internal(std::string("unhandled check failure: ") +
                                 e.what())
            .add_context(std::string(flow_name) + " flow on circuit '" +
                         circuit.name() + "'"),
        seconds_since(t0));
    attach_spans(out);  // the root span closed during unwinding
    return out;
  } catch (const std::exception& e) {
    obs::counter("flow/errors").inc();
    FlowResult out = error_result(
        circuit,
        aplace::Status::internal(std::string("unhandled exception: ") +
                                 e.what())
            .add_context(std::string(flow_name) + " flow on circuit '" +
                         circuit.name() + "'"),
        seconds_since(t0));
    attach_spans(out);
    return out;
  }
}

// Replace the GP hand-off with NaN (fault injection): exercises the
// sanitize-and-recover path of every legalizer.
void poison(numeric::Vec& positions) {
  std::fill(positions.begin(), positions.end(),
            std::numeric_limits<double>::quiet_NaN());
}

struct LegalizeOutcome {
  netlist::Placement placement;
  FallbackLevel level = FallbackLevel::None;
  aplace::Status status{};  ///< Ok iff `placement` is legal
};

// The legalization fallback chain. Levels, in order:
//   1. primary ILP (when `ilp` != nullptr)    -> FallbackLevel::None
//   2. rounded LP relaxation (flipping off)   -> FallbackLevel::RoundedLp
//   3. two-stage LP                           -> `two_stage_level`
//   4. greedy shift                           -> FallbackLevel::GreedyShift
// Every level runs behind a try/catch and its output is re-checked against
// the evaluator (a solver claiming Optimal does not get a free pass). The
// greedy level ignores the deadline on purpose: it is cheap and the chain
// must end with an answer. When all levels fail the returned status carries
// one trail note per failed level.
LegalizeOutcome legalize_chain(
    const std::shared_ptr<const netlist::CompiledCircuit>& compiled,
    std::span<const double> positions, const legal::IlpOptions* ilp,
    legal::TwoStageOptions two_opts, FallbackLevel two_stage_level,
    const Deadline& deadline, const base::CancelToken& cancel,
    const FaultInjection& inject) {
  const netlist::Circuit& circuit = compiled->circuit();
  LegalizeOutcome out{netlist::Placement(circuit)};
  const netlist::Evaluator eval(circuit);
  std::vector<std::string> failures;

  // Cancellation stops the chain between levels: unlike an expired deadline
  // (where the cheap greedy level still delivers an answer), a cancelled
  // batch wants its threads back, and the journal re-runs the job anyway.
  auto cancelled_out = [&]() {
    out.status = aplace::Status::cancelled(
        "legalization cancelled before the chain finished");
    for (std::string& f : failures) out.status.add_context(std::move(f));
    return std::move(out);
  };
  if (cancel.cancelled()) return cancelled_out();

  // Run one level: `attempt` returns a Status and fills `pl` on success.
  // Returns true when the level delivered a *legal* placement.
  // `span_name` labels the level's span and counters in the trace.
  auto attempt_level = [&](FallbackLevel level, const char* what,
                           const char* span_name, bool injected_failure,
                           auto&& attempt) {
    if (injected_failure) {
      failures.push_back(std::string(what) +
                         ": infeasible: fault injection forced failure");
      return false;
    }
    obs::Span span(span_name);
    obs::counter("legal/attempts").inc();
    netlist::Placement pl(circuit);
    aplace::Status s;
    try {
      s = attempt(pl);
    } catch (const aplace::CheckError& e) {
      s = aplace::Status::internal(std::string("check failure: ") + e.what());
    } catch (const std::exception& e) {
      s = aplace::Status::internal(std::string("exception: ") + e.what());
    }
    if (s.ok() && !eval.evaluate(pl).legal(1e-6)) {
      s = aplace::Status::infeasible(
          "solver reported success but the placement violates constraints");
    }
    if (s.ok()) {
      obs::counter(std::string(span_name) + "/success").inc();
      out.placement = std::move(pl);
      out.level = level;
      return true;
    }
    // Keep the latest failed attempt for diagnostics (the greedy level's
    // best-effort iterate when everything fails).
    obs::counter(std::string(span_name) + "/failed").inc();
    out.placement = std::move(pl);
    failures.push_back(std::string(what) + ": " + s.to_string());
    return false;
  };

  if (ilp != nullptr) {
    const bool primary_ok = attempt_level(
        FallbackLevel::None, "ILP legalization", "legal/ilp",
        inject.fail_primary_dp, [&](netlist::Placement& pl) {
          legal::IlpOptions o = *ilp;
          o.deadline = deadline;
          o.cancel = cancel;
          legal::IlpResult r =
              legal::IlpDetailedPlacer(compiled, o).place(positions);
          if (r.ok()) pl = std::move(r.placement);
          return r.outcome;
        });
    if (primary_ok) return out;
    if (cancel.cancelled()) return cancelled_out();

    const bool rounded_ok = attempt_level(
        FallbackLevel::RoundedLp, "rounded-LP legalization",
        "legal/rounded-lp", inject.fail_rounded_lp,
        [&](netlist::Placement& pl) {
          // Rounded LP relaxation: drop the flipping binaries and the
          // refine/reshape iterations so a single LP (plus the MILP
          // rounding fallback) decides the placement.
          legal::IlpOptions o = *ilp;
          o.deadline = deadline;
          o.cancel = cancel;
          o.enable_flipping = false;
          o.refine_rounds = 1;
          o.reshape_attempts = 0;
          legal::IlpResult r =
              legal::IlpDetailedPlacer(compiled, o).place(positions);
          if (r.ok()) pl = std::move(r.placement);
          return r.outcome;
        });
    if (rounded_ok) return out;
    if (cancel.cancelled()) return cancelled_out();
  }

  const bool two_ok = attempt_level(
      two_stage_level, "two-stage LP legalization", "legal/two-stage-lp",
      inject.fail_two_stage, [&](netlist::Placement& pl) {
        two_opts.deadline = deadline;
        two_opts.cancel = cancel;
        legal::TwoStageResult r =
            legal::TwoStageLpLegalizer(compiled, two_opts).place(positions);
        if (r.ok()) pl = std::move(r.placement);
        return r.outcome;
      });
  if (two_ok) return out;
  if (cancel.cancelled()) return cancelled_out();

  const bool greedy_ok = attempt_level(
      FallbackLevel::GreedyShift, "greedy-shift legalization",
      "legal/greedy-shift", false, [&](netlist::Placement& pl) {
        legal::GreedyShiftResult r =
            legal::GreedyShiftLegalizer(circuit).place(positions);
        pl = std::move(r.placement);  // best-effort iterate even on failure
        return r.outcome;
      });
  if (greedy_ok) return out;

  out.level = FallbackLevel::GreedyShift;
  out.status = aplace::Status::infeasible(
      "no legalization level produced a legal placement for '" +
      circuit.name() + "'");
  for (std::string& f : failures) out.status.add_context(std::move(f));
  return out;
}

}  // namespace

FlowResult run_eplace_a(const netlist::Circuit& circuit, EPlaceAOptions opts) {
  return run_guarded("ePlace-A", circuit, opts.cancel, [&]() -> FlowResult {
    APLACE_CHECK(opts.candidates >= 1);
    const Deadline& deadline = opts.deadline;
    const std::size_t num_cands = static_cast<std::size_t>(opts.candidates);
    // One compiled snapshot serves every candidate's GP and every legalizer
    // level; through the batch cache it also serves every other job on this
    // circuit.
    const std::shared_ptr<const netlist::CompiledCircuit> compiled =
        compile_or_fetch(opts.compile_cache, circuit);

    // Each candidate runs the full GP + legalization pipeline on its own
    // RNG stream split from the master seed: candidate k's stream does not
    // depend on how many candidates run (the old additive derivation,
    // seed + 48*k, aliased across runs and across the GP's internal
    // multi-start streams).
    auto run_candidate = [&](std::size_t k) -> FlowResult {
      obs::Span cand_span("flow/candidate");
      gp::EPlaceGpOptions gopts = opts.gp;
      gopts.seed = numeric::split_seed(opts.gp.seed, k);
      gopts.deadline = deadline;
      gopts.cancel = opts.cancel;

      const auto t0 = Clock::now();
      gp::GpResult gpr = [&] {
        obs::Span gp_span("gp/run");
        return gp::EPlaceGlobalPlacer(compiled, gopts).run();
      }();
      if (opts.inject.poison_gp) poison(gpr.positions);
      const double gp_s = seconds_since(t0);

      const auto t1 = Clock::now();
      LegalizeOutcome leg = [&] {
        obs::Span dp_span("flow/legalize");
        return legalize_chain(compiled, gpr.positions, &opts.dp, {},
                              FallbackLevel::TwoStageLp, deadline, opts.cancel,
                              opts.inject);
      }();
      const double dp_s = seconds_since(t1);

      FlowResult cand =
          assemble_result(circuit, std::move(leg.placement), gp_s, dp_s);
      cand.status = std::move(leg.status);
      cand.fallback = leg.level;
      cand.gp_diverged = gpr.diverged || opts.inject.poison_gp ||
                         !numeric::all_finite(gpr.positions);
      cand.deadline_hit = gpr.deadline_hit || deadline.expired();
      cand.gp_trace = std::move(gpr.trace);
      return cand;
    };

    std::vector<std::optional<FlowResult>> cands(num_cands);
    base::ThreadPool& pool = base::ThreadPool::global();
    if (pool.num_threads() > 1 && num_cands > 1) {
      // Concurrent candidates; each still honors the shared deadline
      // internally. Failures inside a task surface through the group and
      // are converted to a structured status by run_guarded.
      base::ThreadPool::TaskGroup group(pool);
      for (std::size_t k = 1; k < num_cands; ++k) {
        group.run([&, k] { cands[k] = run_candidate(k); });
      }
      cands[0] = run_candidate(0);
      group.wait();
    } else {
      for (std::size_t k = 0; k < num_cands; ++k) {
        // Later candidates are optional work; the first one runs even on an
        // expired budget so the flow still ends with a (degraded) answer.
        if (k > 0 && deadline.expired()) break;
        cands[k] = run_candidate(k);
      }
    }

    // Ordered best-of reduction (candidate index order): identical result
    // regardless of which thread finished first. Quality scales come from
    // the first legal candidate, as in the sequential original.
    FlowResult best{netlist::Placement(circuit), {}, 0, 0, 0};
    best.status = aplace::Status::internal("no candidate was evaluated");
    double best_score = std::numeric_limits<double>::infinity();
    double scale_area = 1.0, scale_hpwl = 1.0;
    bool have_ok = false, have_scales = false, skipped = false;
    double gp_total = 0, dp_total = 0;
    bool any_deadline_hit = false;
    // Candidate traces are folded after the reduction: the winner keeps its
    // weights/samples, eval counts and seconds sum over every candidate.
    std::vector<gp::TermTrace> traces;
    traces.reserve(cands.size());
    std::size_t best_trace = 0;

    for (std::optional<FlowResult>& cand_opt : cands) {
      if (!cand_opt.has_value()) {
        skipped = true;  // sequential path ran out of budget
        continue;
      }
      FlowResult& cand = *cand_opt;
      gp_total += cand.gp_seconds;
      dp_total += cand.dp_seconds;
      any_deadline_hit |= cand.deadline_hit;
      traces.push_back(std::move(cand.gp_trace));

      if (cand.ok()) {
        if (!have_scales) {
          scale_area = std::max(cand.quality.area, 1e-9);
          scale_hpwl = std::max(cand.quality.hpwl, 1e-9);
          have_scales = true;
        }
        const double score =
            cand.quality.area / scale_area + cand.quality.hpwl / scale_hpwl;
        if (!have_ok || score < best_score) {
          best_score = score;
          best = std::move(cand);
          best_trace = traces.size() - 1;
          have_ok = true;
        }
      } else if (!have_ok) {
        // No legal candidate yet: keep the structured failure.
        best = std::move(cand);
        best_trace = traces.size() - 1;
      }
    }
    if (!traces.empty()) {
      best.gp_trace = std::move(traces[best_trace]);
      for (std::size_t i = 0; i < traces.size(); ++i) {
        if (i != best_trace) best.gp_trace.merge_counts(traces[i]);
      }
    }
    gp::publish_trace_metrics(best.gp_trace);
    best.gp_seconds = gp_total;  // summed across candidates
    best.dp_seconds = dp_total;
    best.total_seconds = gp_total + dp_total;
    best.deadline_hit = any_deadline_hit || skipped;
    return best;
  });
}

FlowResult run_prior_work(const netlist::Circuit& circuit,
                          PriorWorkOptions opts) {
  return run_guarded("prior-work", circuit, opts.cancel,
                     [&]() -> FlowResult {
    const Deadline& deadline = opts.deadline;
    const std::shared_ptr<const netlist::CompiledCircuit> compiled =
        compile_or_fetch(opts.compile_cache, circuit);
    gp::NtuGpOptions gopts = opts.gp;
    gopts.deadline = deadline;
    gopts.cancel = opts.cancel;

    const auto t0 = Clock::now();
    gp::GpResult gpr = [&] {
      obs::Span gp_span("gp/run");
      return gp::PriorAnalyticalGlobalPlacer(compiled, gopts).run();
    }();
    if (opts.inject.poison_gp) poison(gpr.positions);
    const double gp_s = seconds_since(t0);

    const auto t1 = Clock::now();
    // The two-stage LP is this flow's *primary* legalizer (FallbackLevel
    // None on success); forcing it to fail via fail_primary_dp keeps the
    // injection knob uniform across flows.
    FaultInjection inject = opts.inject;
    inject.fail_two_stage |= inject.fail_primary_dp;
    LegalizeOutcome leg = [&] {
      obs::Span dp_span("flow/legalize");
      return legalize_chain(compiled, gpr.positions, nullptr, opts.dp,
                            FallbackLevel::None, deadline, opts.cancel,
                            inject);
    }();
    const double dp_s = seconds_since(t1);

    FlowResult out =
        assemble_result(circuit, std::move(leg.placement), gp_s, dp_s);
    out.status = std::move(leg.status);
    out.fallback = leg.level;
    out.gp_diverged = gpr.diverged || opts.inject.poison_gp ||
                      !numeric::all_finite(gpr.positions);
    out.deadline_hit = gpr.deadline_hit || deadline.expired();
    out.gp_trace = std::move(gpr.trace);
    gp::publish_trace_metrics(out.gp_trace);
    return out;
  });
}

FlowResult run_sa(const netlist::Circuit& circuit, SaFlowOptions opts) {
  return run_guarded("SA", circuit, opts.cancel, [&]() -> FlowResult {
    const Deadline& deadline = opts.deadline;
    const std::shared_ptr<const netlist::CompiledCircuit> compiled =
        compile_or_fetch(opts.compile_cache, circuit);
    sa::SaOptions sopts = opts.sa;
    sopts.deadline = deadline;
    sopts.cancel = opts.cancel;

    const auto t0 = Clock::now();
    sa::SaResult sar = [&] {
      obs::Span sa_span("sa/place");
      return sa::SaPlacer(compiled, sopts).place();
    }();
    const double sa_s = seconds_since(t0);

    FlowResult out =
        assemble_result(circuit, std::move(sar.placement), 0.0, sa_s);
    out.deadline_hit = sar.deadline_hit;
    out.sa_moves_per_second = sar.moves_per_second;
    out.sa_net_eval_ratio = sar.eval_stats.net_eval_ratio();
    if (out.quality.legal(1e-6) && !opts.inject.fail_primary_dp) {
      return out;
    }

    // Annealing left residual constraint violations (alignment/ordering are
    // only penalized, not enforced): repair with the analytical fallback
    // chain starting from the SA positions.
    const std::size_t n = circuit.num_devices();
    std::vector<double> pos(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Point p = out.placement.position(DeviceId{i});
      pos[i] = p.x;
      pos[n + i] = p.y;
    }
    const auto t1 = Clock::now();
    FaultInjection inject = opts.inject;
    inject.fail_two_stage |= inject.fail_primary_dp;
    LegalizeOutcome leg = [&] {
      obs::Span dp_span("flow/legalize");
      return legalize_chain(compiled, pos, nullptr, {},
                            FallbackLevel::TwoStageLp, deadline, opts.cancel,
                            inject);
    }();
    const double dp_s = seconds_since(t1);

    FlowResult repaired =
        assemble_result(circuit, std::move(leg.placement), 0.0, sa_s + dp_s);
    repaired.status = std::move(leg.status);
    repaired.fallback = leg.level;
    repaired.deadline_hit = out.deadline_hit || deadline.expired();
    repaired.sa_moves_per_second = out.sa_moves_per_second;
    repaired.sa_net_eval_ratio = out.sa_net_eval_ratio;
    return repaired;
  });
}

}  // namespace aplace::core
