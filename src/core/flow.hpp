#pragma once
// End-to-end conventional (performance-oblivious) placement flows — the
// three methods compared in paper Table III:
//
//   * run_eplace_a:   ePlace-A = Nesterov/electrostatics GP + single-stage
//                     ILP legalization/detailed placement with flipping.
//   * run_prior_work: the prior analytical method [11] = NTUplace3-style GP
//                     (LSE + bell density, CG) + two-stage LP, no flipping,
//                     no area term.
//   * run_sa:         simulated annealing over sequence pairs with symmetry
//                     islands.
//
// Each returns the legalized placement plus quality metrics, timing, and a
// structured account of how the answer was produced: a Status (Ok, or why
// the flow degraded/failed) and the FallbackLevel of the legalizer that
// actually delivered the placement. Flows never throw on malformed input or
// solver failure — netlist::validate() runs as a pre-flight check and
// escaped exceptions are converted to Internal statuses at the flow
// boundary.
//
// Each flow takes one stop handle, its options' `deadline`: a wall-clock
// budget that may carry a cancel token (base/deadline.hpp). Every engine
// loop polls deadline.expired() alone. The flow layer asks
// deadline.cancelled() first wherever it picks a status, so a cancel ends
// Cancelled and an expired budget degrades to cheaper fallbacks or ends
// BudgetExhausted.

#include "base/deadline.hpp"
#include "base/status.hpp"
#include "core/compile_cache.hpp"
#include "gp/eplace_gp.hpp"
#include "gp/ntu_gp.hpp"
#include "legal/greedy_shift.hpp"
#include "legal/ilp_detailed.hpp"
#include "legal/two_stage_lp.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/validate.hpp"
#include "obs/span.hpp"
#include "sa/annealer.hpp"

namespace aplace::core {

/// Which legalizer in the fallback chain produced the final placement.
/// The ePlace-A chain is: ILP (None) -> rounded LP relaxation (RoundedLp)
/// -> two-stage LP (TwoStageLp) -> greedy shift (GreedyShift). The
/// prior-work flow starts at its own two-stage LP (None) and falls back to
/// GreedyShift; the SA flow reports None when annealing itself ended legal.
enum class FallbackLevel : std::uint8_t {
  None,         ///< the flow's primary legalizer succeeded
  RoundedLp,    ///< ILP relaxation with flipping off, single round
  TwoStageLp,   ///< two-stage LP legalizer as fallback
  GreedyShift,  ///< greedy shift last resort
};

inline const char* to_string(FallbackLevel f) {
  switch (f) {
    case FallbackLevel::None: return "none";
    case FallbackLevel::RoundedLp: return "rounded-lp";
    case FallbackLevel::TwoStageLp: return "two-stage-lp";
    case FallbackLevel::GreedyShift: return "greedy-shift";
  }
  return "?";
}

/// Deterministic fault injection for the robustness test harness: force
/// individual fallback levels to fail (as if infeasible) or poison the GP
/// hand-off with NaN, so every link of the chain can be exercised on
/// circuits that would otherwise legalize first try.
struct FaultInjection {
  bool fail_primary_dp = false;  ///< primary legalizer reports Infeasible
  bool fail_rounded_lp = false;  ///< rounded-LP fallback reports Infeasible
  bool fail_two_stage = false;   ///< two-stage fallback reports Infeasible
  bool poison_gp = false;        ///< replace the GP hand-off with NaN
};

struct FlowResult {
  netlist::Placement placement;
  netlist::QualityReport quality{};  ///< post-detailed-placement metrics
  double gp_seconds = 0;
  double dp_seconds = 0;
  double total_seconds = 0;
  /// How the flow ended. Ok means `placement` is legal; otherwise the code
  /// and trail explain the failure (InvalidInput, Infeasible, ...) and
  /// `placement` is best-effort diagnostics only.
  aplace::Status status{};
  FallbackLevel fallback = FallbackLevel::None;
  bool gp_diverged = false;   ///< GP watchdog tripped; hand-off was rescued
  /// Some stage stopped early, by the budget or by a cancel (a skipped
  /// candidate counts).
  bool deadline_hit = false;
  /// Per-objective-term observability from the global placer (eval counts
  /// and seconds aggregated over every candidate; weights and convergence
  /// samples from the winning candidate). Empty for the SA flow.
  gp::TermTrace gp_trace{};
  /// SA-flow throughput observability (0 for the analytical flows):
  /// annealer moves per second, and the fraction of nets the incremental
  /// evaluator actually re-evaluated per move (1.0 would mean no caching).
  double sa_moves_per_second = 0;
  double sa_net_eval_ratio = 0;
  /// This flow's span tree (stage timings: GP, each legalizer attempt,
  /// evaluation, the SA anneal, ...), extracted from the global SpanCollector
  /// at the flow boundary. Empty when observability is disabled. Render
  /// with obs::chrome_trace_json() for chrome://tracing.
  std::vector<obs::SpanEvent> spans{};

  [[nodiscard]] double area() const { return quality.area; }
  [[nodiscard]] double hpwl() const { return quality.hpwl; }
  [[nodiscard]] bool legal(double tol = 1e-6) const {
    return quality.legal(tol);
  }
  [[nodiscard]] bool ok() const { return status.ok(); }
};

struct EPlaceAOptions {
  gp::EPlaceGpOptions gp;
  legal::IlpOptions dp;
  /// Independent GP+DP candidates (different GP seed groups); the best
  /// placement by normalized area+wirelength is kept. Candidates run
  /// concurrently on the global thread pool, each on an RNG stream split
  /// from gp.seed, with an ordered best-of reduction — the chosen result is
  /// identical for every thread count.
  int candidates = 2;
  /// Stop handle for the whole flow: the wall-clock budget and the cancel
  /// token (Deadline::with_cancel), unlimited by default; the batch driver
  /// hands one Deadline to every job. On an expired budget the remaining
  /// stages degrade (cheaper fallbacks) instead of overrunning. On a cancel
  /// in-flight stages stop at their next poll and the flow reports
  /// Cancelled (unless it already finished with a legal placement, which
  /// stays Ok).
  Deadline deadline;
  FaultInjection inject;
  /// Shared compiled-snapshot cache. The batch driver injects one cache
  /// into every job so a circuit is compiled once per batch instead of once
  /// per job; null (the default) compiles a private snapshot.
  std::shared_ptr<CompileCache> compile_cache;
};

struct PriorWorkOptions {
  gp::NtuGpOptions gp;
  legal::TwoStageOptions dp;
  Deadline deadline;  ///< budget and cancel token (see EPlaceAOptions)
  FaultInjection inject;
  /// Shared compiled-snapshot cache (see EPlaceAOptions::compile_cache).
  std::shared_ptr<CompileCache> compile_cache;
};

struct SaFlowOptions {
  sa::SaOptions sa;
  Deadline deadline;  ///< budget and cancel token (see EPlaceAOptions)
  FaultInjection inject;
  /// Shared compiled-snapshot cache (see EPlaceAOptions::compile_cache).
  std::shared_ptr<CompileCache> compile_cache;
};

[[nodiscard]] FlowResult run_eplace_a(const netlist::Circuit& circuit,
                                      EPlaceAOptions opts = {});
[[nodiscard]] FlowResult run_prior_work(const netlist::Circuit& circuit,
                                        PriorWorkOptions opts = {});
[[nodiscard]] FlowResult run_sa(const netlist::Circuit& circuit,
                                SaFlowOptions opts = {});

}  // namespace aplace::core
