#include "gp/eplace_gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "netlist/placement.hpp"
#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::gp {
namespace {

/// Stop once density overflow drops below this; the ILP detailed placer
/// removes the residual.
constexpr double kStopOverflow = 0.18;
/// Symmetry/alignment/ordering weight growth per Nesterov iteration.
constexpr double kTauGrowth = 1.04;
/// Initial density weight, relative to the wirelength gradient.
constexpr double kLambdaRel = 0.06;
/// Density weight growth per iteration (phase 2); phase 1 raises it to a
/// self-adaptive exponent.
constexpr double kLambdaGrowth = 1.05;

/// Term indices: the registration order of build_objective(), which is
/// also the accumulation order.
enum Term : std::size_t {
  kWirelength,
  kDensity,
  kSymmetry,
  kCentroid,
  kArea,
  kAlignment,
  kOrdering,
  kBoundary,
  kExtra,  ///< registered only when an extra term is set
};
/// The terms whose weights grow by kTauGrowth per iteration.
constexpr std::array kTauTerms{kSymmetry, kCentroid, kAlignment, kOrdering};

}  // namespace

EPlaceGlobalPlacer::EPlaceGlobalPlacer(netlist::CompiledRef compiled,
                                       EPlaceGpOptions opts)
    : compiled_(std::move(compiled)),
      opts_(opts),
      region_(placement_region(*compiled_, opts.utilization)),
      wl_owner_(opts.smoothing == WlSmoothing::WeightedAverage
                    ? std::unique_ptr<wirelength::SmoothWirelength>(
                          std::make_unique<wirelength::WaWirelength>(compiled_))
                    : std::make_unique<wirelength::LseWirelength>(compiled_)),
      wl_(*wl_owner_),
      area_(compiled_),
      dens_(compiled_, region_, kBins, kBins, kTargetDensity),
      pen_(compiled_) {}

void EPlaceGlobalPlacer::set_extra_term(std::shared_ptr<ObjectiveTerm> term) {
  extra_ = std::move(term);
}

void EPlaceGlobalPlacer::build_objective() {
  objective_ =
      std::make_unique<CompositeObjective>(2 * compiled_->num_devices());
  CompositeObjective& obj = *objective_;
  // Registration order IS the accumulation order; keep wirelength first
  // (the calibration reference) and the extra term last.
  obj.add_term(std::make_shared<SmoothWirelengthTerm>(wl_, "wirelength"));
  obj.add_term(std::make_shared<ElectroDensityTerm>(dens_));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Symmetry));
  obj.add_term(
      std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::CommonCentroid));
  // The area term stays registered (visible in traces) even when disabled
  // by eta_rel <= 0 — the Fig. 2 ablation flips `enabled`, nothing else.
  obj.add_term(std::make_shared<SmoothAreaTerm>(area_), 0.0,
               opts_.eta_rel > 0);
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Alignment));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Ordering));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, region_));
  if (extra_) obj.add_term(extra_);
  APLACE_DCHECK(obj.num_terms() == (extra_ ? kExtra + 1 : kExtra));
}

GpResult EPlaceGlobalPlacer::run() {
  build_objective();
  // Multi-start: Nesterov trajectories from clustered inits are sensitive
  // to the initial jitter, so run a few deterministic seeds and keep the
  // best hand-off state. Each start is a few hundred cheap iterations; the
  // total stays far below the SA baseline's budget.
  GpResult best;
  double best_score = std::numeric_limits<double>::infinity();
  bool any_deadline_hit = false;
  for (int k = 0; k < opts_.num_starts; ++k) {
    // Keep whatever starts already finished when the budget runs out.
    if (k > 0 && opts_.deadline.expired()) {
      any_deadline_hit = true;
      break;
    }
    // Stream-split rather than additive (seed + stride*k) derivation: start
    // k must be independent of the start count and must not collide with
    // the candidate-level streams the flow splits from the same master.
    GpResult r = [&] {
      obs::Span span("gp/start");
      return run_single(
          numeric::split_seed(opts_.seed, static_cast<std::uint64_t>(k)));
    }();
    obs::counter("gp/starts").inc();
    obs::counter("gp/iterations").add(static_cast<std::uint64_t>(
        std::max(r.iterations, 0)));
    any_deadline_hit |= r.deadline_hit;
    const std::size_t n = compiled_->num_devices();
    netlist::Placement pl(compiled_->circuit());
    for (std::size_t i = 0; i < n; ++i) {
      pl.set_position(DeviceId{i}, {r.positions[i], r.positions[n + i]});
    }
    // Score the hand-off: wirelength + area + residual-overlap penalty (a
    // proxy for how much the ILP will have to distort it). When an extra
    // (GNN) term is installed, prefer hand-offs the model likes too.
    double score = pl.total_hpwl() + std::sqrt(pl.layout_area()) +
                   4.0 * pl.total_overlap_area();
    if (extra_) {
      numeric::Vec tmp(2 * n, 0.0);
      const double phi = extra_->value_and_grad(r.positions, tmp, 1.0);
      score *= 1.0 + phi;
    }
    if (score < best_score) {
      best_score = score;
      best = std::move(r);
    }
  }
  best.deadline_hit |= any_deadline_hit;
  // The trace accumulates over every start: the counters and the decimated
  // sample history cover the whole run, the last values the last start.
  best.trace = objective_->trace();
  return best;
}

GpResult EPlaceGlobalPlacer::run_single(std::uint64_t seed) {
  const std::size_t n = compiled_->num_devices();
  numeric::Vec v(2 * n);
  spiral_start(region_, seed, v);

  // --- calibrate weights from initial gradient magnitudes -------------------
  const double bin_w = dens_.grid().bin_w();
  double gamma = bin_w * 8.0;
  wl_.set_gamma(gamma);
  area_.set_gamma(gamma);

  // Wirelength (weight 1) is the reference every calibrated weight is
  // relative to; its gradient magnitude is also the score's length scale.
  CompositeObjective& obj = *objective_;
  const double mw = std::max(obj.probe_grad_magnitude(kWirelength, v), 1e-12);
  calibrate_weight(obj, kDensity, v, mw, kLambdaRel);
  const double w_sym = calibrate_weight(obj, kSymmetry, v, mw, kTauRel);
  if (opts_.eta_rel > 0) calibrate_weight(obj, kArea, v, mw, opts_.eta_rel);
  // Boundary hinge: strong enough to dominate the wirelength pull within a
  // fraction of a bin of escaping the region.
  obj.set_weight(kBoundary, kBoundaryRel * mw / bin_w);
  // The extra (GNN) term is calibrated against the wirelength gradient so
  // its forces are comparable regardless of model scale.
  if (extra_) calibrate_weight(obj, kExtra, v, mw, opts_.extra_rel);
  // Common-centroid, alignment and ordering share the symmetry scale: their
  // gradients are position-scale residuals like Sym's.
  obj.set_weight(kCentroid, w_sym);
  obj.set_weight(kAlignment, w_sym * kAlignRel / kTauRel);
  obj.set_weight(kOrdering, w_sym * kOrderRel / kTauRel);
  if (opts_.hard_symmetry) {
    // Rigid symmetry: 50x weight held flat (no growth), stiffer
    // alignment/ordering, plus projection onto the symmetric set.
    obj.scale_weight(kSymmetry, 50.0);
    obj.scale_weight(kCentroid, 50.0);
    obj.scale_weight(kAlignment, 4.0);
    obj.scale_weight(kOrdering, 4.0);
    pen_.project_symmetry(v);
  }

  auto gradient = [&obj](std::span<const double> vv, std::span<double> grad) {
    obj.value_and_grad(vv, grad);
  };

  GpResult result;
  numeric::NesterovOptions nopts;
  nopts.max_iters = opts_.max_iters;
  nopts.initial_step = 0.1 * bin_w;
  nopts.deadline = opts_.deadline;
  numeric::NesterovSolver solver(nopts);
  numeric::NesterovInfo ninfo;

  double last_hpwl = wl_.exact_hpwl(v);
  // Track the best iterate seen: Nesterov is not a descent method, and the
  // density force keeps spreading devices after the wirelength-optimal
  // configuration has been passed. Any iterate with acceptable overflow is
  // a valid hand-off to the ILP detailed placer, so keep the best-scoring
  // one (HPWL + area, the same mix the DP optimizes).
  numeric::Vec best_v = v;
  double best_score = std::numeric_limits<double>::infinity();
  const double overflow_gate = std::max(0.35, kStopOverflow);
  result.iterations = solver.minimize(
      v, gradient,
      [&](const numeric::NesterovState& st, std::span<const double> vv) {
        const double overflow = dens_.overflow();
        if (overflow <= overflow_gate) {
          const double area_now = area_.exact_area(vv);
          const double score =
              wl_.exact_hpwl(vv) + 0.5 * mw * std::sqrt(area_now);
          if (score < best_score) {
            best_score = score;
            best_v.assign(vv.begin(), vv.end());
          }
        }
        // Anneal smoothing with overflow; ramp penalty weights.
        gamma = bin_w * (0.5 + 8.0 * std::clamp(overflow, 0.0, 1.0));
        wl_.set_gamma(gamma);
        area_.set_gamma(gamma);
        // ePlace-style self-adaptive density weight: lambda grows while the
        // wirelength is stable and *shrinks* when it deteriorates, keeping
        // the two forces balanced throughout the run.
        const double hpwl = wl_.exact_hpwl(vv);
        const double rel = (hpwl - last_hpwl) / std::max(last_hpwl, 1e-9);
        last_hpwl = hpwl;
        const double exponent = std::clamp(1.0 - rel / 0.01, -3.0, 1.0);
        obj.scale_weight(kDensity, std::pow(kLambdaGrowth, exponent));
        if (!opts_.hard_symmetry) {
          for (const Term t : kTauTerms) obj.scale_weight(t, kTauGrowth);
        }
        obj.sample(st.iter);
        // A minimum iteration count lets wirelength/area optimization act
        // even when the initial state is accidentally overlap-free.
        return st.iter < kMinIters || overflow >= kStopOverflow;
      },
      &ninfo);
  result.diverged |= ninfo.diverged;
  result.deadline_hit |= ninfo.deadline_hit;

  if (best_score < std::numeric_limits<double>::infinity()) v = best_v;

  // --- phase 2: spreading ----------------------------------------------------
  // Restart from the best wirelength-quality iterate and drive the overlap
  // down with a monotone density ramp (classic ePlace schedule). The best
  // low-overflow iterate becomes the hand-off to the detailed placer, whose
  // pair directions are only reliable when residual overlap is small.
  if (!opts_.deadline.expired()) {
    // Refresh overflow at the restart point (best_v, not the last iterate).
    obj.probe_grad_magnitude(kDensity, v);
    double best2_score = std::numeric_limits<double>::infinity();
    numeric::Vec best2_v = v;
    const double gate2 = 0.16;
    numeric::NesterovOptions n2 = nopts;
    n2.max_iters = opts_.max_iters / 2;
    const numeric::NesterovSolver spread(n2);
    numeric::NesterovInfo sinfo;
    const int phase1_iters = result.iterations;
    result.iterations += spread.minimize(
        v, gradient,
        [&](const numeric::NesterovState& st, std::span<const double> vv) {
          const double overflow = dens_.overflow();
          if (overflow <= gate2) {
            const double score = wl_.exact_hpwl(vv) +
                                 0.5 * mw * std::sqrt(area_.exact_area(vv));
            if (score < best2_score) {
              best2_score = score;
              best2_v.assign(vv.begin(), vv.end());
            }
          }
          gamma = bin_w * (0.5 + 8.0 * std::clamp(overflow, 0.0, 1.0));
          wl_.set_gamma(gamma);
          area_.set_gamma(gamma);
          // Monotone density ramp: legality first.
          obj.scale_weight(kDensity, kLambdaGrowth);
          obj.sample(phase1_iters + st.iter);
          return st.iter < 10 || overflow >= kStopOverflow;
        },
        &sinfo);
    result.diverged |= sinfo.diverged;
    result.deadline_hit |= sinfo.deadline_hit;
    if (best2_score < std::numeric_limits<double>::infinity()) v = best2_v;
  } else {
    result.deadline_hit = true;
  }

  if (opts_.hard_symmetry) pen_.project_symmetry(v);
  result.overflow = dens_.overflow();
  result.hpwl = wl_.exact_hpwl(v);
  result.positions = std::move(v);
  return result;
}

}  // namespace aplace::gp
