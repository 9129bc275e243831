#include "gp/ntu_gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::gp {
namespace {

/// The outer loop iterates all the way down to DP hand-off quality, and
/// ramps much harder per round than ePlace-A does per iteration.
constexpr double kStopOverflow = 0.07;
/// Symmetry/alignment/ordering weight growth per outer round.
constexpr double kTauGrowth = 1.5;
constexpr int kInnerIters = 60;      ///< CG iterations per outer round
constexpr double kBetaRel = 0.03;    ///< initial density weight vs. WL gradient
constexpr double kBetaGrowth = 2.0;  ///< density ramp per outer round

/// Term indices: the registration order of build_objective(), which is
/// also the accumulation order.
enum Term : std::size_t {
  kWirelength,
  kDensity,
  kSymmetry,
  kCentroid,
  kAlignment,
  kOrdering,
  kBoundary,
  kExtra,  ///< registered only when an extra term is set
};
/// The terms whose weights grow by kTauGrowth per outer round.
constexpr std::array kTauTerms{kSymmetry, kCentroid, kAlignment, kOrdering};

}  // namespace

PriorAnalyticalGlobalPlacer::PriorAnalyticalGlobalPlacer(
    netlist::CompiledRef compiled, NtuGpOptions opts)
    : compiled_(std::move(compiled)),
      opts_(opts),
      region_(placement_region(*compiled_, opts.utilization)),
      wl_(compiled_),
      dens_(compiled_, region_, opts.bins, opts.bins, kTargetDensity),
      pen_(compiled_) {}

void PriorAnalyticalGlobalPlacer::set_extra_term(
    std::shared_ptr<ObjectiveTerm> term) {
  extra_ = std::move(term);
}

void PriorAnalyticalGlobalPlacer::build_objective() {
  objective_ =
      std::make_unique<CompositeObjective>(2 * compiled_->num_devices());
  CompositeObjective& obj = *objective_;
  // Same term families as ePlace-A minus the area term, with the bell
  // density kernel; registration order is the accumulation order.
  obj.add_term(std::make_shared<SmoothWirelengthTerm>(wl_, "wirelength"));
  obj.add_term(std::make_shared<BellDensityTerm>(dens_));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Symmetry));
  obj.add_term(
      std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::CommonCentroid));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Alignment));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, PenaltyTerm::Kind::Ordering));
  obj.add_term(std::make_shared<PenaltyTerm>(pen_, region_));
  if (extra_) obj.add_term(extra_);
  APLACE_DCHECK(obj.num_terms() == (extra_ ? kExtra + 1 : kExtra));
}

GpResult PriorAnalyticalGlobalPlacer::run() {
  build_objective();
  const std::size_t n = compiled_->num_devices();
  numeric::Vec v(2 * n);
  spiral_start(region_, opts_.seed, v);

  const double bin_w = dens_.grid().bin_w();
  double gamma = bin_w * 8.0;
  wl_.set_gamma(gamma);

  // Same calibration as ePlace-A, against the wirelength gradient.
  CompositeObjective& obj = *objective_;
  const double ref = std::max(obj.probe_grad_magnitude(kWirelength, v), 1e-12);
  calibrate_weight(obj, kDensity, v, ref, kBetaRel);
  const double w_sym = calibrate_weight(obj, kSymmetry, v, ref, kTauRel);
  obj.set_weight(kBoundary, kBoundaryRel * ref / bin_w);
  if (extra_) calibrate_weight(obj, kExtra, v, ref, opts_.extra_rel);
  obj.set_weight(kCentroid, w_sym);
  obj.set_weight(kAlignment, w_sym * kAlignRel / kTauRel);
  obj.set_weight(kOrdering, w_sym * kOrderRel / kTauRel);

  GpResult result;
  numeric::CgOptions copts;
  copts.max_iters = kInnerIters;
  copts.initial_step = 0.2 * bin_w;
  copts.deadline = opts_.deadline;
  copts.cancel = opts_.cancel;
  const numeric::CgSolver cg(copts);

  auto objective = [&obj](std::span<const double> vv, std::span<double> grad) {
    return obj.value_and_grad(vv, grad);
  };

  for (int outer = 0; outer < opts_.outer_iters; ++outer) {
    if (opts_.deadline.expired()) {
      result.deadline_hit = true;
      break;
    }
    if (opts_.cancel.cancelled()) {
      result.cancelled = true;
      break;
    }
    obs::Span outer_span("gp/outer");
    obs::counter("gp/outer_iters").inc();
    numeric::CgInfo cinfo;
    const int before = result.iterations;
    result.iterations +=
        cg.minimize(v, objective,
                    [](const numeric::CgState&, std::span<const double>) {
                      return true;
                    },
                    &cinfo);
    obs::counter("gp/iterations").add(
        static_cast<std::uint64_t>(std::max(result.iterations - before, 0)));
    result.diverged |= cinfo.diverged;
    result.deadline_hit |= cinfo.deadline_hit;
    result.cancelled |= cinfo.cancelled;
    obj.sample(outer);
    // v was rolled back to the last healthy iterate; doubling the density
    // weight and continuing from a poisoned trajectory rarely helps, so
    // hand off what we have.
    if (cinfo.diverged || cinfo.deadline_hit || cinfo.cancelled) break;
    const double overflow = dens_.overflow();
    if (outer >= 1 && overflow < kStopOverflow) break;
    // NTUplace3-style outer ramp.
    obj.scale_weight(kDensity, kBetaGrowth);
    for (const Term t : kTauTerms) obj.scale_weight(t, kTauGrowth);
    gamma = bin_w * (0.5 + 8.0 * std::clamp(overflow, 0.0, 1.0));
    wl_.set_gamma(gamma);
  }

  result.overflow = dens_.overflow();
  result.hpwl = wl_.exact_hpwl(v);
  result.positions = std::move(v);
  result.trace = obj.trace();
  return result;
}

}  // namespace aplace::gp
