#include "gp/ntu_gp.hpp"

#include <cmath>
#include <numbers>

#include <algorithm>

#include "numeric/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::gp {

PriorAnalyticalGlobalPlacer::PriorAnalyticalGlobalPlacer(
    netlist::CompiledRef compiled, NtuGpOptions opts)
    : compiled_(std::move(compiled)),
      opts_(opts),
      region_([&] {
        const double side =
            std::sqrt(compiled_->total_device_area() / opts.utilization);
        return geom::Rect{0, 0, side, side};
      }()),
      wl_(compiled_),
      dens_(compiled_, region_, opts.bins, opts.bins, opts.target_density),
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

  scheduler_ = std::make_unique<WeightScheduler>(obj);
  using Rule = WeightScheduler::Rule;
  scheduler_->set_rule("wirelength", {.init = Rule::Init::Fixed, .rel = 1.0});
  scheduler_->set_rule("density", {.init = Rule::Init::RelToRefGrad,
                                   .rel = opts_.beta_rel,
                                   .growth = opts_.beta_growth});
  scheduler_->set_rule("symmetry", {.init = Rule::Init::RelToRefGrad,
                                    .rel = opts_.tau_rel,
                                    .growth = opts_.tau_growth});
  scheduler_->set_rule("common-centroid", {.init = Rule::Init::TiedTo,
                                           .rel = opts_.tau_rel,
                                           .tied_to = "symmetry",
                                           .tied_rel = opts_.tau_rel,
                                           .growth = opts_.tau_growth});
  scheduler_->set_rule("alignment", {.init = Rule::Init::TiedTo,
                                     .rel = opts_.align_rel,
                                     .tied_to = "symmetry",
                                     .tied_rel = opts_.tau_rel,
                                     .growth = opts_.tau_growth});
  scheduler_->set_rule("ordering", {.init = Rule::Init::TiedTo,
                                    .rel = opts_.order_rel,
                                    .tied_to = "symmetry",
                                    .tied_rel = opts_.tau_rel,
                                    .growth = opts_.tau_growth});
  scheduler_->set_rule("boundary", {.init = Rule::Init::RefOverScale,
                                    .rel = opts_.boundary_rel,
                                    .scale_div = dens_.grid().bin_w()});
  if (extra_) {
    scheduler_->set_rule(std::string(extra_->name()),
                         {.init = Rule::Init::RelToRefGrad,
                          .rel = opts_.extra_rel});
  }
}

GpResult PriorAnalyticalGlobalPlacer::run() {
  build_objective();
  const std::size_t n = compiled_->num_devices();
  numeric::Vec v(2 * n);

  numeric::Rng rng(opts_.seed);
  const geom::Point c = region_.center();
  const double r0 = 0.02 * region_.width();
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  for (std::size_t i = 0; i < n; ++i) {
    const double r = r0 * std::sqrt(static_cast<double>(i) + 0.5);
    const double th = golden * static_cast<double>(i) + rng.uniform(0, 0.05);
    v[i] = c.x + r * std::cos(th);
    v[n + i] = c.y + r * std::sin(th);
  }

  const double bin_w = dens_.grid().bin_w();
  double gamma = bin_w * 8.0;
  wl_.set_gamma(gamma);

  CompositeObjective& obj = *objective_;
  scheduler_->calibrate(v, "wirelength");

  GpResult result;
  numeric::CgOptions copts;
  copts.max_iters = opts_.inner_iters;
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
    if (outer >= 1 && overflow < opts_.stop_overflow) break;
    scheduler_->advance();  // NTUplace3-style outer ramp
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
