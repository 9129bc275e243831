#include "gp/objective.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>

#include "numeric/rng.hpp"
#include "obs/metrics.hpp"

namespace aplace::gp {
namespace {

using Clock = std::chrono::steady_clock;

// Mean absolute value (the gradient-magnitude proxy both placers used).
double mean_abs(std::span<const double> g) {
  double s = 0;
  for (double x : g) s += std::abs(x);
  return s / static_cast<double>(std::max<std::size_t>(g.size(), 1));
}

// Mean absolute element-wise difference |a - b| (the weighted contribution
// a term just added to the shared gradient buffer).
double mean_abs_diff(std::span<const double> a, std::span<const double> b) {
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += std::abs(a[i] - b[i]);
  return s / static_cast<double>(std::max<std::size_t>(a.size(), 1));
}

}  // namespace

// ---- TermTrace --------------------------------------------------------------

double TermTrace::total_seconds() const {
  double s = 0;
  for (const TermStats& t : terms) s += t.seconds;
  return s;
}

const TermStats* TermTrace::find(std::string_view name) const {
  for (const TermStats& t : terms) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

void TermTrace::merge_counts(const TermTrace& other) {
  for (const TermStats& o : other.terms) {
    bool matched = false;
    for (TermStats& t : terms) {
      if (t.name == o.name) {
        t.evals += o.evals;
        t.seconds += o.seconds;
        matched = true;
        break;
      }
    }
    if (!matched) terms.push_back(o);
  }
}

void publish_trace_metrics(const TermTrace& trace) {
  if (!obs::enabled() || trace.empty()) return;
  for (const TermStats& t : trace.terms) {
    // Per-term eval totals as counters; per-run seconds as one histogram
    // sample per flow, so count = flows run and sum = cumulative seconds.
    obs::counter("gp/term/" + t.name + "/evals").add(t.evals);
    obs::histogram("gp/term/" + t.name + "/run_seconds").record(t.seconds);
  }
}

// ---- CompositeObjective -----------------------------------------------------

CompositeObjective::CompositeObjective(std::size_t num_vars)
    : num_vars_(num_vars), scratch_(num_vars, 0.0) {}

std::size_t CompositeObjective::add_term(std::shared_ptr<ObjectiveTerm> term,
                                         double weight, bool enabled) {
  APLACE_CHECK(term != nullptr);
  TermStats stats;
  stats.name = std::string(term->name());
  stats.cost = term->cost();
  stats.weight = weight;
  trace_.terms.push_back(std::move(stats));
  terms_.push_back(Entry{std::move(term), weight, enabled});
  return terms_.size() - 1;
}

double CompositeObjective::weight(std::size_t term) const {
  APLACE_DCHECK(term < terms_.size());
  return terms_[term].weight;
}

void CompositeObjective::set_weight(std::size_t term, double w) {
  APLACE_DCHECK(term < terms_.size());
  terms_[term].weight = w;
  trace_.terms[term].weight = w;
}

void CompositeObjective::scale_weight(std::size_t term, double factor) {
  APLACE_DCHECK(term < terms_.size());
  terms_[term].weight *= factor;
  trace_.terms[term].weight = terms_[term].weight;
}

double CompositeObjective::value_and_grad(std::span<const double> v,
                                          std::span<double> grad) {
  APLACE_DCHECK(v.size() == num_vars_ && grad.size() == num_vars_);
  std::fill(grad.begin(), grad.end(), 0.0);
  double total = 0;
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    Entry& e = terms_[i];
    if (!e.enabled) continue;
    // Snapshot the running gradient so the term's own (weighted)
    // contribution can be measured without perturbing the accumulation.
    std::copy(grad.begin(), grad.end(), scratch_.begin());
    const auto t0 = Clock::now();
    const double val = e.term->value_and_grad(v, grad, e.weight);
    TermStats& st = trace_.terms[i];
    st.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
    ++st.evals;
    st.value = val;
    st.weight = e.weight;
    st.grad_norm = mean_abs_diff(grad, scratch_);
    total += e.weight * val;
  }
  return total;
}

double CompositeObjective::probe_grad_magnitude(std::size_t term_index,
                                                std::span<const double> v) {
  APLACE_CHECK(term_index < terms_.size());
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  const auto t0 = Clock::now();
  const double val =
      terms_[term_index].term->value_and_grad(v, scratch_, 1.0);
  TermStats& st = trace_.terms[term_index];
  st.seconds += std::chrono::duration<double>(Clock::now() - t0).count();
  ++st.evals;
  st.value = val;
  return mean_abs(scratch_);
}

void CompositeObjective::sample(int iter) {
  ++sample_calls_;
  if ((sample_calls_ - 1) % trace_.sample_stride != 0) return;
  TermTrace::Sample s;
  s.iter = iter;
  s.values.reserve(trace_.terms.size());
  s.weights.reserve(trace_.terms.size());
  s.grad_norms.reserve(trace_.terms.size());
  for (const TermStats& t : trace_.terms) {
    s.values.push_back(t.value);
    s.weights.push_back(t.weight);
    s.grad_norms.push_back(t.grad_norm);
  }
  trace_.samples.push_back(std::move(s));
  // Decimate: drop every other retained sample and double the stride, so
  // arbitrarily long runs keep <= kMaxSamples entries spread evenly.
  if (trace_.samples.size() > static_cast<std::size_t>(kMaxSamples)) {
    std::vector<TermTrace::Sample> kept;
    kept.reserve(trace_.samples.size() / 2 + 1);
    for (std::size_t i = 0; i < trace_.samples.size(); i += 2) {
      kept.push_back(std::move(trace_.samples[i]));
    }
    trace_.samples = std::move(kept);
    trace_.sample_stride *= 2;
  }
}

// ---- shared placer set-up ---------------------------------------------------

double calibrate_weight(CompositeObjective& obj, std::size_t term,
                        std::span<const double> v0, double ref, double rel) {
  const double mag = obj.probe_grad_magnitude(term, v0);
  const double w = mag > 1e-12 ? rel * ref / mag : rel;
  obj.set_weight(term, w);
  return w;
}

geom::Rect placement_region(const netlist::CompiledCircuit& cc,
                            double utilization) {
  const double side = std::sqrt(cc.total_device_area() / utilization);
  return {0, 0, side, side};
}

void spiral_start(const geom::Rect& region, std::uint64_t seed,
                  std::span<double> v) {
  const std::size_t n = v.size() / 2;
  numeric::Rng rng(seed);
  const geom::Point c = region.center();
  const double r0 = 0.02 * region.width();
  const double golden = std::numbers::pi * (3.0 - std::sqrt(5.0));
  for (std::size_t i = 0; i < n; ++i) {
    const double r = r0 * std::sqrt(static_cast<double>(i) + 0.5);
    const double th = golden * static_cast<double>(i) + rng.uniform(0, 0.05);
    v[i] = c.x + r * std::cos(th);
    v[n + i] = c.y + r * std::sin(th);
  }
}

// ---- adapters ---------------------------------------------------------------

double SmoothWirelengthTerm::value_and_grad(std::span<const double> v,
                                            std::span<double> grad,
                                            double scale) {
  if (scale == 1.0) return wl_->value_and_grad(v, grad);
  if (scratch_.size() != grad.size()) scratch_.assign(grad.size(), 0.0);
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  const double val = wl_->value_and_grad(v, scratch_);
  numeric::axpy(scale, scratch_, grad);
  return val;
}

PenaltyTerm::PenaltyTerm(const ConstraintPenalties& pen, Kind kind)
    : pen_(&pen), kind_(kind) {
  APLACE_CHECK(kind != Kind::Boundary);  // boundary needs a region
}

PenaltyTerm::PenaltyTerm(const ConstraintPenalties& pen,
                         const geom::Rect& region)
    : pen_(&pen), kind_(Kind::Boundary), region_(region) {}

std::string_view PenaltyTerm::name() const {
  switch (kind_) {
    case Kind::Symmetry: return "symmetry";
    case Kind::CommonCentroid: return "common-centroid";
    case Kind::Alignment: return "alignment";
    case Kind::Ordering: return "ordering";
    case Kind::Boundary: return "boundary";
  }
  return "?";
}

double PenaltyTerm::value_and_grad(std::span<const double> v,
                                   std::span<double> grad, double scale) {
  switch (kind_) {
    case Kind::Symmetry: return pen_->symmetry(v, grad, scale);
    case Kind::CommonCentroid: return pen_->common_centroid(v, grad, scale);
    case Kind::Alignment: return pen_->alignment(v, grad, scale);
    case Kind::Ordering: return pen_->ordering(v, grad, scale);
    case Kind::Boundary: return pen_->boundary(v, grad, scale, region_);
  }
  return 0;
}

double FunctionTerm::value_and_grad(std::span<const double> v,
                                    std::span<double> grad, double scale) {
  if (scratch_.size() != grad.size()) scratch_.assign(grad.size(), 0.0);
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  const double val = fn_(v, scratch_);
  numeric::axpy(scale, scratch_, grad);
  return val;
}

}  // namespace aplace::gp
