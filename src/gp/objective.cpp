#include "gp/objective.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

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

std::size_t CompositeObjective::index_of(std::string_view name) const {
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].term->name() == name) return i;
  }
  return terms_.size();
}

bool CompositeObjective::has_term(std::string_view name) const {
  return index_of(name) < terms_.size();
}

std::size_t CompositeObjective::must_find(std::string_view name) const {
  const std::size_t i = index_of(name);
  APLACE_CHECK_MSG(i < terms_.size(),
                   "objective has no term named '" << std::string(name) << "'");
  return i;
}

double CompositeObjective::weight(std::string_view name) const {
  return terms_[must_find(name)].weight;
}

void CompositeObjective::set_weight(std::string_view name, double w) {
  const std::size_t i = must_find(name);
  terms_[i].weight = w;
  trace_.terms[i].weight = w;
}

void CompositeObjective::scale_weight(std::string_view name, double factor) {
  const std::size_t i = must_find(name);
  terms_[i].weight *= factor;
  trace_.terms[i].weight = terms_[i].weight;
}

bool CompositeObjective::enabled(std::string_view name) const {
  return terms_[must_find(name)].enabled;
}

void CompositeObjective::set_enabled(std::string_view name, bool enabled) {
  terms_[must_find(name)].enabled = enabled;
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

// ---- WeightScheduler --------------------------------------------------------

void WeightScheduler::set_rule(std::string term, Rule rule) {
  for (auto& [name, r] : rules_) {
    if (name == term) {
      r = std::move(rule);
      return;
    }
  }
  rules_.emplace_back(std::move(term), std::move(rule));
}

const WeightScheduler::Rule* WeightScheduler::rule(
    std::string_view term) const {
  for (const auto& [name, r] : rules_) {
    if (name == term) return &r;
  }
  return nullptr;
}

double WeightScheduler::calibrate(std::span<const double> v0,
                                  std::string_view ref) {
  const std::size_t ref_idx = obj_->index_of(ref);
  APLACE_CHECK_MSG(ref_idx < obj_->num_terms(),
                   "calibration reference term '" << std::string(ref)
                                                  << "' is not registered");
  const double ref_mag =
      std::max(obj_->probe_grad_magnitude(ref_idx, v0), 1e-12);

  // First pass: measured rules (everything a TiedTo rule may reference).
  for (const auto& [name, r] : rules_) {
    if (!obj_->has_term(name) || !obj_->enabled(name)) continue;
    switch (r.init) {
      case Rule::Init::Fixed:
        obj_->set_weight(name, r.rel);
        break;
      case Rule::Init::RelToRefGrad: {
        const double mag =
            obj_->probe_grad_magnitude(obj_->index_of(name), v0);
        obj_->set_weight(name, mag > 1e-12 ? r.rel * ref_mag / mag : r.rel);
        break;
      }
      case Rule::Init::RefOverScale:
        obj_->set_weight(name, r.rel * ref_mag / r.scale_div);
        break;
      case Rule::Init::TiedTo:
        break;  // second pass
    }
  }
  // Second pass: tied weights, derived from their master's calibrated
  // value with the same arithmetic the placers used
  // (w = w_master * rel / max(master_rel, 1e-12)).
  for (const auto& [name, r] : rules_) {
    if (r.init != Rule::Init::TiedTo) continue;
    if (!obj_->has_term(name) || !obj_->enabled(name)) continue;
    const double master = obj_->weight(r.tied_to);
    // rel == tied_rel means "same weight as the master": short-circuit the
    // ratio so the tie is exact (x*r/r can round away from x).
    obj_->set_weight(name, r.rel == r.tied_rel
                               ? master
                               : master * r.rel / std::max(r.tied_rel, 1e-12));
  }
  return ref_mag;
}

void WeightScheduler::advance() {
  for (const auto& [name, r] : rules_) {
    if (r.growth == 1.0) continue;
    if (!obj_->has_term(name) || !obj_->enabled(name)) continue;
    obj_->scale_weight(name, r.growth);
  }
}

void WeightScheduler::advance(std::string_view term, double factor) {
  obj_->scale_weight(term, factor);
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
