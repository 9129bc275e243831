#pragma once
// Composable objective-term layer shared by both analytical global placers.
//
// The paper's central comparison (Tables 3-5, Fig. 2) is a comparison of
// *objective compositions*: WA vs. LSE wirelength, electrostatic vs.
// bell-shaped density, with/without the area term, plus the GNN extra term
// of the performance-driven variants. This module makes that composition a
// first-class object instead of a hand-rolled gradient lambda per placer:
//
//   * ObjectiveTerm       — one named term: value + gradient at v, plus a
//                           cheap/expensive cost hint.
//   * CompositeObjective  — ordered list of weighted terms. Evaluates them
//                           in sequence into the caller's gradient buffer
//                           (allocation-free after construction; the
//                           underlying kernels keep their own thread-pool
//                           parallelism) and records per-term observability:
//                           eval counts, wall time, last value/grad-norm.
//   * calibrate_weight    — the initial-gradient-magnitude weight rule
//                           both placers apply term by term; each placer
//                           keeps its term indices as named constants and
//                           sets and grows its weights in straight-line
//                           code.
//   * TermTrace           — the per-term instrumentation snapshot threaded
//                           through GpResult/FlowResult into the bench JSON.
//
// Adapters at the bottom of this header wrap the existing kernels
// (SmoothWirelength, ElectroDensity, BellDensity, WaAreaTerm, each
// ConstraintPenalties family, and an arbitrary value-and-grad functor for
// tests) without changing their math: a composite built to mirror
// the old lambdas accumulates the same contributions in the same order.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "density/bell.hpp"
#include "density/electro.hpp"
#include "geom/rect.hpp"
#include "gp/penalties.hpp"
#include "netlist/compiled.hpp"
#include "numeric/vec.hpp"
#include "wirelength/area_term.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace::gp {

/// Rough per-evaluation cost of a term, used by callers that want to
/// subsample expensive terms (and by the trace printer for ordering).
enum class TermCost : std::uint8_t {
  Cheap,      ///< O(n) or O(constraints): penalties, boundary
  Moderate,   ///< O(pins) / O(n * support): wirelength, bell density, area
  Expensive,  ///< spectral solve / GNN forward+backward
};

[[nodiscard]] constexpr const char* to_string(TermCost c) {
  switch (c) {
    case TermCost::Cheap: return "cheap";
    case TermCost::Moderate: return "moderate";
    case TermCost::Expensive: return "expensive";
  }
  return "?";
}

/// One differentiable objective term f_i(v). Implementations ADD
/// scale * df_i/dv into `grad` and return the raw (unscaled) value f_i(v).
class ObjectiveTerm {
 public:
  virtual ~ObjectiveTerm() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual TermCost cost() const { return TermCost::Cheap; }

  /// Evaluate at v = (x.., y..); add scale * gradient into grad (same
  /// size); return the raw term value.
  virtual double value_and_grad(std::span<const double> v,
                                std::span<double> grad, double scale) = 0;
};

/// Cumulative per-term observability counters plus the latest sample.
struct TermStats {
  std::string name;
  TermCost cost = TermCost::Cheap;
  std::uint64_t evals = 0;   ///< value_and_grad calls (incl. calibration)
  double seconds = 0;        ///< wall time spent inside the term
  double value = 0;          ///< raw value at the last evaluation
  double grad_norm = 0;      ///< mean-abs of the last weighted contribution
  double weight = 0;         ///< current weight
};

/// Per-term instrumentation of one GP run: cumulative totals plus a
/// decimated per-outer-iteration history (so long Nesterov runs stay
/// bounded). Threaded through GpResult -> FlowResult -> bench JSON.
struct TermTrace {
  /// One sampled outer iteration: parallel arrays over `terms`.
  struct Sample {
    int iter = 0;
    std::vector<double> values;
    std::vector<double> weights;
    std::vector<double> grad_norms;
  };

  std::vector<TermStats> terms;
  std::vector<Sample> samples;
  int sample_stride = 1;  ///< samples kept every `stride` sample() calls

  [[nodiscard]] bool empty() const { return terms.empty(); }
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] const TermStats* find(std::string_view name) const;

  /// Fold another run's trace into this one (candidate/multi-start
  /// aggregation): eval counts and seconds add up; value/grad-norm/weight
  /// and the sample history keep this trace's (the winner's) data. Terms
  /// are matched by name; unmatched terms are appended.
  void merge_counts(const TermTrace& other);
};

/// Fold a finished run's trace into the global obs::MetricsRegistry —
/// per-term eval counters ("gp/term/<name>/evals") and per-run seconds
/// histograms ("gp/term/<name>/run_seconds"). Call once per flow on the
/// final (merged) trace; a no-op when observability is disabled.
void publish_trace_metrics(const TermTrace& trace);

/// Ordered weighted sum F(v) = sum_i w_i f_i(v) with per-term stats.
///
/// The hot path is allocation-free: terms write scale=w_i gradients
/// directly into the caller's buffer (exactly what the hand-rolled lambdas
/// did), and the per-term gradient-norm probe reuses one scratch snapshot
/// owned by the composite. Evaluation order == registration order, so a
/// composite mirroring an old lambda reproduces its floating-point result.
class CompositeObjective {
 public:
  explicit CompositeObjective(std::size_t num_vars);

  /// Register a term (evaluation order = registration order). Returns the
  /// term index. `weight` is the initial weight; `enabled` = false keeps
  /// the term registered (visible in traces) but never evaluated.
  std::size_t add_term(std::shared_ptr<ObjectiveTerm> term,
                       double weight = 1.0, bool enabled = true);

  [[nodiscard]] std::size_t num_terms() const { return terms_.size(); }
  [[nodiscard]] std::size_t num_vars() const { return num_vars_; }

  /// Weights by term index (the index add_term returned).
  [[nodiscard]] double weight(std::size_t term) const;
  void set_weight(std::size_t term, double w);
  void scale_weight(std::size_t term, double factor);

  /// F(v) and its gradient: zeroes `grad`, then accumulates every enabled
  /// term in registration order with its current weight. Returns the
  /// weighted total sum_i w_i f_i(v).
  double value_and_grad(std::span<const double> v, std::span<double> grad);

  /// Probe one term's raw gradient magnitude (mean-abs of df_i/dv at v)
  /// without touching any caller state; used by weight calibration.
  double probe_grad_magnitude(std::size_t term_index,
                              std::span<const double> v);

  /// Record one per-outer-iteration sample of (value, weight, grad-norm)
  /// for every term. The history is decimated (stride doubling) once it
  /// exceeds `max_samples`, keeping memory bounded on long runs.
  void sample(int iter);

  [[nodiscard]] const TermTrace& trace() const { return trace_; }

  static constexpr int kMaxSamples = 96;

 private:
  struct Entry {
    std::shared_ptr<ObjectiveTerm> term;
    double weight = 1.0;
    bool enabled = true;
  };

  std::size_t num_vars_;
  std::vector<Entry> terms_;
  TermTrace trace_;
  numeric::Vec scratch_;  ///< grad snapshot for the grad-norm probe
  int sample_calls_ = 0;
};

/// Calibrate one term's weight at the starting point v0 against the
/// reference gradient magnitude `ref`: w = rel * ref / |g| with |g| the
/// term's mean-abs gradient at v0, or w = rel when |g| vanishes. Probes the
/// term once, sets its weight and returns it.
double calibrate_weight(CompositeObjective& obj, std::size_t term,
                        std::span<const double> v0, double ref, double rel);

/// The square placement region both placers spread into: side
/// sqrt(total device area / utilization), lower-left corner at the origin.
[[nodiscard]] geom::Rect placement_region(const netlist::CompiledCircuit& cc,
                                          double utilization);

/// Both placers' starting point: a tight golden-angle spiral around the
/// region center (radius step 0.02 * region width, up to 0.05 rad of seeded
/// angle jitter), so the density overflow starts high and no two devices
/// coincide. Writes v = (x.., y..).
void spiral_start(const geom::Rect& region, std::uint64_t seed,
                  std::span<double> v);

// ---- kernel adapters --------------------------------------------------------

/// WA or LSE smoothed wirelength (weight is 1 in both placers; non-unit
/// scales go through an internal scratch buffer).
class SmoothWirelengthTerm final : public ObjectiveTerm {
 public:
  SmoothWirelengthTerm(wirelength::SmoothWirelength& wl, std::string name)
      : wl_(&wl), name_(std::move(name)) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  wirelength::SmoothWirelength* wl_;
  std::string name_;
  numeric::Vec scratch_;
};

/// Electrostatic potential energy (ePlace density).
class ElectroDensityTerm final : public ObjectiveTerm {
 public:
  explicit ElectroDensityTerm(density::ElectroDensity& dens) : dens_(&dens) {}
  [[nodiscard]] std::string_view name() const override { return "density"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Expensive; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return dens_->value_and_grad(v, grad, scale);
  }

 private:
  density::ElectroDensity* dens_;
};

/// Bell-shaped density penalty (NTUplace3-style prior work).
class BellDensityTerm final : public ObjectiveTerm {
 public:
  explicit BellDensityTerm(density::BellDensity& dens) : dens_(&dens) {}
  [[nodiscard]] std::string_view name() const override { return "density"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return dens_->value_and_grad(v, grad, scale);
  }

 private:
  density::BellDensity* dens_;
};

/// Smoothed bounding-box area WA_x * WA_y (ePlace-A only; Fig. 2).
class SmoothAreaTerm final : public ObjectiveTerm {
 public:
  explicit SmoothAreaTerm(wirelength::WaAreaTerm& area) : area_(&area) {}
  [[nodiscard]] std::string_view name() const override { return "area"; }
  [[nodiscard]] TermCost cost() const override { return TermCost::Moderate; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override {
    return area_->value_and_grad(v, grad, scale);
  }

 private:
  wirelength::WaAreaTerm* area_;
};

/// One ConstraintPenalties family as a term.
class PenaltyTerm final : public ObjectiveTerm {
 public:
  enum class Kind : std::uint8_t {
    Symmetry,
    CommonCentroid,
    Alignment,
    Ordering,
    Boundary,
  };

  /// Non-boundary families.
  PenaltyTerm(const ConstraintPenalties& pen, Kind kind);
  /// Boundary hinge (needs the placement region).
  PenaltyTerm(const ConstraintPenalties& pen, const geom::Rect& region);

  [[nodiscard]] std::string_view name() const override;
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  const ConstraintPenalties* pen_;
  Kind kind_;
  geom::Rect region_{};
};

/// Arbitrary value-and-grad functor (the test seam). The functor ADDS its
/// raw gradient to the span it is given; the adapter applies the scale
/// through an internal scratch buffer.
class FunctionTerm final : public ObjectiveTerm {
 public:
  using Fn = std::function<double(std::span<const double> v,
                                  std::span<double> grad)>;

  FunctionTerm(std::string name, Fn fn, TermCost cost = TermCost::Expensive)
      : name_(std::move(name)), fn_(std::move(fn)), cost_(cost) {}
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] TermCost cost() const override { return cost_; }
  double value_and_grad(std::span<const double> v, std::span<double> grad,
                        double scale) override;

 private:
  std::string name_;
  Fn fn_;
  TermCost cost_;
  numeric::Vec scratch_;
};

}  // namespace aplace::gp
