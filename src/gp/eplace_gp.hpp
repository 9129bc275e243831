#pragma once
// ePlace-A global placement (paper Sec. IV-A).
//
// Minimizes  W(v) + lambda*N(v) + tau*Sym(v) + eta*Area(v)  (+ alignment,
// ordering and boundary penalties) with Nesterov's method. The objective is
// assembled declaratively as a gp::CompositeObjective — one ObjectiveTerm
// per summand, addressed by a fixed term index. The weights are calibrated
// against the wirelength gradient at the starting point
// (gp::calibrate_weight) and then grown in the solver callback: lambda by
// a self-adaptive factor, tau by a constant one, while the smoothing gamma
// shrinks as density overflow falls. Per-term eval counts, wall time and
// convergence samples come back in GpResult::trace.
//
// The performance-driven variant (ePlace-AP) plugs the GNN term in as one
// more ObjectiveTerm via set_extra_term().

#include <memory>

#include "density/electro.hpp"
#include "gp/gp_options.hpp"
#include "gp/objective.hpp"
#include "gp/penalties.hpp"
#include "netlist/compiled.hpp"
#include "numeric/nesterov.hpp"
#include "wirelength/area_term.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace::gp {

enum class WlSmoothing : std::uint8_t { WeightedAverage, LogSumExp };

struct EPlaceGpOptions : GpCommonOptions {
  int max_iters = 600;
  int min_iters = 60;  ///< run at least this many iterations

  double eta_rel = 0.55;  ///< area-term weight; 0 disables (Fig. 2)

  /// Table I variant: emulate hard symmetry by a rigid (50x, non-ramped)
  /// symmetry weight plus per-callback projection onto the symmetric set.
  bool hard_symmetry = false;

  int num_starts = 3;  ///< multi-start trajectories (best kept)
  /// Wirelength smoothing function. ePlace-A uses WA (paper Eq. 2); the
  /// LSE option exists for the smoothing ablation bench.
  WlSmoothing smoothing = WlSmoothing::WeightedAverage;
};

struct GpResult {
  numeric::Vec positions;  ///< (x.., y..) device centers
  int iterations = 0;
  double overflow = 1.0;
  double hpwl = 0.0;  ///< exact HPWL at the final iterate
  /// The solver watchdog tripped (NaN/Inf or gradient explosion); positions
  /// hold the last healthy iterate, not a converged solution.
  bool diverged = false;
  bool deadline_hit = false;  ///< truncated by the wall-clock budget
  bool cancelled = false;     ///< truncated by cooperative cancellation
  /// Per-term observability accumulated over the whole run (all starts):
  /// eval counts, wall seconds, final weights, convergence samples.
  TermTrace trace;
};

class EPlaceGlobalPlacer {
 public:
  EPlaceGlobalPlacer(netlist::CompiledRef compiled, EPlaceGpOptions opts);

  /// Extra objective term (e.g. gnn::PhiTerm), registered last. Must
  /// precede run().
  void set_extra_term(std::shared_ptr<ObjectiveTerm> term);

  [[nodiscard]] const geom::Rect& region() const { return region_; }

  [[nodiscard]] GpResult run();

 private:
  /// Build the composite objective mirroring opts_ (term order fixed:
  /// wirelength, density, symmetry, common-centroid, area, alignment,
  /// ordering, boundary, extra — the Term indices of eplace_gp.cpp).
  void build_objective();
  [[nodiscard]] GpResult run_single(std::uint64_t seed);

  netlist::CompiledRef compiled_;
  EPlaceGpOptions opts_;
  geom::Rect region_;
  std::unique_ptr<wirelength::SmoothWirelength> wl_owner_;
  wirelength::SmoothWirelength& wl_;
  wirelength::WaAreaTerm area_;
  density::ElectroDensity dens_;
  ConstraintPenalties pen_;
  std::shared_ptr<ObjectiveTerm> extra_;
  std::unique_ptr<CompositeObjective> objective_;
};

}  // namespace aplace::gp
