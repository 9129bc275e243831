#pragma once
// Prior-work analytical global placement (Xu et al. ISPD'19 [11], built on
// the NTUplace3 framework [10]).
//
// Differences from ePlace-A, deliberately preserved because they are the
// paper's explanation for the quality gap (Sec. IV-C):
//   (1) no explicit area term in the objective;
//   (2) LSE wirelength smoothing instead of WA;
//   (3) conjugate-gradient solver with a bell-shaped density penalty and an
//       outer loop that doubles the density weight (NTUplace3 style) instead
//       of the Nesterov + electrostatics machinery.
//
// Like ePlace-A the objective is a gp::CompositeObjective; only the term
// choices and the WeightScheduler growth rules differ.

#include <memory>

#include "density/bell.hpp"
#include "gp/eplace_gp.hpp"  // GpResult
#include "gp/gp_options.hpp"
#include "gp/objective.hpp"
#include "gp/penalties.hpp"
#include "netlist/compiled.hpp"
#include "numeric/cg.hpp"
#include "wirelength/smooth_wl.hpp"

namespace aplace::gp {

struct NtuGpOptions : GpCommonOptions {
  NtuGpOptions() {
    // The outer loop iterates all the way down to DP hand-off quality, and
    // ramps much harder per round than ePlace-A does per iteration.
    stop_overflow = 0.07;
    tau_growth = 1.5;
  }

  int outer_iters = 10;    ///< density-weight doublings
  int inner_iters = 60;    ///< CG iterations per outer round
  double beta_rel = 0.03;  ///< initial density weight vs. WL gradient
  double beta_growth = 2.0;  ///< density ramp per outer round
};

class PriorAnalyticalGlobalPlacer {
 public:
  PriorAnalyticalGlobalPlacer(netlist::CompiledRef compiled,
                              NtuGpOptions opts);

  /// Extra objective term, registered last. The Perf* extension (paper
  /// Table V) adds alpha * Phi through a gnn::PhiTerm. Must precede run().
  void set_extra_term(std::shared_ptr<ObjectiveTerm> term);

  [[nodiscard]] const geom::Rect& region() const { return region_; }

  [[nodiscard]] GpResult run();

 private:
  void build_objective();

  netlist::CompiledRef compiled_;
  NtuGpOptions opts_;
  geom::Rect region_;
  wirelength::LseWirelength wl_;
  density::BellDensity dens_;
  ConstraintPenalties pen_;
  std::shared_ptr<ObjectiveTerm> extra_;
  std::unique_ptr<CompositeObjective> objective_;
  std::unique_ptr<WeightScheduler> scheduler_;
};

}  // namespace aplace::gp
