#pragma once
// Two-stage LP legalization + detailed placement of the prior analytical
// work (Xu et al. ISPD'19 [11]).
//
// Stage 1 (area compaction): minimize W + H subject to the pairwise
// separation, symmetry, alignment and ordering constraints. Stage 2
// (wirelength): minimize total net bounding-box size with the layout
// extents capped at the stage-1 result. Differences from ePlace-A's ILP
// (paper Sec. IV-B): two sequential objectives instead of one integrated
// one, and no device flipping.

#include <span>
#include <vector>

#include "base/cancel.hpp"
#include "base/deadline.hpp"
#include "base/status.hpp"
#include "legal/relative_order.hpp"
#include "netlist/compiled.hpp"
#include "netlist/placement.hpp"
#include "solver/lp.hpp"

namespace aplace::legal {

struct TwoStageOptions {
  /// Wall-clock budget; checked once before the two LPs run.
  Deadline deadline;
  /// Cooperative cancellation, checked at the same point; a cancelled
  /// legalizer returns a Cancelled outcome so the batch can drain fast.
  base::CancelToken cancel;
};

struct TwoStageResult {
  netlist::Placement placement;
  solver::LpStatus status = solver::LpStatus::IterLimit;
  double stage1_width = 0.0;   ///< grid units
  double stage1_height = 0.0;
  /// Structured outcome. Non-ok means `placement` was never filled in (it is
  /// the default origin pile-up) — callers must not use it silently.
  aplace::Status outcome =
      aplace::Status::internal("two-stage LP legalizer did not run");

  [[nodiscard]] bool ok() const {
    return outcome.ok() && status == solver::LpStatus::Optimal;
  }
};

class TwoStageLpLegalizer {
 public:
  explicit TwoStageLpLegalizer(netlist::CompiledRef compiled,
                               TwoStageOptions opts = {});

  [[nodiscard]] TwoStageResult place(
      std::span<const double> gp_positions) const;

 private:
  /// The stage-1 + stage-2 pass under the given separation constraints;
  /// sets `result.outcome` to why when either LP fails.
  void run_stages(const std::vector<PairOrder>& orders,
                  TwoStageResult& result) const;

  netlist::CompiledRef compiled_;
  TwoStageOptions opts_;
};

}  // namespace aplace::legal
