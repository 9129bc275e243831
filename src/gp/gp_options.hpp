#pragma once
// Options shared by both analytical global placers. EPlaceGpOptions and
// NtuGpOptions extend this struct, so call sites keep flat field access
// (opts.gp.seed, opts.gp.utilization, ...) while the common knobs are
// declared — and documented — exactly once. The weights both placers fix
// are the constants below; each placer keeps its own stop overflow and
// symmetry growth.

#include <cstddef>
#include <cstdint>

#include "base/cancel.hpp"
#include "base/deadline.hpp"

namespace aplace::gp {

/// Density bin capacity fraction.
inline constexpr double kTargetDensity = 0.85;
/// Initial symmetry weight, relative to the wirelength gradient.
inline constexpr double kTauRel = 0.04;
/// Alignment and ordering weights, tied to the symmetry (tau) scale.
inline constexpr double kAlignRel = 0.08;
inline constexpr double kOrderRel = 0.08;
/// Boundary hinge weight, relative to the wirelength gradient per bin.
inline constexpr double kBoundaryRel = 2.0;

struct GpCommonOptions {
  std::size_t bins = 32;        ///< density bins per side
  double utilization = 0.55;    ///< region side = sqrt(total area / util)
  double extra_rel = 2.0;       ///< extra-term (GNN) weight vs. WL gradient

  std::uint64_t seed = 3;  ///< initial-spread jitter
  /// Wall-clock budget shared with the rest of the flow.
  Deadline deadline;
  /// Cooperative cancellation, polled wherever the deadline is polled
  /// (multi-start loop, outer loop, every inner solver iteration).
  base::CancelToken cancel;
};

}  // namespace aplace::gp
