#pragma once
// Options shared by both analytical global placers. EPlaceGpOptions and
// NtuGpOptions extend this struct, so call sites keep flat field access
// (opts.gp.seed, opts.gp.utilization, ...) while the common knobs are
// declared — and documented — exactly once. The bin count and the weights
// both placers fix are the constants below; each placer keeps its own stop
// overflow and symmetry growth.

#include <cstddef>
#include <cstdint>

#include "base/deadline.hpp"

namespace aplace::gp {

/// Density bins per side (a power of two, as ElectroDensity's FFT-backed
/// Poisson solve requires).
inline constexpr std::size_t kBins = 32;
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
  double utilization = 0.55;    ///< region side = sqrt(total area / util)
  double extra_rel = 2.0;       ///< extra-term (GNN) weight vs. WL gradient

  std::uint64_t seed = 3;  ///< initial-spread jitter
  /// Stop handle (budget or cancellation) shared with the rest of the flow,
  /// polled by the multi-start loop, the outer loop and every inner solver
  /// iteration.
  Deadline deadline;
};

}  // namespace aplace::gp
