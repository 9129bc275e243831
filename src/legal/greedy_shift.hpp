#pragma once
// Greedy shift legalizer: the last resort of the legalization fallback
// chain. No LP/ILP involved — it packs devices along each dimension by a
// longest-path relaxation over the derived separation constraints, then
// re-projects the constraint groups (symmetry, alignment, ordering, common
// centroid) exactly, and iterates until the result is legal or the round
// budget runs out. Quality is poor compared to the analytical legalizers,
// but it cannot be infeasible for any circuit that passes
// netlist::validate() and it runs in O(rounds * n^2).

#include <span>

#include "base/status.hpp"
#include "netlist/placement.hpp"

namespace aplace::legal {

struct GreedyShiftResult {
  netlist::Placement placement;
  /// Ok iff `placement` is legal; otherwise why the last resort gave up
  /// (the best iterate found is still in `placement` for diagnostics).
  aplace::Status outcome =
      aplace::Status::internal("greedy shift legalizer did not run");
  int rounds = 0;  ///< pack/project rounds actually executed

  [[nodiscard]] bool ok() const { return outcome.ok(); }
};

class GreedyShiftLegalizer {
 public:
  explicit GreedyShiftLegalizer(const netlist::Circuit& circuit);

  /// Legalize starting from device centers (x.., y..); non-finite inputs
  /// are sanitized first, so a diverged GP hand-off is acceptable.
  [[nodiscard]] GreedyShiftResult place(
      std::span<const double> gp_positions) const;

 private:
  const netlist::Circuit* circuit_;
};

}  // namespace aplace::legal
