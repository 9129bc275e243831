#pragma once
// Incremental SA cost engine: block-level delta evaluation.
//
// The annealer's cost is
//   aw * area/area0 + (1-aw) * hpwl/hpwl0 + cw * penalty/penalty0
// where penalty sums alignment/ordering/common-centroid residuals. The
// legacy path recomputes all of it from a freshly realized Placement on
// every proposed move: O(n^2) pack, O(devices) realize, every net re-boxed
// pin by pin, every constraint re-evaluated.
//
// This engine exploits the block structure of the sequence-pair
// representation (symmetry islands + single devices are rigid blocks whose
// internals change only on flip / row-permutation moves):
//
//   * per (block, net) it caches the bounding box of that net's pins
//     RELATIVE to the block origin, stored net-major so a net's bbox is one
//     sequential sweep over a few translated rectangles — no per-pin
//     orientation transforms in the move loop. Only internal moves (flip,
//     island row swap/mirror) recompute the boxes of the one block they
//     touch;
//   * rigid-translation skip: bbox spans and constraint residuals are
//     invariant under a common translation of all their blocks, so the move
//     loop walks every net once, compares the per-block origin deltas, and
//     recomputes an axis only when its deltas disagree. Unmoved nets have
//     all-zero deltas and fall out of the same check — there is no separate
//     dirty-marking pass;
//   * area comes from the packer extent (identical to the block bounding
//     box since packings are left/bottom compacted);
//   * device positions are origin + cached in-block offset, so no
//     Placement is written per move, and commit is two buffer swaps.
//     placement()/trial_placement() materialize one on demand — new-best
//     snapshots and GNN extra-cost callbacks, not the hot path.
//
// Moves follow a begin_trial / refresh_block / trial_cost /
// commit-or-rollback protocol driven by SaPlacer.
//
// Exactness: device centers are computed with the same single addition the
// realize path uses, so constraint residuals match a realized Placement
// bit for bit. Relative-box pin positions associate the adds differently
// (origin + (off - w/2 + local) vs (origin + off) - w/2 + local), and the
// rigid-translation skip keeps a span whose exact recomputation could
// differ in the last ulp, so net HPWL can deviate from a realized
// Placement by a few ulp. Totals are re-summed over the per-net caches
// every move (no delta accumulation drift). full_cost() recomputes
// everything from a materialized Placement via the shared Evaluator — the
// property-test oracle (tests assert agreement within 1e-9).

#include <cstdint>
#include <span>
#include <vector>

#include "geom/orientation.hpp"
#include "geom/point.hpp"
#include "netlist/compiled.hpp"
#include "netlist/evaluator.hpp"
#include "netlist/placement.hpp"
#include "sa/island.hpp"

namespace aplace::sa {

class IncrementalCost {
 public:
  /// One device of a block: center offset relative to the block origin and
  /// orientation (same triple Island::members produces; singles use
  /// (w/2, h/2) and their current flip state).
  using Member = Island::Member;

  struct Weights {
    double area_weight = 0.38;
    double constraint_weight = 8.0;
    double hpwl0 = 1.0;
    double area0 = 1.0;
    double penalty0 = 1.0;
  };

  /// Cache-effectiveness counters (reported in the bench JSON). The hit
  /// rate of the span cache is 1 - nets_evaluated / nets_total.
  struct Stats {
    std::uint64_t evals = 0;           ///< trial_cost() calls
    std::uint64_t nets_evaluated = 0;  ///< nets actually re-boxed (rigid
                                       ///< translations excluded)
    std::uint64_t nets_total = 0;      ///< nets a full recompute would touch
    std::uint64_t constraints_evaluated = 0;
    std::uint64_t devices_staged = 0;  ///< devices of refresh_block()s

    [[nodiscard]] double net_eval_ratio() const {
      return nets_total > 0 ? static_cast<double>(nets_evaluated) /
                                  static_cast<double>(nets_total)
                            : 0.0;
    }
  };

  explicit IncrementalCost(netlist::CompiledRef compiled);

  void set_weights(const Weights& w) { weights_ = w; }
  [[nodiscard]] const Weights& weights() const { return weights_; }

  /// One-time block structure: member lists per block (islands first, then
  /// singles, matching the sequence-pair block order). Builds the
  /// block->net / block->constraint adjacency.
  void configure_blocks(const std::vector<std::vector<Member>>& blocks);

  /// Rebuild every cache from the given member lists and block origins
  /// (block count and membership must match configure_blocks). Also clears
  /// the stats counters.
  void reset(const std::vector<std::vector<Member>>& blocks, const double* ox,
             const double* oy, double pack_w, double pack_h);

  // ---- move protocol -------------------------------------------------------
  // begin_trial() with the trial origins (the spans must stay alive until
  // commit()/rollback() — pass the committed origins when the packing did
  // not change), then refresh_block() the block whose internals changed (if
  // any), then trial_cost() once; finish with commit() or rollback(). Moved
  // blocks need no explicit marking: trial_cost discovers them from the
  // origin deltas.
  void begin_trial(const double* tx, const double* ty, double w, double h);
  /// Replace a block's member offsets/orientations (flip or island
  /// row-permutation move) and recompute its relative net boxes; its nets
  /// and constraints are force-reevaluated (their caches are stale even
  /// when the block origin is unchanged). Undone by rollback().
  void refresh_block(std::size_t b, const std::vector<Member>& members);
  [[nodiscard]] double trial_cost();
  void commit();
  void rollback();

  // ---- committed state -----------------------------------------------------
  [[nodiscard]] double cost() const;
  [[nodiscard]] double hpwl() const { return hpwl_total_; }
  [[nodiscard]] double penalty() const { return penalty_total_; }
  [[nodiscard]] double area() const { return pack_w_ * pack_h_; }

  /// Committed placement, materialized on demand (cheap when unchanged —
  /// intended for new-best snapshots, not per-move use).
  [[nodiscard]] const netlist::Placement& placement();
  /// Trial placement including staged changes, materialized on every call —
  /// what GNN extra-cost callbacks evaluate (perf-driven SA only).
  [[nodiscard]] const netlist::Placement& trial_placement();

  /// From-scratch recompute of the committed cost via a materialized
  /// Placement and the shared Evaluator: the test oracle for both the
  /// span/residual caches and the engine's own formulas. Call between
  /// moves only.
  [[nodiscard]] double full_cost();

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  // Flat view of the circuit's positional constraints.
  struct ConstraintRef {
    enum class Kind : std::uint8_t { Alignment, Ordering, Centroid };
    Kind kind;
    std::uint32_t index;  ///< into the ConstraintSet vector of that kind
  };

  /// One (block, net) incidence in net-major order: the bounding box of the
  /// net's pins on that block, relative to the block origin.
  struct RelRef {
    double xlo = 0, xhi = 0, ylo = 0, yhi = 0;
    std::uint32_t block = 0;
    std::uint32_t pad = 0;
  };

  /// One pin a block contributes to a net (slot-major): refresh_rel_boxes
  /// walks these instead of the net's full pin list, so refreshing a block
  /// never touches other blocks' pins.
  struct SlotPin {
    geom::Point offset;  ///< pin offset within its device
    std::uint32_t dev = 0;
    std::uint32_t pad = 0;
  };

  /// Device center from block origin + in-block offset; `ox`/`oy` selects
  /// committed or trial origins.
  [[nodiscard]] geom::Point position_from(const double* ox, const double* oy,
                                          DeviceId d) const {
    const std::size_t b = block_of_[d.index()];
    return {ox[b] + off_[d.index()].x, oy[b] + off_[d.index()].y};
  }
  void net_spans(const double* ox, const double* oy, std::uint32_t net,
                 double& xs, double& ys) const;
  [[nodiscard]] double net_xspan_of(const double* ox, std::uint32_t net) const;
  [[nodiscard]] double net_yspan_of(const double* oy, std::uint32_t net) const;
  [[nodiscard]] double constraint_residual(const double* ox, const double* oy,
                                           const ConstraintRef& c) const;
  [[nodiscard]] double combine(double hpwl, double area, double penalty) const;
  void refresh_rel_boxes(std::size_t b);
  void materialize(const double* ox, const double* oy, netlist::Placement& pl);

  netlist::CompiledRef compiled_;
  netlist::Evaluator eval_;
  Weights weights_;

  // ---- static block structure (configure_blocks) ---------------------------
  std::size_t num_blocks_ = 0;
  std::vector<std::size_t> block_of_;      ///< device -> block
  std::vector<std::size_t> block_dev_off_; ///< block -> device CSR
  std::vector<DeviceId> block_dev_;
  // block -> incident nets CSR ("slot" = an index into block_net_).
  std::vector<std::size_t> block_net_off_;
  std::vector<std::uint32_t> block_net_;
  // net -> RelRef range (net-major mirror of the slots); netpos_of_slot_
  // maps a block slot to its position in rel_.
  std::vector<std::size_t> net_block_off_;
  std::vector<RelRef> rel_;
  std::vector<std::uint32_t> netpos_of_slot_;
  // slot -> the block's own pins on that net (CSR over block_net_ slots).
  std::vector<std::size_t> slot_pin_off_;
  std::vector<SlotPin> slot_pin_;
  // block -> flat constraints CSR, and the reverse (constraint -> unique
  // blocks) for the rigid-translation check.
  std::vector<ConstraintRef> constraints_;
  std::vector<std::size_t> block_cons_off_;
  std::vector<std::uint32_t> block_cons_;
  std::vector<std::size_t> cons_block_off_;
  std::vector<std::uint32_t> cons_block_;
  // Incident-block bitmasks (usable when num_blocks_ <= 64): one AND
  // against the per-move moved-block mask rules an unmoved net/constraint
  // rigid without walking its delta list.
  bool use_mask_ = false;
  std::vector<std::uint64_t> net_mask_;
  std::vector<std::uint64_t> cons_mask_;

  // Flat per-net / per-device views of the fields the hot loop reads,
  // borrowed from the compiled snapshot (Net and Device carry
  // strings/vectors, so going through them would drag cold cache lines
  // into every evaluation).
  std::span<const double> net_weight_;
  std::span<const double> dev_w_, dev_h_, dev_halfw_, dev_halfh_;

  // ---- per-reset geometry caches -------------------------------------------
  std::vector<geom::Point> off_;            ///< device offset in its block
  std::vector<geom::Orientation> orient_;   ///< device orientation
  std::vector<double> ox_, oy_;             ///< committed block origins
  double pack_w_ = 0, pack_h_ = 0;

  // Committed caches + totals. Spans are per axis so a net whose incident
  // blocks all share one x (or y) delta keeps that axis's value.
  std::vector<double> net_xspan_, net_yspan_;  ///< bbox spans per net
  std::vector<double> cons_residual_;  ///< residual per flat constraint
  double hpwl_total_ = 0, penalty_total_ = 0;

  // Move-scoped scratch. trial_* are full-size value arrays rewritten by
  // every trial_cost and swapped wholesale into the committed arrays on
  // commit. The per-trial epoch stamps force-reevaluate what
  // refresh_block() touched.
  const double* tx_ = nullptr;  ///< trial origins (caller-owned)
  const double* ty_ = nullptr;
  double trial_w_ = 0, trial_h_ = 0;
  std::vector<double> trial_xspan_, trial_yspan_, trial_cons_residual_;
  std::vector<std::uint64_t> net_epoch_, cons_epoch_;
  std::uint64_t epoch_ = 1;
  double trial_hpwl_total_ = 0, trial_penalty_total_ = 0;
  bool trial_evaluated_ = false;
  bool in_trial_ = false;
  // Undo for refresh_block: saved member state + relative boxes.
  struct MemberUndo {
    DeviceId device;
    geom::Point off;
    geom::Orientation orientation;
  };
  std::vector<MemberUndo> member_undo_;
  struct RelBoxUndo {
    std::uint32_t pos;  ///< into rel_
    double xlo, xhi, ylo, yhi;
  };
  std::vector<RelBoxUndo> rel_undo_;

  // Materialized views (lazy; never touched by the move loop).
  netlist::Placement state_;
  bool state_valid_ = false;
  netlist::Placement trial_state_;

  Stats stats_;
};

}  // namespace aplace::sa
