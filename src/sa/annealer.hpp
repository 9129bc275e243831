#pragma once
// Simulated-annealing analog placer: the classic baseline the paper
// compares against.
//
// Representation: sequence pair over blocks, where each symmetry group is a
// rigid symmetry island (symmetry holds exactly at all times) and every
// other device is its own block. Moves: sequence swaps, device flips,
// island-row permutation and pair mirroring. Cost: normalized layout area +
// wirelength, plus penalties for alignment/ordering constraints, plus an
// optional caller-supplied term (the performance-driven variant plugs the
// GNN's failure probability in here, as in Li et al. ICCAD'20 [19]).
//
// Evaluation: each move packs with the O(n log n) LCS packer, diffs block
// positions against the committed packing, and re-evaluates only the
// nets/constraints of devices that moved (IncrementalCost); trial
// placements are never materialized. verify_incremental() checks the
// engine against IncrementalCost::full_cost() and a freshly realized
// placement.

#include <functional>
#include <optional>

#include "base/deadline.hpp"
#include "netlist/placement.hpp"
#include "numeric/rng.hpp"
#include "sa/incremental_cost.hpp"
#include "sa/island.hpp"
#include "sa/sequence_pair.hpp"

namespace aplace::sa {

/// The anneal stops once T < kStopTemperatureRatio * T0.
inline constexpr double kStopTemperatureRatio = 1e-4;
/// Alignment / ordering penalty weight in the cost.
inline constexpr double kConstraintWeight = 8.0;

struct SaOptions {
  double cooling = 0.96;          ///< geometric temperature decay
  int moves_per_temp_per_block = 60;
  long max_moves = 0;             ///< 0 = schedule-driven only
  /// Stop handle (budget or cancellation) polled every 64 moves; the best state
  /// found so far is returned when it expires (the initial packing when it
  /// already was).
  Deadline deadline;
  std::uint64_t seed = 1;

  double area_weight = 0.38;      ///< vs. (1 - area_weight) wirelength

  /// Optional extra cost term evaluated on candidate placements (already
  /// weighted by the caller). Used for performance-driven SA. Its values
  /// must not be negative (checked in debug builds; NaN and +inf reject
  /// the move): the annealer then rejects a move whose cost without the
  /// term already fails the Metropolis test, without materializing the
  /// trial placement or calling `extra_cost`, and every accept/reject
  /// decision and the RNG stream are those of calling it on every move
  /// (docs/ALGORITHMS.md §6). Plain SA never builds a trial placement.
  std::function<double(const netlist::Placement&)> extra_cost;
};

struct SaResult {
  netlist::Placement placement;
  double cost = 0.0;
  long moves_evaluated = 0;
  long moves_accepted = 0;
  bool deadline_hit = false;  ///< truncated by the budget or a cancellation
  double anneal_seconds = 0.0;    ///< wall time inside the anneal
  double moves_per_second = 0.0;  ///< moves_evaluated / anneal_seconds
  /// Moves on which `extra_cost` was evaluated, and moves rejected without
  /// evaluating it (see SaOptions::extra_cost). With `extra_cost` set they
  /// sum to moves_evaluated; the initial-state and T0-calibration calls
  /// are not counted. Both stay 0 without `extra_cost`.
  long extra_cost_calls = 0;
  long extra_cost_skips = 0;
  IncrementalCost::Stats eval_stats{};  ///< delta-eval cache effectiveness
};

class SaPlacer {
 public:
  SaPlacer(netlist::CompiledRef compiled, SaOptions options);

  /// Anneal from a shuffled initial state on the RNG stream
  /// numeric::split_seed(seed, 0); returns the best state found.
  [[nodiscard]] SaResult place();

  /// One random legal state (shuffled sequence pair, random flips and island
  /// permutations) — used to generate GNN training datasets cheaply.
  /// Operates on sampling-only copies of the island/orientation state:
  /// repeated calls compose exactly as before, but a later place() on the
  /// same instance is unaffected (no leaked state).
  [[nodiscard]] netlist::Placement sample_random(numeric::Rng& rng);

  [[nodiscard]] std::size_t num_blocks() const { return block_w_.size(); }

  /// Diagnostic/property-test hook: run `steps` random moves (all five
  /// kinds, random accept/reject) with the incremental engine, checking it
  /// after every move against from-scratch recomputation and a freshly
  /// realized placement. Returns the maximum normalized deviation observed
  /// (0 for a correct engine up to accumulation error).
  [[nodiscard]] double verify_incremental(std::uint64_t seed, int steps);

 private:
  /// A proposed move, already applied to the representation state; kind -1
  /// means no move was applicable (degenerate block structure).
  struct Move {
    int kind = -1;  ///< 0 swap+, 1 swap both, 2 flip, 3 row swap, 4 mirror
    std::size_t i = 0, j = 0;
    std::size_t isl = 0, r1 = 0, r2 = 0;
    DeviceId flip_dev;
    bool flip_axis_x = false;
  };

  /// One annealing chain seeded with `chain_seed`. Annealing state
  /// (sequence pair, orientations, islands) is re-initialized at entry, so
  /// repeated runs on one instance are independent.
  [[nodiscard]] SaResult run_chain(std::uint64_t chain_seed);

  void reset_anneal_state();
  /// Member lists (device, offset, orientation) for every block in block
  /// order — islands first, then singles — from the current island /
  /// orientation state. Feeds IncrementalCost::configure_blocks / reset.
  [[nodiscard]] std::vector<std::vector<Island::Member>> block_members() const;
  /// Draw a move and apply it to the representation (sequence pair /
  /// orientations / islands). Degenerate draws (i == j) redraw boundedly
  /// instead of burning the move budget.
  [[nodiscard]] Move propose_move(numeric::Rng& rng);
  void undo_move(const Move& mv);
  /// Stage a proposed move on the engine: repack into `pack_trial_` for
  /// sequence moves and mark every block the repack translated (origin diff
  /// against `pack_`); flip/island moves skip the repack — the packing is
  /// provably unchanged — and only refresh the mutated block.
  void stage_trial(const Move& mv);
  /// Commit bookkeeping after the engine accepted a staged move.
  void commit_trial(const Move& mv);

  void realize(const SequencePair::Packing& pk, netlist::Placement& pl) const;
  void realize(const SequencePair::Packing& pk,
               const std::vector<Island>& islands,
               const std::vector<geom::Orientation>& orient,
               netlist::Placement& pl) const;

  netlist::CompiledRef compiled_;
  SaOptions opts_;

  // Blocks: first all islands, then single devices.
  std::vector<Island> islands_;
  std::vector<DeviceId> single_device_;       ///< block -> device (singles)
  std::vector<std::size_t> single_block_of_;  ///< device -> block or npos
  std::vector<double> block_w_, block_h_;
  std::vector<geom::Orientation> device_orient_;

  // Annealing state (re-initialized per run).
  SequencePair sp_{0};
  SequencePair::Packing pack_;        ///< committed block positions
  SequencePair::Packing pack_trial_;  ///< scratch for proposed packings
  IncrementalCost engine_;
  std::vector<Island::Member> member_scratch_;  ///< trial members of the
                                                ///< island a move mutated
  std::vector<Island::Member> single_scratch_;  ///< 1-element refresh list
                                                ///< for device-flip moves

  // Sampling-only state (sample_random): lazily copied from the pristine
  // construction-time state, then mutated cumulatively across calls —
  // reproducing the pre-fix sampling sequence without touching the
  // annealing members.
  bool sample_state_ready_ = false;
  std::vector<Island> sample_islands_;
  std::vector<geom::Orientation> sample_orient_;

  // Normalizers captured from the initial state.
  double hpwl0_ = 1.0, area0_ = 1.0, penalty0_ = 1.0;
};

}  // namespace aplace::sa
