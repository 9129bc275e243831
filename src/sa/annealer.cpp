#include "sa/annealer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::sa {
namespace {

constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);

std::size_t draw_index(numeric::Rng& rng, std::size_t count) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(count) - 1));
}

// Draw an index != i with a bounded, deterministic number of redraws, then
// fall back to the cyclic successor. Degenerate i == j draws used to burn
// an entry from the per-temperature move budget (and from the T0
// calibration pool), silently biasing the move mix on small circuits.
std::size_t draw_distinct(numeric::Rng& rng, std::size_t i,
                          std::size_t count) {
  APLACE_DCHECK(count >= 2);
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::size_t j = draw_index(rng, count);
    if (j != i) return j;
  }
  return (i + 1) % count;
}

}  // namespace

SaPlacer::SaPlacer(netlist::CompiledRef compiled, SaOptions options)
    : compiled_(std::move(compiled)),
      opts_(std::move(options)),
      engine_(compiled_) {
  const netlist::Circuit& circuit = compiled_->circuit();
  const std::size_t n = circuit.num_devices();
  single_block_of_.assign(n, kNoBlock);
  device_orient_.assign(n, {});

  std::vector<char> in_island(n, 0);
  for (const netlist::SymmetryGroup& g : circuit.constraints().symmetry_groups) {
    islands_.emplace_back(circuit, g);
    for (const Island::Member& m : islands_.back().members()) {
      in_island[m.device.index()] = 1;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!in_island[i]) single_device_.push_back(DeviceId{i});
  }

  const std::size_t nb = islands_.size() + single_device_.size();
  block_w_.resize(nb);
  block_h_.resize(nb);
  for (std::size_t b = 0; b < islands_.size(); ++b) {
    block_w_[b] = islands_[b].width();
    block_h_[b] = islands_[b].height();
  }
  for (std::size_t s = 0; s < single_device_.size(); ++s) {
    const std::size_t b = islands_.size() + s;
    const netlist::Device& d = circuit.device(single_device_[s]);
    block_w_[b] = d.width;
    block_h_[b] = d.height;
    single_block_of_[single_device_[s].index()] = b;
  }
  single_scratch_.resize(1);
  engine_.configure_blocks(block_members());
}

std::vector<std::vector<Island::Member>> SaPlacer::block_members() const {
  std::vector<std::vector<Island::Member>> blocks(num_blocks());
  for (std::size_t b = 0; b < islands_.size(); ++b) {
    blocks[b] = islands_[b].members();
  }
  for (std::size_t s = 0; s < single_device_.size(); ++s) {
    const std::size_t b = islands_.size() + s;
    const DeviceId dev = single_device_[s];
    blocks[b] = {Island::Member{dev,
                                {block_w_[b] / 2, block_h_[b] / 2},
                                device_orient_[dev.index()]}};
  }
  return blocks;
}

void SaPlacer::reset_anneal_state() {
  // Rebuild the mutable representation from the circuit so every place()
  // call on this instance starts from the pristine state — previously a
  // second run inherited the island permutations and flips the first one
  // ended in.
  const netlist::Circuit& circuit = compiled_->circuit();
  device_orient_.assign(circuit.num_devices(), {});
  islands_.clear();
  for (const netlist::SymmetryGroup& g :
       circuit.constraints().symmetry_groups) {
    islands_.emplace_back(circuit, g);
  }
}

void SaPlacer::realize(const SequencePair::Packing& pk,
                       netlist::Placement& pl) const {
  realize(pk, islands_, device_orient_, pl);
}

void SaPlacer::realize(const SequencePair::Packing& pk,
                       const std::vector<Island>& islands,
                       const std::vector<geom::Orientation>& orient,
                       netlist::Placement& pl) const {
  for (std::size_t b = 0; b < islands.size(); ++b) {
    const geom::Point origin{pk.x[b], pk.y[b]};
    for (const Island::Member& m : islands[b].members()) {
      pl.set_position(m.device, origin + m.center);
      pl.set_orientation(m.device, m.orientation);
    }
  }
  for (std::size_t s = 0; s < single_device_.size(); ++s) {
    const std::size_t b = islands.size() + s;
    const DeviceId dev = single_device_[s];
    pl.set_position(dev, {pk.x[b] + block_w_[b] / 2, pk.y[b] + block_h_[b] / 2});
    pl.set_orientation(dev, orient[dev.index()]);
  }
}

netlist::Placement SaPlacer::sample_random(numeric::Rng& rng) {
  // Sampling walks island permutations and orientations cumulatively (the
  // GNN dataset relies on that diversity), but on dedicated copies: the
  // annealing members stay pristine, so a later place() — or interleaved
  // sampling and annealing on one instance — no longer starts from leaked
  // state. For a fixed rng the sampled sequence is unchanged.
  const netlist::Circuit& circuit = compiled_->circuit();
  if (!sample_state_ready_) {
    sample_islands_.clear();
    for (const netlist::SymmetryGroup& g :
         circuit.constraints().symmetry_groups) {
      sample_islands_.emplace_back(circuit, g);
    }
    sample_orient_.assign(circuit.num_devices(), {});
    sample_state_ready_ = true;
  }

  const std::size_t nb = num_blocks();
  SequencePair sp(nb);
  sp.shuffle(rng);
  for (DeviceId d : single_device_) {
    sample_orient_[d.index()] = {rng.bernoulli(), rng.bernoulli()};
  }
  for (Island& island : sample_islands_) {
    for (std::size_t r = 0; r < island.num_rows(); ++r) {
      if (rng.bernoulli(0.3)) island.mirror_row(r);
    }
    if (island.num_rows() >= 2 && rng.bernoulli()) {
      island.swap_rows(
          static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(island.num_rows()) - 1)),
          static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(island.num_rows()) - 1)));
    }
  }
  netlist::Placement pl(circuit);
  realize(sp.pack(block_w_, block_h_), sample_islands_, sample_orient_, pl);
  pl.normalize_to_origin();
  return pl;
}

SaResult SaPlacer::place() {
  return run_chain(numeric::split_seed(opts_.seed, 0));
}

SaPlacer::Move SaPlacer::propose_move(numeric::Rng& rng) {
  // Move kinds: 0 swap+, 1 swap both, 2 flip device, 3 island row swap,
  // 4 island mirror. Applies the move to the representation; undo_move
  // reverses it.
  const std::size_t nb = num_blocks();
  const bool have_islands = !islands_.empty();
  const bool have_singles = !single_device_.empty();
  Move mv;
  const int kind = rng.uniform_int(0, 99);
  if (kind < 35 && nb >= 2) {
    mv.i = draw_index(rng, nb);
    mv.j = draw_distinct(rng, mv.i, nb);
    sp_.swap_in_plus(mv.i, mv.j);
    mv.kind = 0;
  } else if (kind < 70 && nb >= 2) {
    mv.i = draw_index(rng, nb);
    mv.j = draw_distinct(rng, mv.i, nb);
    sp_.swap_in_both(mv.i, mv.j);
    mv.kind = 1;
  } else if (kind < 85 && have_singles) {
    mv.flip_dev = single_device_[draw_index(rng, single_device_.size())];
    mv.flip_axis_x = rng.bernoulli();
    geom::Orientation& o = device_orient_[mv.flip_dev.index()];
    if (mv.flip_axis_x) o.flip_x = !o.flip_x;
    else o.flip_y = !o.flip_y;
    mv.kind = 2;
  } else if (have_islands) {
    mv.isl = draw_index(rng, islands_.size());
    Island& island = islands_[mv.isl];
    if (island.num_rows() >= 2 && rng.bernoulli()) {
      mv.r1 = draw_index(rng, island.num_rows());
      mv.r2 = draw_distinct(rng, mv.r1, island.num_rows());
      island.swap_rows(mv.r1, mv.r2);
      mv.kind = 3;
    } else {
      mv.r1 = draw_index(rng, island.num_rows());
      island.mirror_row(mv.r1);
      mv.kind = 4;
    }
  }
  return mv;
}

void SaPlacer::undo_move(const Move& mv) {
  switch (mv.kind) {
    case 0: sp_.swap_in_plus(mv.i, mv.j); break;
    case 1: sp_.swap_in_both(mv.i, mv.j); break;
    case 2: {
      geom::Orientation& o = device_orient_[mv.flip_dev.index()];
      if (mv.flip_axis_x) o.flip_x = !o.flip_x;
      else o.flip_y = !o.flip_y;
      break;
    }
    case 3: islands_[mv.isl].swap_rows(mv.r1, mv.r2); break;
    case 4: islands_[mv.isl].mirror_row(mv.r1); break;
    default: break;
  }
}

void SaPlacer::stage_trial(const Move& mv) {
  // Flip and island-permutation moves (kinds 2-4) leave the sequence pair
  // and every block dimension unchanged — block dims are fixed at
  // construction, and row swap / mirror preserve the island extent — so the
  // packing is bit-identical to the committed one. Skip the repack and run
  // the trial against pack_: no block origin moves, only the mutated
  // block's internals go dirty.
  const bool structural = mv.kind == 0 || mv.kind == 1;
  if (structural) {
    sp_.pack_into(block_w_, block_h_, pack_trial_);
    engine_.begin_trial(pack_trial_.x.data(), pack_trial_.y.data(),
                        pack_trial_.width, pack_trial_.height);
  } else {
    engine_.begin_trial(pack_.x.data(), pack_.y.data(), pack_.width,
                        pack_.height);
  }
  // Internal mutations force-reevaluate their block's caches; translated
  // blocks need no marking — trial_cost discovers them from the origin
  // deltas, and blocks that neither moved nor changed inside keep their
  // cached net/constraint values.
  if (mv.kind == 3 || mv.kind == 4) {
    islands_[mv.isl].members_into(member_scratch_);
    engine_.refresh_block(mv.isl, member_scratch_);
  } else if (mv.kind == 2) {
    const std::size_t b = single_block_of_[mv.flip_dev.index()];
    single_scratch_[0] =
        Island::Member{mv.flip_dev,
                       {block_w_[b] / 2, block_h_[b] / 2},
                       device_orient_[mv.flip_dev.index()]};
    engine_.refresh_block(b, single_scratch_);
  }
}

void SaPlacer::commit_trial(const Move& mv) {
  // Kinds 2-4 never packed into pack_trial_ (see stage_trial), so the
  // committed packing is already current.
  if (mv.kind == 0 || mv.kind == 1) std::swap(pack_, pack_trial_);
}

SaResult SaPlacer::run_chain(std::uint64_t chain_seed) {
  // One coarse span per chain; per-move telemetry is batched into the
  // local loop counters and flushed once at the end so the hot loop pays
  // nothing (the <2% bench_micro_kernels budget).
  obs::Span chain_span("sa/chain");
  const double t_start = obs::now_seconds();
  numeric::Rng rng(chain_seed);
  reset_anneal_state();
  const std::size_t nb = num_blocks();
  sp_ = SequencePair(nb);
  sp_.shuffle(rng);
  sp_.pack_into(block_w_, block_h_, pack_);

  netlist::Placement pl(compiled_->circuit());
  realize(pack_, pl);
  // Normalizers: initial state metrics (penalty scale = layout half-perimeter
  // so residuals in microns are comparable). The area metric is the packing
  // extent (identical to the block bounding box).
  hpwl0_ = std::max(pl.total_hpwl(), 1e-9);
  area0_ = std::max(pack_.width * pack_.height, 1e-9);
  penalty0_ = std::max(std::sqrt(area0_), 1e-9);

  engine_.set_weights({opts_.area_weight, kConstraintWeight, hpwl0_,
                       area0_, penalty0_});
  engine_.reset(block_members(), pack_.x.data(), pack_.y.data(), pack_.width,
                pack_.height);

  // Every computed extra-cost value must be non-negative, the floor the
  // move loop relies on (NaN passes: the Metropolis test rejects it).
  const auto extra_cost = [this](const netlist::Placement& placement) {
    const double value = opts_.extra_cost(placement);
    APLACE_DCHECK(!(value < 0));
    return value;
  };
  double cur_cost = engine_.cost();
  if (opts_.extra_cost) cur_cost += extra_cost(engine_.placement());
  SaResult best{pl, cur_cost, 0, 0};

  // Calibrate T0 by sampling swap-move deltas from the initial state. The
  // 40-probe pool used to shrink whenever i == j came up; draw_distinct
  // keeps it full.
  std::vector<double> deltas;
  if (nb >= 2) {
    for (int k = 0; k < 40; ++k) {
      Move mv;
      mv.kind = 1;
      mv.i = draw_index(rng, nb);
      mv.j = draw_distinct(rng, mv.i, nb);
      sp_.swap_in_both(mv.i, mv.j);
      stage_trial(mv);
      double probe = engine_.trial_cost();
      if (opts_.extra_cost) {
        probe += extra_cost(engine_.trial_placement());
      }
      engine_.rollback();
      sp_.swap_in_both(mv.i, mv.j);  // undo
      deltas.push_back(std::abs(probe - cur_cost));
    }
  }
  double t0 = 0.3;
  if (!deltas.empty()) {
    double mean = 0;
    for (double d : deltas) mean += d;
    mean /= static_cast<double>(deltas.size());
    t0 = std::max(mean * 1.5, 1e-6);
  }

  double temp = t0;
  const double t_stop = t0 * kStopTemperatureRatio;
  const long moves_per_temp =
      static_cast<long>(opts_.moves_per_temp_per_block) *
      static_cast<long>(std::max<std::size_t>(nb, 1));
  long moves = 0;
  long temp_steps = 0;
  long extra_calls = 0, extra_skips = 0;
  const auto with_extra = [&](double trial_cost) {
    if (!opts_.extra_cost) return trial_cost;
    ++extra_calls;
    return trial_cost + extra_cost(engine_.trial_placement());
  };

  while (temp > t_stop && !best.deadline_hit) {
    for (long m = 0; m < moves_per_temp; ++m) {
      if (opts_.max_moves > 0 && moves >= opts_.max_moves) break;
      // Poll the stop handle every 64 moves (steady_clock reads are cheap
      // but not free next to a sequence-pair repack).
      if ((moves & 63) == 0 && opts_.deadline.expired()) {
        best.deadline_hit = true;
        break;
      }

      const Move mv = propose_move(rng);
      // Structurally impossible draw (e.g. a single block with no flips or
      // islands): nothing applied, so the move budget is not charged.
      if (mv.kind < 0) continue;
      ++moves;

      // --- evaluate --------------------------------------------------------
      stage_trial(mv);  // packs internally for structural moves
      const double trial_cost = engine_.trial_cost();
      double new_cost = trial_cost;
      // Metropolis test, deciding a rejection before the extra term where
      // that is exact (docs/ALGORITHMS.md §6): the term is non-negative and
      // rounding is monotone, so delta >= delta_lb, and delta_lb > 0 means
      // the test draws u anyway.
      const double delta_lb = trial_cost - cur_cost;
      bool accept;
      if (delta_lb > 0) {
        const double u = rng.uniform();
        accept = u < std::exp(-delta_lb / temp);
        if (opts_.extra_cost) {
          if (accept) {
            new_cost = with_extra(trial_cost);
            accept = u < std::exp(-(new_cost - cur_cost) / temp);
          } else {
            ++extra_skips;
          }
        }
      } else {
        new_cost = with_extra(trial_cost);
        const double delta = new_cost - cur_cost;
        accept = delta <= 0 || rng.uniform() < std::exp(-delta / temp);
      }
      if (accept) {
        cur_cost = new_cost;
        ++best.moves_accepted;
        engine_.commit();
        commit_trial(mv);
        if (new_cost < best.cost) {
          best.cost = new_cost;
          best.placement = engine_.placement();  // new-best snapshot only
        }
      } else {
        engine_.rollback();
        undo_move(mv);
      }
    }
    if (opts_.max_moves > 0 && moves >= opts_.max_moves) break;
    temp *= opts_.cooling;
    ++temp_steps;
  }

  best.moves_evaluated = moves;
  best.placement.normalize_to_origin();
  best.anneal_seconds = obs::now_seconds() - t_start;
  best.moves_per_second =
      best.anneal_seconds > 0
          ? static_cast<double>(moves) / best.anneal_seconds
          : 0.0;
  best.extra_cost_calls = extra_calls;
  best.extra_cost_skips = extra_skips;
  best.eval_stats = engine_.stats();

  obs::counter("sa/chains").inc();
  obs::counter("sa/moves").add(static_cast<std::uint64_t>(std::max(moves, 0L)));
  obs::counter("sa/extra_cost_calls")
      .add(static_cast<std::uint64_t>(extra_calls));
  obs::counter("sa/extra_cost_skips")
      .add(static_cast<std::uint64_t>(extra_skips));
  obs::counter("sa/accepts")
      .add(static_cast<std::uint64_t>(std::max(best.moves_accepted, 0L)));
  obs::counter("sa/temp_steps")
      .add(static_cast<std::uint64_t>(std::max(temp_steps, 0L)));
  obs::counter("sa/net_evals").add(best.eval_stats.nets_evaluated);
  obs::counter("sa/cost_evals").add(best.eval_stats.evals);
  return best;
}

double SaPlacer::verify_incremental(std::uint64_t seed, int steps) {
  numeric::Rng rng(seed);
  reset_anneal_state();
  const std::size_t nb = num_blocks();
  sp_ = SequencePair(nb);
  sp_.shuffle(rng);
  sp_.pack_into(block_w_, block_h_, pack_);

  netlist::Placement pl(compiled_->circuit());
  realize(pack_, pl);
  hpwl0_ = std::max(pl.total_hpwl(), 1e-9);
  area0_ = std::max(pack_.width * pack_.height, 1e-9);
  penalty0_ = std::max(std::sqrt(area0_), 1e-9);
  engine_.set_weights({opts_.area_weight, kConstraintWeight, hpwl0_,
                       area0_, penalty0_});
  engine_.reset(block_members(), pack_.x.data(), pack_.y.data(), pack_.width,
                pack_.height);

  double max_dev = 0.0;
  netlist::Placement chk(compiled_->circuit());
  for (int s = 0; s < steps; ++s) {
    const Move mv = propose_move(rng);
    if (mv.kind < 0) continue;
    stage_trial(mv);
    (void)engine_.trial_cost();
    if (rng.bernoulli()) {  // exercise both the commit and rollback paths
      engine_.commit();
      commit_trial(mv);
    } else {
      engine_.rollback();
      undo_move(mv);
    }
    // Oracle 1: incremental totals vs from-scratch recompute.
    max_dev = std::max(max_dev, std::abs(engine_.cost() - engine_.full_cost()));
    // Oracle 2: engine state vs a freshly realized placement of the
    // committed representation (catches staging omissions).
    realize(pack_, chk);
    const double hp = chk.total_hpwl();
    max_dev =
        std::max(max_dev, std::abs(engine_.hpwl() - hp) / std::max(1.0, hp));
    for (std::size_t d = 0; d < compiled_->num_devices(); ++d) {
      const geom::Point a = engine_.placement().position(DeviceId{d});
      const geom::Point b = chk.position(DeviceId{d});
      max_dev = std::max({max_dev, std::abs(a.x - b.x), std::abs(a.y - b.y)});
    }
  }
  return max_dev;
}

}  // namespace aplace::sa
