#pragma once
// Sequence-pair floorplan representation with O(n log n) LCS packing.
//
// Blocks (single devices or symmetry islands) are ordered by two sequences
// (gamma+, gamma-). Block b is left of c iff b precedes c in both sequences;
// below c iff b succeeds c in gamma+ and precedes it in gamma-. Packing
// computes the minimal left/bottom-compacted positions.
//
// The packer is the Tang–Wong longest-common-subsequence formulation
// (DAC'01 "FAST-SP"): block positions are weighted-LCS lengths, computed in
// O(n log n) with a Fenwick prefix-max structure indexed by gamma-
// position. The O(n^2) longest-path packer it replaced is the test oracle
// (oracle::pack_naive in tests/kernel_oracle.hpp): both produce
// bit-identical coordinates, the same max/+ reductions over the same
// operand sets.

#include <vector>

#include "base/check.hpp"
#include "numeric/rng.hpp"

namespace aplace::sa {

class SequencePair {
 public:
  /// Identity sequences over n blocks.
  explicit SequencePair(std::size_t n);

  [[nodiscard]] std::size_t size() const { return pos_plus_.size(); }

  // ---- moves ---------------------------------------------------------------
  void swap_in_plus(std::size_t i, std::size_t j);
  void swap_in_both(std::size_t i, std::size_t j);
  void shuffle(numeric::Rng& rng);

  // ---- packing -------------------------------------------------------------
  struct Packing {
    std::vector<double> x, y;  ///< block lower-left corners
    double width = 0, height = 0;
  };

  /// Pack blocks of the given sizes into `out`, reusing its buffers
  /// (allocation-free after the first call). O(n log n) LCS formulation.
  /// Not thread-safe across concurrent calls on the same SequencePair
  /// (shared Fenwick scratch); each SA chain owns its own instance.
  void pack_into(const std::vector<double>& widths,
                 const std::vector<double>& heights, Packing& out) const;

  /// Convenience wrapper around pack_into.
  [[nodiscard]] Packing pack(const std::vector<double>& widths,
                             const std::vector<double>& heights) const;

  /// Does block a precede b in both sequences (a strictly left of b)?
  [[nodiscard]] bool left_of(std::size_t a, std::size_t b) const {
    return pos_plus_[a] < pos_plus_[b] && pos_minus_[a] < pos_minus_[b];
  }
  [[nodiscard]] bool below(std::size_t a, std::size_t b) const {
    return pos_plus_[a] > pos_plus_[b] && pos_minus_[a] < pos_minus_[b];
  }

  [[nodiscard]] const std::vector<std::size_t>& gamma_plus() const {
    return seq_plus_;
  }
  [[nodiscard]] const std::vector<std::size_t>& gamma_minus() const {
    return seq_minus_;
  }

 private:
  // seq_*: position -> block, pos_*: block -> position.
  std::vector<std::size_t> seq_plus_, seq_minus_;
  std::vector<std::size_t> pos_plus_, pos_minus_;
  // Fenwick prefix-max scratch for pack_into (1-based, size n+1). Mutable:
  // packing is logically const, the tree is rebuilt on every call.
  mutable std::vector<double> fenwick_;
};

}  // namespace aplace::sa
