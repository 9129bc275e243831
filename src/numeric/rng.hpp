#pragma once
// Deterministic RNG wrapper. All stochastic components (SA, GNN init,
// dataset generation) take an explicit Rng so experiments are reproducible.
//
// Stream splitting: parallel multi-start (GP candidates, GP starts, batch
// retries) must give every task an *independent* stream derived from one
// master seed. Deriving streams additively (seed + k * stride) aliases:
// candidate k of one run collides with candidate k' of a run whose master
// seed differs by a multiple of the stride, and nested derivations (start j
// inside candidate k) land on each other's streams. split_seed() instead
// pushes (master, stream) through SplitMix64, a full-avalanche bijective
// mixer, so distinct (master, stream) pairs map to effectively uncorrelated
// mt19937_64 seeds and stream k is independent of how many streams exist.

#include <cstdint>
#include <random>

namespace aplace::numeric {

/// SplitMix64 finalizer (Vigna / Steele et al.): bijective on uint64 with
/// full avalanche — every input bit affects every output bit.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed for independent stream `stream` of master seed `master`. Safe to
/// nest: split_seed(split_seed(m, a), b) is again an independent stream.
[[nodiscard]] constexpr std::uint64_t split_seed(std::uint64_t master,
                                                 std::uint64_t stream) {
  return splitmix64(splitmix64(master) ^ splitmix64(~stream));
}

// The uniform/uniform_int/bernoulli transforms below are hand-rolled
// instead of going through std::uniform_*_distribution for two reasons:
//   * the std distributions are the hottest non-algorithmic cost of the SA
//     move loop — libstdc++'s bounded-int path performs two 64-bit
//     divisions per draw, which is more than the incremental cost engine
//     spends evaluating a typical move;
//   * their output is implementation-defined, so streams (and therefore
//     every seeded experiment) would differ across standard libraries.
//     The transforms here pin the exact draw sequence to the mt19937_64
//     output alone.
class Rng {
  // The 64x64->128 product of uniform_int(); __extension__ keeps
  // -Wpedantic quiet about the GCC/Clang builtin type.
  __extension__ using Uint128 = unsigned __int128;

 public:
  explicit Rng(std::uint64_t seed = 0xA11A0C5EED) : engine_(seed) {}

  /// Uniform double in [lo, hi): top 53 bits of one engine draw, scaled.
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    const double u =
        static_cast<double>(engine_() >> 11) * 0x1.0p-53;  // [0, 1)
    return lo + (hi - lo) * u;
  }
  /// Uniform integer in [lo, hi] inclusive. Lemire's nearly divisionless
  /// bounded draw: one 64x64->128 multiply, rejection only in the biased
  /// sliver (a division is needed at most once per rare rejection).
  [[nodiscard]] int uniform_int(int lo, int hi) {
    const std::uint64_t range =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) -
                                   static_cast<std::int64_t>(lo)) +
        1;
    Uint128 m = static_cast<Uint128>(engine_()) * range;
    auto low = static_cast<std::uint64_t>(m);
    if (low < range) [[unlikely]] {
      const std::uint64_t threshold = (0 - range) % range;
      while (low < threshold) {
        m = static_cast<Uint128>(engine_()) * range;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return lo + static_cast<int>(static_cast<std::uint64_t>(m >> 64));
  }
  [[nodiscard]] double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }
  [[nodiscard]] bool bernoulli(double p = 0.5) { return uniform() < p; }

  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace aplace::numeric
