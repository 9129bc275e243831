#pragma once
// Smoothed (differentiable) wirelength models for analytical global
// placement.
//
//  * WaWirelength  — Weighted-Average smoothing (paper Eq. 2), used by
//    ePlace/ePlace-A. Lower estimation error than LSE (Hsu et al., DAC'11).
//  * LseWirelength — Log-Sum-Exponential smoothing, used by NTUplace3 and
//    the prior analytical analog work [11].
//
// Both evaluate a smoothed total weighted HPWL over all nets and accumulate
// its gradient with respect to the device-center variable vector
// v = (x_1..x_n, y_1..y_n). Pin offsets (relative to device centers, in the
// unflipped orientation) are constants during global placement, so
// d pin / d center = 1.
//
// The kernels gather/scatter over the CompiledCircuit wirelength table
// (non-degenerate nets, center-relative pin offsets) — no adjacency is
// built here.
//
// Each net's per-pin inner loops are one 4-lane simd::Vec4d kernel
// (per-net max/min shift, exp values cached between the value and gradient
// passes, masked tail for the remainder pins). A serial scalar reference of
// the same math lives in tests/kernel_oracle.hpp; the two agree to <= 1e-12
// relative on every registry circuit (tests/simd_test.cpp). Results are
// bit-identical at any thread count and across the scalar/SSE2/AVX2
// builds.

#include <span>

#include "netlist/compiled.hpp"
#include "numeric/vec.hpp"

namespace aplace::wirelength {

class SmoothWirelength {
 public:
  explicit SmoothWirelength(netlist::CompiledRef compiled);
  virtual ~SmoothWirelength() = default;

  /// Smoothing parameter gamma (um). Smaller = closer to exact HPWL but
  /// stiffer gradients; global placers anneal it downward.
  void set_gamma(double gamma) {
    APLACE_CHECK(gamma > 0);
    gamma_ = gamma;
  }
  [[nodiscard]] double gamma() const { return gamma_; }

  /// Evaluate at v (size 2n) and *add* the gradient into grad (size 2n).
  /// Returns the smoothed weighted wirelength.
  virtual double value_and_grad(std::span<const double> v,
                                std::span<double> grad) const = 0;

  /// Exact weighted HPWL at v (pins at constant offsets, no flipping).
  [[nodiscard]] double exact_hpwl(std::span<const double> v) const;

 protected:
  enum class Kind { kWa, kLse };

  [[nodiscard]] const netlist::CompiledCircuit& compiled() const {
    return *compiled_;
  }
  [[nodiscard]] std::size_t num_devices() const {
    return compiled_->num_devices();
  }

  /// Run the smoothing kernel of `kind` over every net of the compiled
  /// wirelength table, accumulating the weighted total and the gradient
  /// into `grad`. Nets are cut into fixed chunks of kNetGrain (independent
  /// of thread count); chunks beyond the first run on the global pool with
  /// private gradient partials that are reduced in chunk order, so the
  /// result is bit-identical for any pool size. One-chunk circuits take the
  /// direct serial path with no partials.
  double accumulate(std::span<const double> v, std::span<double> grad,
                    Kind kind) const;

  double gamma_ = 1.0;

 private:
  static constexpr std::size_t kNetGrain = 128;

  netlist::CompiledRef compiled_;
  std::size_t max_net_pins_ = 0;

  // Per-chunk scratch for the parallel path (empty until first used; each
  // instance is driven by one placement flow at a time, so `mutable` here
  // is safe).
  mutable std::vector<std::vector<double>> grad_part_;
  mutable std::vector<double> total_part_;
};

class WaWirelength final : public SmoothWirelength {
 public:
  using SmoothWirelength::SmoothWirelength;
  double value_and_grad(std::span<const double> v,
                        std::span<double> grad) const override;
};

class LseWirelength final : public SmoothWirelength {
 public:
  using SmoothWirelength::SmoothWirelength;
  double value_and_grad(std::span<const double> v,
                        std::span<double> grad) const override;
};

}  // namespace aplace::wirelength
