#pragma once
// Adam optimizer (Kingma & Ba) used to train the GNN performance model.

#include <cmath>
#include <vector>

#include "base/check.hpp"

namespace aplace::numeric {

struct AdamOptions {
  double lr = 1e-3;
};

class Adam {
 public:
  explicit Adam(std::size_t n, AdamOptions opts = {})
      : opts_(opts), m_(n, 0.0), v_(n, 0.0) {}

  /// Apply one update: params -= lr * m_hat / (sqrt(v_hat) + eps).
  void step(std::vector<double>& params, const std::vector<double>& grad) {
    APLACE_CHECK(params.size() == m_.size() && grad.size() == m_.size());
    ++t_;
    const double bc1 = 1.0 - std::pow(kBeta1, t_);
    const double bc2 = 1.0 - std::pow(kBeta2, t_);
    for (std::size_t i = 0; i < params.size(); ++i) {
      m_[i] = kBeta1 * m_[i] + (1.0 - kBeta1) * grad[i];
      v_[i] = kBeta2 * v_[i] + (1.0 - kBeta2) * grad[i] * grad[i];
      const double mh = m_[i] / bc1;
      const double vh = v_[i] / bc2;
      params[i] -= opts_.lr * mh / (std::sqrt(vh) + kEps);
    }
  }

  [[nodiscard]] int steps_taken() const { return t_; }

 private:
  static constexpr double kBeta1 = 0.9;    ///< first-moment decay
  static constexpr double kBeta2 = 0.999;  ///< second-moment decay
  static constexpr double kEps = 1e-8;     ///< denominator guard

  AdamOptions opts_;
  int t_ = 0;
  std::vector<double> m_, v_;
};

}  // namespace aplace::numeric
