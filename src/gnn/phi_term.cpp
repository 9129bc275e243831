#include "gnn/phi_term.hpp"

#include <algorithm>

namespace aplace::gnn {

double PhiTerm::value_and_grad(std::span<const double> v,
                               std::span<double> grad, double scale) {
  // phi_and_grad adds the raw gradient; route it through a scratch buffer
  // to apply the scheduler's weight (exactly the axpy the placers used for
  // the legacy extra-term functor).
  if (scratch_.size() != grad.size()) scratch_.assign(grad.size(), 0.0);
  std::fill(scratch_.begin(), scratch_.end(), 0.0);
  const double phi = net_->phi_and_grad(*graph_, v, ws_, scratch_);
  numeric::axpy(scale, scratch_, grad);
  return phi;
}

}  // namespace aplace::gnn
