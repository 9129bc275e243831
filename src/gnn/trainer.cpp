#include "gnn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace aplace::gnn {

Trainer::Trainer(const CircuitGraph& graph, GnnModel& model, TrainOptions opts)
    : graph_(&graph), model_(&model), opts_(opts) {}

TrainReport Trainer::train(const std::vector<Sample>& samples) {
  APLACE_CHECK_MSG(!samples.empty(), "no training samples");
  TrainReport report;
  numeric::Rng rng(opts_.seed);

  // Split train / validation deterministically.
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  const std::size_t n_val = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(std::llround(
          opts_.validation_fraction * static_cast<double>(samples.size()))));
  std::vector<std::size_t> val(order.begin(), order.begin() + n_val);
  std::vector<std::size_t> train(order.begin() + n_val, order.end());

  std::vector<double> params = model_->parameters();
  numeric::Adam adam(params.size(), {.lr = opts_.lr});

  // One workspace for every sample: each forward recomputes only the
  // sample's 6 dynamic feature columns through the sparse A~, so no
  // per-sample state outlives its step.
  std::vector<double> grad(params.size());
  Workspace ws;
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0;
    for (std::size_t si : train) {
      const Sample& s = samples[si];
      const double phi = model_->forward(*graph_, s.positions, ws);
      const double p = std::clamp(phi, 1e-9, 1.0 - 1e-9);
      loss += -(s.label * std::log(p) + (1.0 - s.label) * std::log(1.0 - p));
      model_->backward(*graph_, ws, phi - s.label, grad, {});
    }
    const double inv = 1.0 / static_cast<double>(train.size());
    for (std::size_t k = 0; k < grad.size(); ++k) {
      grad[k] = grad[k] * inv + opts_.weight_decay * params[k];
    }
    adam.step(params, grad);
    model_->set_parameters(params);
    report.final_loss = loss * inv;
    report.epochs_run = epoch + 1;
  }

  auto accuracy = [&](const std::vector<std::size_t>& idx) {
    if (idx.empty()) return 1.0;
    std::size_t correct = 0;
    for (std::size_t si : idx) {
      const double phi = model_->forward(*graph_, samples[si].positions, ws);
      if ((phi >= 0.5) == (samples[si].label >= 0.5)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(idx.size());
  };
  report.train_accuracy = accuracy(train);
  report.validation_accuracy = accuracy(val);
  return report;
}

}  // namespace aplace::gnn
