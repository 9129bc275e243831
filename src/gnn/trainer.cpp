#include "gnn/trainer.hpp"

#include <algorithm>
#include <cmath>
#include <array>
#include <numeric>

#include "base/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace aplace::gnn {
namespace {

/// Parameters per pool task when a wave's gradient terms are added in.
constexpr std::size_t kReplayGrain = 320;

}  // namespace

Trainer::Trainer(const CircuitGraph& graph, GnnModel& model, TrainOptions opts)
    : graph_(&graph), model_(&model), opts_(opts) {}

TrainReport Trainer::train(const std::vector<Sample>& samples) {
  APLACE_CHECK_MSG(!samples.empty(), "no training samples");
  obs::Span span("gnn/train");
  TrainReport report;
  numeric::Rng rng(opts_.seed);

  // Split train / validation deterministically.
  std::vector<std::size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), rng.engine());
  const std::size_t n_val = std::min(
      samples.size() - 1,
      static_cast<std::size_t>(std::llround(
          kValidationFraction * static_cast<double>(samples.size()))));
  std::vector<std::size_t> val(order.begin(), order.begin() + n_val);
  std::vector<std::size_t> train(order.begin() + n_val, order.end());

  std::vector<double> params = model_->parameters();
  numeric::Adam adam(params.size(), {.lr = opts_.lr});

  // Each epoch runs the train set in waves of kTrainWave samples. A wave's
  // forward and backward passes run on the pool, kTrainChunk samples per
  // task, each chunk on its own workspace, into per-sample slots: the loss
  // term and the weight-gradient terms. A wave's slots are then added into
  // `loss` and `grad` in sample order, so every entry takes the same adds
  // in the same order as one serial pass over the samples. Those adds run
  // on the pool too, split by parameter index, in the same fan-out as the
  // next wave's passes, which fill the other of two slot sets. Workspaces
  // and slots are allocated here, on the calling thread, before any epoch.
  const std::size_t n = graph_->num_nodes();
  const std::size_t wave = std::min(kTrainWave, train.size());
  std::vector<Workspace> ws(base::ThreadPool::chunk_count(wave, kTrainChunk));
  for (Workspace& w : ws) w.resize(n);
  struct Slots {
    std::vector<double> loss;
    std::vector<GnnModel::GradTerms> terms;
  };
  std::array<Slots, 2> slots;
  for (Slots& sl : slots) {
    sl.loss.resize(wave);
    sl.terms.resize(wave);
    for (GnnModel::GradTerms& t : sl.terms) {
      t.da1.resize(n * kHiddenDim);
      t.da2.resize(n * kHiddenDim);
    }
  }
  std::vector<double> grad(params.size());
  const std::size_t n_waves = base::ThreadPool::chunk_count(train.size(), wave);
  const std::size_t n_ranges =
      base::ThreadPool::chunk_count(grad.size(), kReplayGrain);
  base::ThreadPool& pool = base::ThreadPool::global();
  for (int epoch = 0; epoch < opts_.epochs; ++epoch) {
    std::fill(grad.begin(), grad.end(), 0.0);
    double loss = 0;
    // Step w runs wave w's passes (w < n_waves) and adds in wave w - 1.
    for (std::size_t w = 0; w <= n_waves; ++w) {
      const std::size_t w0 = w * wave;
      const std::size_t m = w < n_waves ? std::min(wave, train.size() - w0) : 0;
      const std::size_t prev_m =
          w > 0 ? std::min(wave, train.size() - (w0 - wave)) : 0;
      Slots& cur = slots[w % 2];
      const Slots& prev = slots[(w + 1) % 2];
      const std::size_t chunks = base::ThreadPool::chunk_count(m, kTrainChunk);
      // Tasks [0, chunks) run the passes, one chunk each; the rest add in
      // one parameter range each.
      const auto task = [&](std::size_t t, std::size_t) {
        if (t < chunks) {
          const std::size_t lo = t * kTrainChunk;
          for (std::size_t i = lo; i < std::min(m, lo + kTrainChunk); ++i) {
            const Sample& s = samples[train[w0 + i]];
            const double phi = model_->forward(*graph_, s.positions, ws[t]);
            const double p = std::clamp(phi, 1e-9, 1.0 - 1e-9);
            cur.loss[i] =
                -(s.label * std::log(p) + (1.0 - s.label) * std::log(1.0 - p));
            model_->weight_terms(*graph_, ws[t], phi - s.label, cur.terms[i]);
          }
          return;
        }
        const std::size_t lo = (t - chunks) * kReplayGrain;
        const std::size_t hi = std::min(grad.size(), lo + kReplayGrain);
        for (std::size_t i = 0; i < prev_m; ++i) {
          GnnModel::add_terms(prev.terms[i], grad, lo, hi);
        }
      };
      pool.parallel_for(0, chunks + (prev_m > 0 ? n_ranges : 0), 1, task);
      for (std::size_t i = 0; i < prev_m; ++i) loss += prev.loss[i];
    }
    const double inv = 1.0 / static_cast<double>(train.size());
    for (std::size_t k = 0; k < grad.size(); ++k) {
      grad[k] = grad[k] * inv + kWeightDecay * params[k];
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
      const double phi =
          model_->forward(*graph_, samples[si].positions, ws[0]);
      if ((phi >= 0.5) == (samples[si].label >= 0.5)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(idx.size());
  };
  report.train_accuracy = accuracy(train);
  report.validation_accuracy = accuracy(val);

  const auto epochs = static_cast<std::uint64_t>(report.epochs_run);
  obs::counter("gnn/train_epochs").add(epochs);
  obs::counter("gnn/train_samples").add(epochs * train.size());
  return report;
}

}  // namespace aplace::gnn
