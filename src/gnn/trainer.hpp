#pragma once
// GNN training on placement samples labeled by the surrogate performance
// model (label 1 = unsatisfactory FOM, as in the paper: "Each sample has
// label 0 (1) for satisfactory (unsatisfactory) circuit performance";
// cross-entropy loss, Adam).

#include <vector>

#include "gnn/graph.hpp"
#include "gnn/model.hpp"
#include "numeric/adam.hpp"

namespace aplace::gnn {

struct Sample {
  std::vector<double> positions;  ///< v = (x.., y..)
  double label = 0;               ///< 1 = unsatisfactory
};

/// L2 weight decay added to the mean loss gradient each epoch.
inline constexpr double kWeightDecay = 1e-5;
/// Share of the samples held out for validation (at least one trains).
inline constexpr double kValidationFraction = 0.2;

/// Train samples whose forward and backward passes run concurrently before
/// their gradients are added in, and samples per pool task within a wave.
/// Any thread count runs the same waves and chunks, so the trained weights
/// do not depend on it.
inline constexpr std::size_t kTrainWave = 32;
inline constexpr std::size_t kTrainChunk = 8;

struct TrainOptions {
  int epochs = 120;
  double lr = 5e-3;
  std::uint64_t seed = 7;
};

struct TrainReport {
  double final_loss = 0;
  double train_accuracy = 0;
  double validation_accuracy = 0;
  int epochs_run = 0;
};

class Trainer {
 public:
  Trainer(const CircuitGraph& graph, GnnModel& model, TrainOptions opts = {});

  /// Full-batch training on the global thread pool; returns the final
  /// report. Bit-identical to one serial pass over the train set per epoch
  /// at any pool size.
  TrainReport train(const std::vector<Sample>& samples);

 private:
  const CircuitGraph* graph_;
  GnnModel* model_;
  TrainOptions opts_;
};

}  // namespace aplace::gnn
