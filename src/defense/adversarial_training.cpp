#include "defense/adversarial_training.hpp"

#include <numeric>
#include <stdexcept>

#include "ml/loss.hpp"
#include "ml/optimizer.hpp"

namespace gea::defense {

ml::TrainStats adversarial_train(ml::Model& model, const ml::LabeledData& data,
                                 const AdvTrainConfig& cfg) {
  if (data.rows.empty()) {
    throw std::invalid_argument("adversarial_train: empty dataset");
  }
  const std::size_t dim = data.rows.front().size();
  ml::ModelClassifier clf(model, dim, 2);
  attacks::Pgd pgd(cfg.pgd);

  util::Rng rng(cfg.seed);
  ml::Adam opt(cfg.base.learning_rate);
  ml::TrainStats stats;

  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < cfg.base.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t batches = 0;
    for (std::size_t begin = 0; begin < order.size();
         begin += cfg.base.batch_size) {
      const std::size_t end =
          std::min(begin + cfg.base.batch_size, order.size());
      const std::size_t n = end - begin;

      // Assemble the (possibly adversarial) batch. Crafting runs the model
      // in inference mode and leaves stale layer caches (never parameter
      // gradients); the training forward below resets them.
      ml::Tensor x({n, 1, dim});
      std::vector<std::uint8_t> y(n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t s = order[begin + i];
        y[i] = data.labels[s];
        std::vector<double> row = data.rows[s];
        if (rng.chance(cfg.adversarial_fraction)) {
          row = pgd.craft(clf, row, y[i] == 0 ? 1 : 0);
        }
        for (std::size_t j = 0; j < dim; ++j) {
          x[i * dim + j] = static_cast<float>(row[j]);
        }
      }

      model.zero_grad();
      const ml::Tensor logits = model.forward(x, /*training=*/true);
      loss_sum += ml::cross_entropy(logits, y);
      ++batches;
      model.backward(ml::cross_entropy_grad(logits, y));
      opt.step(model.params());
    }
    const double mean_loss = loss_sum / static_cast<double>(batches);
    stats.epoch_losses.push_back(mean_loss);
    if (cfg.base.on_epoch) cfg.base.on_epoch(epoch, mean_loss);
    if (cfg.base.early_stop_loss > 0.0 && mean_loss < cfg.base.early_stop_loss) {
      break;
    }
  }
  stats.final_loss =
      stats.epoch_losses.empty() ? 0.0 : stats.epoch_losses.back();
  return stats;
}

}  // namespace gea::defense
