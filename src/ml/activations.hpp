// Stateless / mask-based layers: ReLU, Dropout, Flatten.
#pragma once

#include "ml/layer.hpp"

namespace gea::ml {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward_input(const Tensor& grad_out) override;
  /// Inference fast path: clamp without building the backward mask.
  Tensor infer(const Tensor& x) override;
  std::string describe() const override { return "ReLU"; }
  LayerPtr clone() const override { return std::make_unique<ReLU>(); }

 private:
  std::vector<bool> mask_;  // true where input > 0
};

/// Inverted dropout: at train time zeroes activations with probability `p`
/// and scales survivors by 1/(1-p); identity at inference, so attacks (which
/// run inference-mode forwards) see the deterministic network.
class Dropout : public Layer {
 public:
  Dropout(double p, util::Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward_input(const Tensor& grad_out) override;
  /// Identity at inference (inverted dropout), so no work and no Rng draw.
  Tensor infer(const Tensor& x) override { return x; }
  std::string describe() const override;
  /// The clone shares this instance's Rng pointer; parallel callers rebind
  /// it per chunk via bind_rng before any training-mode forward.
  LayerPtr clone() const override { return std::make_unique<Dropout>(p_, *rng_); }
  void bind_rng(util::Rng* rng) override { rng_ = rng; }

 private:
  double p_;
  util::Rng* rng_;
  std::vector<float> mask_;  // multiplier applied elementwise at train time
  bool last_training_ = false;
};

/// (N, C, L) -> (N, C*L).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward_input(const Tensor& grad_out) override;
  /// Reshape without remembering the input shape for backward.
  Tensor infer(const Tensor& x) override;
  std::string describe() const override { return "Flatten"; }
  LayerPtr clone() const override { return std::make_unique<Flatten>(); }

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace gea::ml
