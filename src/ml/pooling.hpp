// Max pooling over the length axis of (N, C, L) tensors.
#pragma once

#include "ml/layer.hpp"

namespace gea::ml {

/// MaxPool1D with equal window and stride (the paper uses 2/2). Trailing
/// positions that do not fill a full window are dropped (floor semantics).
class MaxPool1D : public Layer {
 public:
  explicit MaxPool1D(std::size_t window);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward_input(const Tensor& grad_out) override;
  /// Inference fast path: max without the argmax bookkeeping.
  Tensor infer(const Tensor& x) override;
  std::string describe() const override;
  LayerPtr clone() const override { return std::make_unique<MaxPool1D>(window_); }

 private:
  std::size_t window_;
  std::vector<std::size_t> argmax_;  // flat input index per output element
  std::vector<std::size_t> in_shape_;
};

}  // namespace gea::ml
