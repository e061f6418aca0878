// Fully connected layer: y = W x + b over (N, in) batches.
//
// Lowered onto kernels::gemm: forward/infer map to one batch-wide GEMM
// (x * W^T + b), backward to two accumulating GEMMs. The per-element
// k-ordered chain keeps per-sample and batched results bitwise identical
// and matches the seed loop order exactly (kernels/reference.hpp).
//
// The weights are kept packed for the GEMM (kernels::WeightPack): W^T on
// the first small-batch forward/infer, W on the first small-batch input
// gradient, each reused by every later call until init() or params() drops
// it (see ml/layer.hpp for the lease rule). So batch-1 inference and attack
// gradients read ready panels instead of re-packing 368x512 weights per
// call; the numbers are unchanged.
#pragma once

#include <memory>

#include "kernels/conv.hpp"
#include "ml/layer.hpp"

namespace gea::ml {

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward_input(const Tensor& grad_out) override;
  void accumulate_param_grads(const Tensor& grad_out) override;
  /// Inference fast path: forward() without the input cache copy.
  Tensor infer(const Tensor& x) override;
  /// Drops the weight packs; each returned Param holds the write lease.
  std::vector<Param> params() override;
  std::string describe() const override;
  void init(util::Rng& rng) override;
  LayerPtr clone() const override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  std::vector<float> w_;   // (out, in) row-major
  std::vector<float> b_;   // (out)
  std::vector<float> gw_;
  std::vector<float> gb_;
  Tensor last_input_;
  kernels::WeightPack pack_;
  std::shared_ptr<const void> lease_ = std::make_shared<int>(0);

  Tensor apply(const Tensor& x, const char* what);
  void check_grad(const Tensor& grad_out) const;
  /// The pack to hand the kernels for a batch of n, or nullptr while a
  /// Param is alive.
  const kernels::PackedB* packed_wt(std::size_t n);
  const kernels::PackedB* packed_w(std::size_t n);
};

}  // namespace gea::ml
