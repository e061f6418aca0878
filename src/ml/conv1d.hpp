// 1D convolution over (N, C, L) batches with unit stride.
//
// Matches the paper's two padding modes: `kSame` (zero-pad so L_out == L_in,
// used by Conv 1 and Conv 3) and `kValid` (no padding, L_out = L_in - k + 1,
// used by Conv 2 and Conv 4).
//
// All math is lowered onto kernels::gemm via im2col (kernels/conv.hpp):
// forward, batched infer, and both backward GEMMs share one tiled,
// vectorized path whose per-element accumulation is k-ordered — so
// per-sample forward and batched infer stay bitwise identical by
// construction, and the whole layer is ULP-bounded against the preserved
// seed loops (kernels/reference.hpp).
//
// Like Dense, the layer keeps its weights packed for the two GEMMs that
// read them (kernels::WeightPack), built on the first small-batch call and
// dropped by init() and params() (the lease rule in ml/layer.hpp). So an
// attack's batch-1 forward and input gradient stop re-packing W on every
// call; the numbers are unchanged.
#pragma once

#include <memory>

#include "kernels/conv.hpp"
#include "ml/layer.hpp"

namespace gea::ml {

enum class Padding { kSame, kValid };

class Conv1D : public Layer {
 public:
  Conv1D(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel_size, Padding padding);

  Tensor forward(const Tensor& x, bool training) override;
  /// dL/dx alone skips the weight-gradient GEMMs and their im2col.
  Tensor backward_input(const Tensor& grad_out) override;
  void accumulate_param_grads(const Tensor& grad_out) override;
  /// Batched inference fast path: forward() without the input cache copy.
  /// Identical kernel path, so the logits are bitwise identical.
  Tensor infer(const Tensor& x) override;
  /// Drops the weight packs; each returned Param holds the write lease.
  std::vector<Param> params() override;
  std::string describe() const override;
  void init(util::Rng& rng) override;
  LayerPtr clone() const override;

  std::size_t output_length(std::size_t input_length) const;

 private:
  kernels::Conv1DShape shape_for(const Tensor& x) const;
  /// Shape of the cached forward input, after checking grad_out against it.
  kernels::Conv1DShape grad_shape(const Tensor& grad_out) const;
  Tensor apply(const Tensor& x, const char* what);
  /// The pack to hand the kernels for a batch of n, or nullptr while a
  /// Param is alive.
  const kernels::PackedB* packed_wt(std::size_t n);
  const kernels::PackedB* packed_w(std::size_t n);

  std::size_t in_ch_;
  std::size_t out_ch_;
  std::size_t k_;
  Padding padding_;
  std::vector<float> w_;   // (out_ch, in_ch, k)
  std::vector<float> b_;   // (out_ch)
  std::vector<float> gw_;
  std::vector<float> gb_;
  Tensor last_input_;
  kernels::WeightPack pack_;
  std::shared_ptr<const void> lease_ = std::make_shared<int>(0);
};

}  // namespace gea::ml
