// Layer abstraction.
//
// Layers are stateful: forward() caches whatever backward() needs, so a
// backward call must follow the forward call whose gradient it computes.
// backward() accumulates parameter gradients (callers zero them via
// Model::zero_grad) and returns the gradient with respect to the layer
// input. backward_input() returns the same input gradient, bit for bit,
// without touching a parameter gradient — the chain every white-box attack
// rides. backward() is literally accumulate_param_grads() followed by
// backward_input(), so the two can never disagree.
//
// Layers may keep derived copies of their weights (Dense and Conv1D keep
// them packed for the GEMM in a kernels::WeightPack). Such a copy is
// dropped by init() and by every params() call, and is not rebuilt while a
// Param handed out by params() is still alive: a Param is a write lease on
// the weights. Model applies the same rule one level up to its memo of the
// last eval-mode forward (ml/model.hpp): a Param from Model::params() pins
// the model's lease as well as its layer's. Write weights only through a
// live Param (or init / Model::load), never through a pointer kept after
// its Param is gone.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/tensor.hpp"
#include "util/rng.hpp"

namespace gea::ml {

/// A learnable parameter: value and gradient, same length. `lease` keeps
/// the owning layer from caching derived copies of `value` while any copy
/// of this Param is alive (see the header comment).
struct Param {
  std::vector<float>* value = nullptr;
  std::vector<float>* grad = nullptr;
  std::string name;
  std::shared_ptr<const void> lease = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output. `training` toggles dropout et al.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Propagate `grad_out` (dL/d output) to dL/d input, accumulating
  /// parameter gradients along the way.
  Tensor backward(const Tensor& grad_out) {
    accumulate_param_grads(grad_out);
    return backward_input(grad_out);
  }

  /// dL/d input only: bitwise the value backward() returns, with every
  /// parameter gradient left untouched.
  virtual Tensor backward_input(const Tensor& grad_out) = 0;

  /// Add dL/d params for `grad_out` into the gradient buffers (no-op for
  /// stateless layers). Follows the same forward() as backward_input().
  virtual void accumulate_param_grads(const Tensor& /*grad_out*/) {}

  /// Inference-only forward over a (possibly multi-sample) batch: skips
  /// every backward cache (input copies, ReLU masks, pool argmaxes) and may
  /// use tighter loops, but MUST produce bitwise-identical output to
  /// forward(x, false) — the serving layer batches requests through this
  /// path and the per-sample/batched equivalence is asserted in tests.
  /// It must leave the forward caches alone: Model keeps its forward memo
  /// across infer(), and a backward() may follow a memo hit. backward()
  /// right after infer() alone is undefined; call forward() when training.
  virtual Tensor infer(const Tensor& x) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<Param> params() { return {}; }

  /// One-line description, e.g. "Conv1D(1->46, k=3, same)".
  virtual std::string describe() const = 0;

  /// Initialize weights (no-op for stateless layers).
  virtual void init(util::Rng&) {}

  /// Deep copy (weights included, forward/backward caches reset) for
  /// per-worker model replicas in the parallel layer. nullptr means the
  /// layer is not cloneable, which makes Model::clonable() false and sends
  /// parallel callers down their serial fallback.
  virtual std::unique_ptr<Layer> clone() const { return nullptr; }

  /// Rebind any internal Rng (dropout). Parallel training points each model
  /// replica at a chunk-specific Rng seeded by counter-split, so mask draws
  /// are deterministic per chunk instead of sequenced through a shared
  /// stream. No-op for layers without randomness.
  virtual void bind_rng(util::Rng* /*rng*/) {}
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace gea::ml
