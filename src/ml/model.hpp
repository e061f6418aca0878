// Sequential model container and the differentiable-classifier interface
// the adversarial attacks consume.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ml/layer.hpp"
#include "ml/tensor.hpp"
#include "util/status.hpp"

namespace gea::ml {

/// A sequential stack of layers.
class Model {
 public:
  Model() = default;
  /// The destination takes the layers, the lease and the forward memo; the
  /// moved-from Model is left with no memo.
  Model(Model&& other) noexcept;
  Model& operator=(Model&& other) noexcept;

  /// Append a layer (builder style).
  Model& add(LayerPtr layer);

  /// Initialize all layer parameters.
  void init(util::Rng& rng);

  /// Forward pass. `training` enables dropout.
  ///
  /// The model remembers its last eval-mode forward (input and output).
  /// forward(x, false) on an input whose shape and float bytes equal the
  /// remembered input returns the remembered output without running the
  /// layers, whose caches still hold that forward, so a backward() or
  /// backward_input() that follows reads them as usual. A forward is a pure
  /// function of its input and the weights, so a hit is bitwise the value a
  /// rerun would give. The memo is dropped by init(), add(), every params()
  /// call and every forward(..., true), and is neither used nor stored
  /// while a Param from params() is alive. infer() leaves it as it is.
  /// This is what makes an attack's predict / probabilities / gradient on
  /// one input cost one forward, not three.
  Tensor forward(const Tensor& x, bool training = false);

  /// Batched inference-only forward: every layer takes its cache-free
  /// `Layer::infer` path, which is bitwise-identical to forward(x, false)
  /// per sample (asserted in tests/serve_test.cpp) but skips backward
  /// bookkeeping — the serving layer's batch path. backward() may not
  /// follow infer().
  Tensor infer(const Tensor& x);

  /// Backward pass from dL/d logits; must follow the matching forward().
  /// Returns dL/d input; parameter gradients are accumulated.
  Tensor backward(const Tensor& grad_out);

  /// Input-only backward: the same dL/d input as backward(), bit for bit,
  /// with every parameter gradient left untouched. Skips the weight-
  /// gradient GEMMs — the attacks' path (ModelClassifier::grad_weighted).
  Tensor backward_input(const Tensor& grad_out);

  /// Every parameter of every layer. Each Param is a write lease: layers
  /// drop their packed weight copies on this call and do not rebuild them
  /// while any returned Param is alive (ml/layer.hpp), and the model drops
  /// its forward memo and does not use or store one while any returned
  /// Param is alive. Optimizer steps, copy_params_from and load change
  /// weights this way (init drops the packs and the memo itself), so the
  /// next small-batch forward/infer packs the new values and the next
  /// forward runs the layers.
  std::vector<Param> params();
  void zero_grad();
  std::size_t num_parameters();

  /// Layer-by-layer architecture listing (the Fig. 5 text rendering).
  std::string summary();

  /// Save/load all parameter values (architecture must match at load).
  /// Throwing wrappers around the checked variants below.
  void save(const std::string& path);
  void load(const std::string& path);

  /// Status-returning serialization: missing files, bad magic, parameter
  /// count/size mismatches, and truncation come back as a descriptive error
  /// instead of an exception. load_checked leaves parameters untouched on
  /// any error (it stages into a scratch buffer before committing).
  util::Status save_checked(const std::string& path);
  util::Status load_checked(const std::string& path);

  /// True when every layer supports clone() — the gate parallel callers
  /// check before building per-worker replicas.
  bool clonable() const;

  /// Deep copy: same architecture, same weights, fresh forward/backward
  /// caches and no forward memo. Throws std::logic_error if any layer is
  /// not cloneable (clonable() lets callers check first and fall back to
  /// serial).
  Model clone() const;

  /// Copy parameter values (not gradients) from a same-architecture model.
  /// Used to refresh per-worker replicas between optimizer steps without
  /// re-cloning the layer stack.
  void copy_params_from(Model& other);

  /// Rebind every layer's internal Rng (dropout) to `rng`.
  void bind_rng(util::Rng* rng);

 private:
  struct ForwardMemo {
    Tensor input;
    Tensor output;
  };

  /// True while no Param from params() is alive.
  bool unleased() const { return lease_.use_count() <= 1; }

  std::vector<LayerPtr> layers_;
  /// Pinned by every Param params() hands out (created on first use).
  std::shared_ptr<const void> lease_;
  std::optional<ForwardMemo> memo_;
};

/// What an attack needs from a model: logits and input gradients over flat
/// feature vectors. Implementations adapt shape conventions internally.
class DifferentiableClassifier {
 public:
  virtual ~DifferentiableClassifier() = default;

  virtual std::size_t input_dim() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Logits for one input vector.
  virtual std::vector<double> logits(const std::vector<double>& x) = 0;

  /// Gradient of logit `k` with respect to the input.
  virtual std::vector<double> grad_logit(const std::vector<double>& x,
                                         std::size_t k) = 0;

  /// Gradient of sum_k weights[k] * logit_k(x) with respect to the input.
  /// The default composes grad_logit calls; implementations backed by
  /// reverse-mode autodiff override it with a single backward pass, which
  /// is what makes the iterative attacks cheap.
  virtual std::vector<double> grad_weighted(const std::vector<double>& x,
                                            const std::vector<double>& weights);

  /// Independent copy safe to use from another thread (the forward/backward
  /// caches inside a Model make a shared instance racy). nullptr means "not
  /// supported" and sends parallel harnesses down their serial fallback.
  virtual std::unique_ptr<DifferentiableClassifier> clone() const {
    return nullptr;
  }

  // Derived conveniences.
  std::vector<double> probabilities(const std::vector<double>& x);
  std::size_t predict(const std::vector<double>& x);
  /// Gradient of cross-entropy(label) w.r.t. the input.
  std::vector<double> grad_loss(const std::vector<double>& x,
                                std::size_t label);
};

/// Adapter: a Model whose input is (1, 1, D) and whose output is (1, K).
class ModelClassifier : public DifferentiableClassifier {
 public:
  ModelClassifier(Model& model, std::size_t input_dim, std::size_t num_classes)
      : model_(&model), dim_(input_dim), classes_(num_classes) {}

  std::size_t input_dim() const override { return dim_; }
  std::size_t num_classes() const override { return classes_; }
  std::vector<double> logits(const std::vector<double>& x) override;
  /// Logits for many inputs in one batched Model::infer pass. Row i of the
  /// result is bitwise-identical to logits(xs[i]).
  std::vector<std::vector<double>> logits_batch(
      const std::vector<std::vector<double>>& xs);
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override;
  std::vector<double> grad_weighted(
      const std::vector<double>& x,
      const std::vector<double>& weights) override;

  /// Clones the underlying Model into a copy that owns its network, so the
  /// replica's lifetime is self-contained. Returns nullptr when the model
  /// has non-cloneable layers.
  std::unique_ptr<DifferentiableClassifier> clone() const override;

  Model& model() { return *model_; }

 private:
  /// Owning constructor used by clone().
  ModelClassifier(std::unique_ptr<Model> owned, std::size_t input_dim,
                  std::size_t num_classes)
      : model_(owned.get()),
        dim_(input_dim),
        classes_(num_classes),
        owned_(std::move(owned)) {}

  Tensor to_input(const std::vector<double>& x) const;

  Model* model_;
  std::size_t dim_;
  std::size_t classes_;
  std::unique_ptr<Model> owned_;  // set only for clones
};

}  // namespace gea::ml
