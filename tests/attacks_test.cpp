#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include "attacks/harness.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea;
using namespace gea::attacks;
using gea::util::Rng;

constexpr std::size_t kDim = 23;

/// Shared fixture: a CNN trained on a separable 23-dim toy task, mimicking
/// the scaled CFG-feature space. Built once for the whole suite.
class TrainedModel {
 public:
  TrainedModel() : dropout_rng_(1), model_(ml::make_paper_cnn(kDim, 2, dropout_rng_)) {
    Rng rng(11);
    for (int i = 0; i < 300; ++i) {
      std::vector<double> row(kDim);
      const bool positive = rng.chance(0.5);
      for (auto& v : row) {
        v = positive ? rng.uniform(0.52, 1.0) : rng.uniform(0.0, 0.48);
      }
      data_.rows.push_back(std::move(row));
      data_.labels.push_back(positive ? 1 : 0);
    }
    Rng wrng(2);
    model_.init(wrng);
    ml::TrainConfig cfg;
    cfg.epochs = 40;
    cfg.batch_size = 50;
    cfg.early_stop_loss = 0.03;
    ml::train(model_, data_, cfg);
    clf_ = std::make_unique<ml::ModelClassifier>(model_, kDim, 2);
  }

  ml::ModelClassifier& clf() { return *clf_; }
  const ml::LabeledData& data() const { return data_; }

  /// First `n` correctly classified samples (rows + labels).
  std::pair<std::vector<std::vector<double>>, std::vector<std::uint8_t>>
  correct_samples(std::size_t n) {
    std::vector<std::vector<double>> rows;
    std::vector<std::uint8_t> labels;
    for (std::size_t i = 0; i < data_.rows.size() && rows.size() < n; ++i) {
      if (clf_->predict(data_.rows[i]) == data_.labels[i]) {
        rows.push_back(data_.rows[i]);
        labels.push_back(data_.labels[i]);
      }
    }
    return {rows, labels};
  }

 private:
  Rng dropout_rng_;
  ml::Model model_;
  ml::LabeledData data_;
  std::unique_ptr<ml::ModelClassifier> clf_;
};

TrainedModel& shared_model() {
  static TrainedModel* m = new TrainedModel();
  return *m;
}

TEST(Setup, ModelIsAccurate) {
  auto& tm = shared_model();
  const auto cm = ml::evaluate(tm.clf().model(), tm.data());
  EXPECT_GT(cm.accuracy(), 0.95);
}

// ---------------------------------------------------------------------------
// Helpers

double linf(const std::vector<double>& a, const std::vector<double>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

std::size_t l0(const std::vector<double>& a, const std::vector<double>& b,
               double tol = 1e-9) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) ++n;
  }
  return n;
}

bool in_unit_box(const std::vector<double>& x) {
  for (double v : x) {
    if (v < -1e-12 || v > 1.0 + 1e-12) return false;
  }
  return true;
}

double flip_rate(Attack& attack, std::size_t n = 20) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(n);
  std::size_t flips = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::size_t target = labels[i] == 0 ? 1 : 0;
    const auto adv = attack.craft(tm.clf(), rows[i], target);
    if (tm.clf().predict(adv) != labels[i]) ++flips;
  }
  return static_cast<double>(flips) / static_cast<double>(rows.size());
}

// ---------------------------------------------------------------------------
// Per-attack behaviour

TEST(Fgsm, PerturbationBoundedByEpsilon) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(10);
  Fgsm attack(FgsmConfig{.epsilon = 0.2});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_LE(linf(adv, rows[i]), 0.2 + 1e-9);
    EXPECT_TRUE(in_unit_box(adv));
  }
}

TEST(Fgsm, LargerEpsilonFlipsMore) {
  Fgsm weak(FgsmConfig{.epsilon = 0.01});
  Fgsm strong(FgsmConfig{.epsilon = 0.5});
  EXPECT_LE(flip_rate(weak), flip_rate(strong) + 1e-9);
}

TEST(Pgd, RespectsEpsilonBall) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(10);
  Pgd attack(PgdConfig{.epsilon = 0.15, .iterations = 20});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_LE(linf(adv, rows[i]), 0.15 + 1e-9);
    EXPECT_TRUE(in_unit_box(adv));
  }
}

TEST(Pgd, HighMisclassificationAtPaperEpsilon) {
  Pgd attack(PgdConfig{.epsilon = 0.3, .iterations = 40});
  EXPECT_GE(flip_rate(attack), 0.9);
}

TEST(Mim, RespectsEpsilonBall) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(10);
  Mim attack(MimConfig{.epsilon = 0.25, .iterations = 10});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_LE(linf(adv, rows[i]), 0.25 + 1e-9);
    EXPECT_TRUE(in_unit_box(adv));
  }
}

TEST(Mim, HighMisclassificationAtPaperConfig) {
  Mim attack;
  EXPECT_GE(flip_rate(attack), 0.9);
}

TEST(DeepFool, FindsSmallPerturbations) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(15);
  DeepFool attack;
  std::size_t flips = 0;
  double total_l2 = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_TRUE(in_unit_box(adv));
    if (tm.clf().predict(adv) != labels[i]) {
      ++flips;
      double l2 = 0.0;
      for (std::size_t j = 0; j < adv.size(); ++j) {
        l2 += (adv[j] - rows[i][j]) * (adv[j] - rows[i][j]);
      }
      total_l2 += std::sqrt(l2);
    }
  }
  EXPECT_GE(flips, rows.size() / 2);
  if (flips > 0) {
    // DeepFool's point is minimality: distortion well under the 0.3-ball
    // diameter the Linf attacks use.
    EXPECT_LT(total_l2 / static_cast<double>(flips), 1.0);
  }
}

TEST(Jsma, RespectsGammaFeatureBudget) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(10);
  Jsma attack(JsmaConfig{.theta = 0.3, .gamma = 0.6});
  const auto max_changed = static_cast<std::size_t>(0.6 * kDim);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_LE(l0(adv, rows[i]), max_changed + 1);
    EXPECT_TRUE(in_unit_box(adv));
  }
}

TEST(Jsma, ChangesFewFeatures) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(15);
  Jsma attack;
  double total_changed = 0.0;
  std::size_t flips = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    if (tm.clf().predict(adv) != labels[i]) {
      ++flips;
      total_changed += static_cast<double>(l0(adv, rows[i]));
    }
  }
  ASSERT_GT(flips, 0u);
  // The paper's signature JSMA result: ~4 features changed out of 23.
  EXPECT_LT(total_changed / static_cast<double>(flips), 12.0);
}

// A row the training-fit scaler maps outside [0,1]^23 (values past the
// training range): the untouched features must not leak out of the box.
TEST(Jsma, ClipsOutOfBoxRowIntoUnitBox) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(4);
  Jsma attack;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    auto row = rows[i];
    row[0] = 1.7;
    row[5] = -0.4;
    row[kDim - 1] = 3.0;
    ASSERT_FALSE(in_unit_box(row));
    const auto adv = attack.craft(tm.clf(), row, 1 - labels[i]);
    EXPECT_TRUE(in_unit_box(adv)) << "row " << i;
  }
}

TEST(CarliniWagner, FlipsWithSmallL2) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(8);
  CarliniWagnerL2 attack(CwConfig{.iterations = 100, .search_steps = 2});
  std::size_t flips = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_TRUE(in_unit_box(adv));
    if (tm.clf().predict(adv) != labels[i]) ++flips;
  }
  EXPECT_GE(flips, rows.size() - 1);  // near-100% MR, as in Table III
}

TEST(CarliniWagner, ReturnsOriginalOnHopelessTarget) {
  // A constant classifier cannot be flipped; craft must not corrupt x.
  class Constant : public ml::DifferentiableClassifier {
   public:
    std::size_t input_dim() const override { return 3; }
    std::size_t num_classes() const override { return 2; }
    std::vector<double> logits(const std::vector<double>&) override {
      return {10.0, -10.0};
    }
    std::vector<double> grad_logit(const std::vector<double>&,
                                   std::size_t) override {
      return {0.0, 0.0, 0.0};
    }
  };
  Constant clf;
  CarliniWagnerL2 attack(CwConfig{.iterations = 10, .search_steps = 1});
  const std::vector<double> x = {0.2, 0.5, 0.8};
  const auto adv = attack.craft(clf, x, 1);
  EXPECT_EQ(adv, x);
}

TEST(ElasticNet, FlipsWithSparsePerturbation) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(8);
  ElasticNet attack(ElasticNetConfig{.iterations = 150});
  std::size_t flips = 0;
  double total_l0 = 0.0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_TRUE(in_unit_box(adv));
    if (tm.clf().predict(adv) != labels[i]) {
      ++flips;
      total_l0 += static_cast<double>(l0(adv, rows[i], 1e-4));
    }
  }
  EXPECT_GE(flips, rows.size() - 1);
  // The L1 regularizer keeps the change sparse relative to the Linf family
  // (which touches essentially every feature).
  EXPECT_LT(total_l0 / static_cast<double>(flips), 20.0);
}

TEST(Vam, BoundedPerturbation) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(8);
  Vam attack(VamConfig{.epsilon = 0.3, .power_iterations = 10});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto adv = attack.craft(tm.clf(), rows[i], 1 - labels[i]);
    EXPECT_TRUE(in_unit_box(adv));
    double l2 = 0.0;
    for (std::size_t j = 0; j < adv.size(); ++j) {
      l2 += (adv[j] - rows[i][j]) * (adv[j] - rows[i][j]);
    }
    // ||eps * unit-vector||_2 <= eps (clamping only shrinks it).
    EXPECT_LE(std::sqrt(l2), 0.3 + 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Harness

TEST(Harness, PaperAttackSetHasEightMethods) {
  const auto attacks = make_paper_attacks();
  ASSERT_EQ(attacks.size(), 8u);
  std::set<std::string> names;
  for (const auto& a : attacks) names.insert(a->name());
  EXPECT_TRUE(names.count("C&W"));
  EXPECT_TRUE(names.count("DeepFool"));
  EXPECT_TRUE(names.count("ElasticNet"));
  EXPECT_TRUE(names.count("FGSM"));
  EXPECT_TRUE(names.count("JSMA"));
  EXPECT_TRUE(names.count("MIM"));
  EXPECT_TRUE(names.count("PGD"));
  EXPECT_TRUE(names.count("VAM"));
}

TEST(Harness, ComputesRates) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(12);
  Pgd attack(PgdConfig{.epsilon = 0.3, .iterations = 20});
  HarnessOptions opts;
  const auto row = run_attack(attack, tm.clf(), rows, labels, nullptr, opts);
  EXPECT_EQ(row.attack, "PGD");
  EXPECT_EQ(row.samples, rows.size());
  EXPECT_GE(row.mr(), 0.8);
  EXPECT_GT(row.avg_features_changed, 0.0);
  EXPECT_GE(row.craft_ms_per_sample, 0.0);
  EXPECT_GT(row.mean_l2, 0.0);
}

TEST(Harness, MaxSamplesCapRespected) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(12);
  Fgsm attack;
  HarnessOptions opts;
  opts.max_samples = 5;
  const auto row = run_attack(attack, tm.clf(), rows, labels, nullptr, opts);
  EXPECT_EQ(row.samples, 5u);
}

TEST(Harness, SkipsAlreadyMisclassified) {
  auto& tm = shared_model();
  // Feed deliberately mislabeled data: every sample "already misclassified".
  const auto [rows, labels] = tm.correct_samples(5);
  std::vector<std::uint8_t> wrong;
  for (auto l : labels) wrong.push_back(1 - l);
  Fgsm attack;
  const auto row = run_attack(attack, tm.clf(), rows, wrong, nullptr, {});
  EXPECT_EQ(row.samples, 0u);
  EXPECT_EQ(row.mr(), 0.0);
}

TEST(Harness, MismatchedLabelsThrow) {
  auto& tm = shared_model();
  Fgsm attack;
  EXPECT_THROW(
      run_attack(attack, tm.clf(), {{0.1, 0.2}}, {0, 1}, nullptr, {}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Model forward memo: an attack's predict, probabilities and gradient on one
// input share one forward.

/// Delegates to a ModelClassifier and counts how often the model-input
/// tensor (the float image of x) differs from the previous call's. With
/// `memo_free`, it calls model.params() (which drops the forward memo)
/// before every delegated call, so every forward runs the layers.
class Delegating : public ml::DifferentiableClassifier {
 public:
  Delegating(ml::ModelClassifier& inner, bool memo_free)
      : inner_(&inner), memo_free_(memo_free) {}
  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }
  std::vector<double> logits(const std::vector<double>& x) override {
    see(x);
    return inner_->logits(x);
  }
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override {
    see(x);
    return inner_->grad_logit(x, k);
  }
  std::vector<double> grad_weighted(
      const std::vector<double>& x,
      const std::vector<double>& weights) override {
    see(x);
    return inner_->grad_weighted(x, weights);
  }

  std::size_t calls = 0;
  std::size_t changes = 0;

 private:
  void see(const std::vector<double>& x) {
    if (memo_free_) (void)inner_->model().params();
    std::vector<float> f(x.begin(), x.end());
    ++calls;
    if (calls == 1 || f.size() != last_.size() ||
        std::memcmp(f.data(), last_.data(), f.size() * sizeof(float)) != 0) {
      ++changes;
    }
    last_ = std::move(f);
  }

  ml::ModelClassifier* inner_;
  bool memo_free_;
  std::vector<float> last_;
};

/// Identity layer that counts the forwards that reach it.
class CountingIdentity : public ml::Layer {
 public:
  explicit CountingIdentity(std::size_t* forwards) : forwards_(forwards) {}
  ml::Tensor forward(const ml::Tensor& x, bool /*training*/) override {
    ++*forwards_;
    return x;
  }
  ml::Tensor infer(const ml::Tensor& x) override { return x; }
  ml::Tensor backward_input(const ml::Tensor& grad_out) override {
    return grad_out;
  }
  std::string describe() const override { return "CountingIdentity"; }

 private:
  std::size_t* forwards_;
};

/// The attacks the memo serves, at the paper's Table III settings.
std::vector<AttackPtr> memo_attacks() {
  std::vector<AttackPtr> attacks;
  attacks.push_back(std::make_unique<Fgsm>(FgsmConfig{.epsilon = 0.3}));
  attacks.push_back(std::make_unique<Pgd>(
      PgdConfig{.epsilon = 0.3, .iterations = 40}));
  attacks.push_back(std::make_unique<DeepFool>(
      DeepFoolConfig{.overshoot = 0.02, .iterations = 100}));
  attacks.push_back(
      std::make_unique<Jsma>(JsmaConfig{.theta = 0.3, .gamma = 0.6}));
  attacks.push_back(std::make_unique<Mim>(
      MimConfig{.epsilon = 0.3, .iterations = 10}));
  attacks.push_back(std::make_unique<Vam>(
      VamConfig{.epsilon = 0.3, .power_iterations = 40}));
  return attacks;
}

TEST(ForwardMemo, CraftedExamplesBitwiseEqualMemoFreeCrafting) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(20);
  ASSERT_GE(rows.size(), 20u);
  Delegating memo_free(tm.clf(), /*memo_free=*/true);
  for (const auto& attack : memo_attacks()) {
    SCOPED_TRACE(attack->name());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t target = 1 - labels[i];
      attack->reseed(i);
      const auto with_memo = attack->craft(tm.clf(), rows[i], target);
      attack->reseed(i);
      const auto without = attack->craft(memo_free, rows[i], target);
      ASSERT_EQ(with_memo.size(), without.size());
      EXPECT_EQ(std::memcmp(with_memo.data(), without.data(),
                            with_memo.size() * sizeof(double)),
                0)
          << "row " << i;
    }
  }
}

TEST(ForwardMemo, OneForwardPerDistinctInput) {
  auto& tm = shared_model();
  const auto [rows, labels] = tm.correct_samples(5);
  std::size_t forwards = 0;
  ml::Model model = tm.clf().model().clone();
  model.add(std::make_unique<CountingIdentity>(&forwards));
  ml::ModelClassifier clf(model, kDim, 2);

  // FGSM: predict, probabilities and the gradient all read one forward.
  Fgsm fgsm(FgsmConfig{.epsilon = 0.3});
  (void)model.params();  // no memo left from an earlier forward
  forwards = 0;
  (void)fgsm.craft(clf, rows[0], 1 - labels[0]);
  EXPECT_EQ(forwards, 1u);

  for (const auto& attack : memo_attacks()) {
    SCOPED_TRACE(attack->name());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      Delegating counter(clf, /*memo_free=*/false);
      (void)model.params();
      forwards = 0;
      attack->reseed(i);
      (void)attack->craft(counter, rows[i], 1 - labels[i]);
      EXPECT_EQ(forwards, counter.changes) << "row " << i;
      EXPECT_LT(forwards, counter.calls) << "row " << i;
    }
  }

  // The memo moves with the layers: the destination still hits, and the
  // moved-from model, an empty stack, has none (its forward is identity).
  (void)clf.logits(rows[0]);
  forwards = 0;
  ml::Model moved = std::move(model);
  ml::ModelClassifier moved_clf(moved, kDim, 2);
  (void)moved_clf.logits(rows[0]);
  EXPECT_EQ(forwards, 0u);
  ml::Tensor x({1, 1, kDim});
  for (std::size_t i = 0; i < kDim; ++i) x[i] = static_cast<float>(rows[0][i]);
  EXPECT_EQ(model.forward(x, false).shape(), x.shape());
}

}  // namespace
