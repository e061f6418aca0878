#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>

#include "ml/activations.hpp"
#include "ml/conv1d.hpp"
#include "ml/dense.hpp"
#include "ml/loss.hpp"
#include "ml/metrics.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/pooling.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"
#include "temp_path.hpp"

namespace {

using namespace gea::ml;
using gea::util::Rng;

// ---------------------------------------------------------------------------
// Tensor

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, Indexing) {
  Tensor t({2, 3});
  t.at2(1, 2) = 5.0f;
  EXPECT_EQ(t[5], 5.0f);
  Tensor u({2, 3, 4});
  u.at3(1, 2, 3) = 7.0f;
  EXPECT_EQ(u[23], 7.0f);
}

TEST(Tensor, FromValuesChecksSize) {
  EXPECT_NO_THROW(Tensor::from_values({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_values({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, ReshapePreservesData) {
  auto t = Tensor::from_values({2, 3}, {1, 2, 3, 4, 5, 6});
  t.reshape({3, 2});
  EXPECT_EQ(t.at2(2, 1), 6.0f);
  EXPECT_THROW(t.reshape({4, 2}), std::invalid_argument);
}

TEST(Tensor, ArithmeticAndNorms) {
  auto a = Tensor::from_values({3}, {3, 0, -4});
  auto b = Tensor::from_values({3}, {1, 1, 1});
  a += b;
  EXPECT_EQ(a[0], 4.0f);
  a -= b;
  a *= 2.0f;
  EXPECT_EQ(a[2], -8.0f);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).l2_norm(), 5.0);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).l1_norm(), 7.0);
  EXPECT_DOUBLE_EQ(Tensor::from_values({2}, {3, -4}).linf_norm(), 4.0);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a({2}), b({3});
  EXPECT_THROW(a += b, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Gradient checking machinery: compare backprop input gradients against
// central finite differences through a scalar loss sum(output * seed).

double layer_loss(Layer& layer, const Tensor& x, const Tensor& seed) {
  Tensor y = layer.forward(x, /*training=*/false);
  double s = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * static_cast<double>(seed[i]);
  }
  return s;
}

void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  Rng rng(99);
  Tensor y = layer.forward(x, false);
  Tensor seed(y.shape());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  (void)layer.forward(x, false);
  const Tensor analytic = layer.backward(seed);

  const float h = 1e-3f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    Tensor xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    const double numeric =
        (layer_loss(layer, xp, seed) - layer_loss(layer, xm, seed)) /
        (2.0 * static_cast<double>(h));
    EXPECT_NEAR(analytic[i], numeric, tol) << "input index " << i;
  }
}

void check_param_gradient(Layer& layer, const Tensor& x, double tol = 2e-2) {
  Rng rng(77);
  Tensor y = layer.forward(x, false);
  Tensor seed(y.shape());
  for (std::size_t i = 0; i < seed.size(); ++i) {
    seed[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto& p : layer.params()) {
    std::fill(p.grad->begin(), p.grad->end(), 0.0f);
  }
  (void)layer.forward(x, false);
  (void)layer.backward(seed);

  const float h = 1e-3f;
  for (auto& p : layer.params()) {
    for (std::size_t j = 0; j < p.value->size(); ++j) {
      const float orig = (*p.value)[j];
      (*p.value)[j] = orig + h;
      const double lp = layer_loss(layer, x, seed);
      (*p.value)[j] = orig - h;
      const double lm = layer_loss(layer, x, seed);
      (*p.value)[j] = orig;
      const double numeric = (lp - lm) / (2.0 * static_cast<double>(h));
      EXPECT_NEAR((*p.grad)[j], numeric, tol) << p.name << "[" << j << "]";
    }
  }
}

Tensor random_tensor(std::vector<std::size_t> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

// ---------------------------------------------------------------------------
// Dense

TEST(Dense, ForwardKnownValues) {
  Dense d(2, 1);
  auto params = d.params();
  (*params[0].value)[0] = 2.0f;  // w
  (*params[0].value)[1] = 3.0f;
  (*params[1].value)[0] = 1.0f;  // b
  const auto y = d.forward(Tensor::from_values({1, 2}, {4, 5}), false);
  EXPECT_FLOAT_EQ(y[0], 2 * 4 + 3 * 5 + 1);
}

TEST(Dense, ShapeValidation) {
  Dense d(3, 2);
  EXPECT_THROW(d.forward(Tensor({1, 4}), false), std::invalid_argument);
}

TEST(Dense, GradientCheckInput) {
  Dense d(4, 3);
  Rng rng(1);
  d.init(rng);
  check_input_gradient(d, random_tensor({2, 4}, 5));
}

TEST(Dense, GradientCheckParams) {
  Dense d(4, 3);
  Rng rng(2);
  d.init(rng);
  check_param_gradient(d, random_tensor({2, 4}, 6));
}

// ---------------------------------------------------------------------------
// Conv1D

TEST(Conv1D, OutputLengths) {
  Conv1D same(1, 4, 3, Padding::kSame);
  Conv1D valid(1, 4, 3, Padding::kValid);
  EXPECT_EQ(same.output_length(23), 23u);
  EXPECT_EQ(valid.output_length(23), 21u);
  EXPECT_THROW(valid.output_length(2), std::invalid_argument);
}

TEST(Conv1D, RejectsEvenKernel) {
  EXPECT_THROW(Conv1D(1, 1, 2, Padding::kSame), std::invalid_argument);
}

TEST(Conv1D, ForwardKnownValuesValid) {
  // Single in/out channel, kernel [1,2,3], input [1,2,3,4].
  Conv1D c(1, 1, 3, Padding::kValid);
  auto params = c.params();
  (*params[0].value) = {1, 2, 3};
  (*params[1].value) = {0};
  const auto y = c.forward(Tensor::from_values({1, 1, 4}, {1, 2, 3, 4}), false);
  ASSERT_EQ(y.size(), 2u);
  EXPECT_FLOAT_EQ(y[0], 1 * 1 + 2 * 2 + 3 * 3);  // 14
  EXPECT_FLOAT_EQ(y[1], 1 * 2 + 2 * 3 + 3 * 4);  // 20
}

TEST(Conv1D, ForwardKnownValuesSamePadding) {
  Conv1D c(1, 1, 3, Padding::kSame);
  auto params = c.params();
  (*params[0].value) = {1, 2, 3};
  (*params[1].value) = {1};
  const auto y = c.forward(Tensor::from_values({1, 1, 3}, {1, 1, 1}), false);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 0 * 1 + 1 * 2 + 1 * 3 + 1);  // left zero pad
  EXPECT_FLOAT_EQ(y[1], 1 + 2 + 3 + 1);
  EXPECT_FLOAT_EQ(y[2], 1 * 1 + 1 * 2 + 0 * 3 + 1);  // right zero pad
}

TEST(Conv1D, GradientCheckInputSame) {
  Conv1D c(2, 3, 3, Padding::kSame);
  Rng rng(3);
  c.init(rng);
  check_input_gradient(c, random_tensor({2, 2, 6}, 7));
}

TEST(Conv1D, GradientCheckInputValid) {
  Conv1D c(2, 3, 3, Padding::kValid);
  Rng rng(4);
  c.init(rng);
  check_input_gradient(c, random_tensor({1, 2, 7}, 8));
}

TEST(Conv1D, GradientCheckParams) {
  Conv1D c(2, 2, 3, Padding::kSame);
  Rng rng(5);
  c.init(rng);
  check_param_gradient(c, random_tensor({2, 2, 5}, 9));
}

// ---------------------------------------------------------------------------
// Pooling / activations

TEST(MaxPool1D, ForwardPicksMaxima) {
  MaxPool1D p(2);
  const auto y =
      p.forward(Tensor::from_values({1, 1, 6}, {1, 5, 2, 2, 9, 3}), false);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 5);
  EXPECT_FLOAT_EQ(y[1], 2);
  EXPECT_FLOAT_EQ(y[2], 9);
}

TEST(MaxPool1D, OddLengthDropsTail) {
  MaxPool1D p(2);
  const auto y = p.forward(Tensor::from_values({1, 1, 5}, {1, 2, 3, 4, 9}), false);
  EXPECT_EQ(y.dim(2), 2u);  // the 9 is dropped (floor semantics)
}

TEST(MaxPool1D, BackwardRoutesToArgmax) {
  MaxPool1D p(2);
  (void)p.forward(Tensor::from_values({1, 1, 4}, {1, 5, 7, 2}), false);
  const auto g = p.backward(Tensor::from_values({1, 1, 2}, {10, 20}));
  EXPECT_FLOAT_EQ(g[0], 0);
  EXPECT_FLOAT_EQ(g[1], 10);
  EXPECT_FLOAT_EQ(g[2], 20);
  EXPECT_FLOAT_EQ(g[3], 0);
}

TEST(MaxPool1D, GradientCheck) {
  MaxPool1D p(2);
  // Use well-separated values so finite differences do not cross argmax ties.
  check_input_gradient(p, Tensor::from_values({1, 2, 4},
                                              {0.1f, 0.9f, 0.3f, 0.7f,
                                               0.8f, 0.2f, 0.6f, 0.4f}));
}

TEST(ReLU, ForwardBackward) {
  ReLU r;
  const auto y = r.forward(Tensor::from_values({1, 4}, {-1, 2, 0, 3}), false);
  EXPECT_FLOAT_EQ(y[0], 0);
  EXPECT_FLOAT_EQ(y[1], 2);
  const auto g = r.backward(Tensor::from_values({1, 4}, {5, 5, 5, 5}));
  EXPECT_FLOAT_EQ(g[0], 0);
  EXPECT_FLOAT_EQ(g[1], 5);
  EXPECT_FLOAT_EQ(g[2], 0);  // gradient is 0 at exactly 0
}

TEST(Dropout, IdentityAtInference) {
  Rng rng(1);
  Dropout d(0.5, rng);
  const auto x = random_tensor({4, 8}, 11);
  const auto y = d.forward(x, /*training=*/false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingZeroesAndRescales) {
  Rng rng(2);
  Dropout d(0.5, rng);
  Tensor x({1, 10000});
  x.fill(1.0f);
  const auto y = d.forward(x, /*training=*/true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] == 0.0f) ++zeros;
    else EXPECT_FLOAT_EQ(y[i], 2.0f);  // 1/(1-0.5)
    sum += y[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.size(), 0.5, 0.03);
  EXPECT_NEAR(sum / y.size(), 1.0, 0.06);  // expectation preserved
}

TEST(Dropout, RejectsBadProbability) {
  Rng rng(1);
  EXPECT_THROW(Dropout(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(Dropout(1.0, rng), std::invalid_argument);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  const auto y = f.forward(random_tensor({2, 3, 4}, 13), false);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 12}));
  const auto g = f.backward(Tensor({2, 12}));
  EXPECT_EQ(g.shape(), (std::vector<std::size_t>{2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Loss

TEST(Loss, SoftmaxRowsSumToOne) {
  const auto p = softmax(Tensor::from_values({2, 3}, {1, 2, 3, -1, 0, 1}));
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += p.at2(i, j);
    EXPECT_NEAR(s, 1.0, 1e-6);
  }
}

TEST(Loss, SoftmaxNumericallyStable) {
  const auto p = softmax(Tensor::from_values({1, 2}, {1000, 1001}));
  EXPECT_FALSE(std::isnan(p[0]));
  EXPECT_NEAR(p[1], 1.0 / (1.0 + std::exp(-1.0)), 1e-5);
}

TEST(Loss, CrossEntropyUniformLogits) {
  const Tensor z({1, 4});  // all zeros -> uniform
  EXPECT_NEAR(cross_entropy(z, {0}), std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyGradMatchesFiniteDifference) {
  auto z = random_tensor({2, 3}, 15);
  const std::vector<std::uint8_t> labels = {1, 2};
  const auto g = cross_entropy_grad(z, labels);
  const float h = 1e-3f;
  for (std::size_t i = 0; i < z.size(); ++i) {
    Tensor zp = z, zm = z;
    zp[i] += h;
    zm[i] -= h;
    const double numeric =
        (cross_entropy(zp, labels) - cross_entropy(zm, labels)) / (2.0 * h);
    EXPECT_NEAR(g[i], numeric, 1e-3);
  }
}

TEST(Loss, ArgmaxRows) {
  const auto a = argmax_rows(Tensor::from_values({2, 3}, {1, 9, 2, 7, 1, 3}));
  EXPECT_EQ(a, (std::vector<std::uint8_t>{1, 0}));
}

TEST(Loss, LabelCountMismatchThrows) {
  EXPECT_THROW(cross_entropy(Tensor({2, 2}), {0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Optimizers: converge on a quadratic via a 1-param "layer".

TEST(Optimizer, SgdConvergesOnQuadratic) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Sgd opt(0.1);
  for (int i = 0; i < 200; ++i) {
    g[0] = 2.0f * w[0];  // d/dw w^2
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-3);
}

TEST(Optimizer, SgdMomentumConverges) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Sgd opt(0.05, 0.9);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * w[0];
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-2);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  std::vector<float> w = {10.0f};
  std::vector<float> g = {0.0f};
  const std::vector<Param> params = {{&w, &g, "w"}};
  Adam opt(0.3);
  for (int i = 0; i < 300; ++i) {
    g[0] = 2.0f * w[0];
    opt.step(params);
  }
  EXPECT_NEAR(w[0], 0.0f, 1e-2);
}

// ---------------------------------------------------------------------------
// Model + training on a separable toy problem

LabeledData make_toy_data(std::size_t n, std::size_t dim, Rng& rng) {
  // Class 1 iff mean(x) > 0.5.
  LabeledData data;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(dim);
    const bool positive = rng.chance(0.5);
    for (auto& v : row) {
      v = positive ? rng.uniform(0.55, 1.0) : rng.uniform(0.0, 0.45);
    }
    data.rows.push_back(std::move(row));
    data.labels.push_back(positive ? 1 : 0);
  }
  return data;
}

TEST(Model, MlpLearnsSeparableTask) {
  Rng rng(21);
  auto data = make_toy_data(200, 8, rng);
  Model m = make_mlp_baseline(8, 2);
  Rng wrng(1);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 80;
  cfg.batch_size = 32;
  train(m, data, cfg);
  const auto cm = evaluate(m, data);
  EXPECT_GT(cm.accuracy(), 0.97);
}

TEST(Model, PaperCnnShapesMatchFig5) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(2);
  m.init(wrng);
  const auto out = m.forward(Tensor({4, 1, 23}), false);
  EXPECT_EQ(out.shape(), (std::vector<std::size_t>{4, 2}));
  // Parameter count documents the architecture:
  // conv1: 46*3+46; conv2: 46*46*3+46; conv3: 46*92*3+92; conv4: 92*92*3+92;
  // dense1: 368*512+512; dense2: 512*2+2.
  const std::size_t expected = (46 * 3 + 46) + (46 * 46 * 3 + 46) +
                               (46 * 92 * 3 + 92) + (92 * 92 * 3 + 92) +
                               (368 * 512 + 512) + (512 * 2 + 2);
  EXPECT_EQ(m.num_parameters(), expected);
  const auto s = m.summary();
  EXPECT_NE(s.find("Conv1D(1->46"), std::string::npos);
  EXPECT_NE(s.find("Dense(368->512)"), std::string::npos);
}

TEST(Model, CnnLearnsToyTask) {
  Rng rng(31);
  auto data = make_toy_data(150, 23, rng);
  Rng drng(3);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(4);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 25;
  cfg.batch_size = 32;
  cfg.early_stop_loss = 0.05;
  train(m, data, cfg);
  EXPECT_GT(evaluate(m, data).accuracy(), 0.95);
}

TEST(Model, SaveLoadRoundTrip) {
  Rng drng(1);
  Model a = make_mlp_baseline(6, 2);
  Rng wrng(5);
  a.init(wrng);
  const auto path = gea::test::unique_temp_path("model.bin");
  a.save(path);

  Model b = make_mlp_baseline(6, 2);
  b.load(path);
  const auto x = random_tensor({3, 1, 6}, 17);
  // Flatten first layer accepts (N,1,6).
  const auto ya = a.forward(x, false);
  const auto yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_EQ(ya[i], yb[i]);
  std::filesystem::remove(path);
}

TEST(Model, LoadRejectsWrongArchitecture) {
  Model a = make_mlp_baseline(6, 2);
  Rng wrng(5);
  a.init(wrng);
  const auto path = gea::test::unique_temp_path("model.bin");
  a.save(path);
  Model b = make_mlp_baseline(7, 2);
  EXPECT_THROW(b.load(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Model, LoadRejectsMissingFile) {
  Model m = make_mlp_baseline(4, 2);
  EXPECT_THROW(m.load("/no_such_file_gea.bin"), std::runtime_error);
}

// Whole-model input gradient check (inference mode, so dropout is inert).
TEST(Model, EndToEndInputGradientMatchesFiniteDifference) {
  Rng drng(1);
  Model m = make_paper_cnn(23, 2, drng);
  Rng wrng(6);
  m.init(wrng);
  ModelClassifier clf(m, 23, 2);

  Rng rng(7);
  std::vector<double> x(23);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  for (std::size_t k = 0; k < 2; ++k) {
    const auto g = clf.grad_logit(x, k);
    const double h = 1e-3;
    for (std::size_t i = 0; i < x.size(); i += 5) {  // subsample for speed
      auto xp = x, xm = x;
      xp[i] += h;
      xm[i] -= h;
      const double numeric = (clf.logits(xp)[k] - clf.logits(xm)[k]) / (2 * h);
      EXPECT_NEAR(g[i], numeric, 5e-2) << "logit " << k << " input " << i;
    }
  }
}

TEST(ModelClassifier, PredictAndProbabilities) {
  Model m = make_mlp_baseline(4, 2);
  Rng wrng(8);
  m.init(wrng);
  ModelClassifier clf(m, 4, 2);
  const std::vector<double> x = {0.1, 0.2, 0.3, 0.4};
  const auto p = clf.probabilities(x);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-9);
  EXPECT_EQ(clf.predict(x), p[0] > p[1] ? 0u : 1u);
}

TEST(ModelClassifier, GradLossPointsDownhill) {
  Rng rng(41);
  auto data = make_toy_data(100, 6, rng);
  Model m = make_mlp_baseline(6, 2);
  Rng wrng(9);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 30;
  train(m, data, cfg);
  ModelClassifier clf(m, 6, 2);

  const auto& x = data.rows[0];
  const auto label = data.labels[0];
  const auto g = clf.grad_loss(x, label);
  // Stepping along +grad must increase the loss (= decrease the true-class
  // probability).
  auto x2 = x;
  for (std::size_t i = 0; i < x2.size(); ++i) x2[i] += 0.05 * g[i];
  EXPECT_LE(clf.probabilities(x2)[label], clf.probabilities(x)[label] + 1e-9);
}

// ---------------------------------------------------------------------------
// Forward memo invalidation

/// Logits then the logit-1 input gradient at x: the memo serves the first
/// (a stale memo shows in the logits) and the layer caches the second (a
/// memo hit over caches from another forward shows in the gradient).
std::vector<double> memo_probe(Model& m, const std::vector<double>& x) {
  ModelClassifier clf(m, 23, 2);
  auto out = clf.logits(x);
  const auto g = clf.grad_logit(x, 1);
  out.insert(out.end(), g.begin(), g.end());
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ForwardMemo, DroppedWheneverWeightsOrCachesChange) {
  Rng drng(3), wrng(4), rng(5);
  Model m = make_paper_cnn(23, 2, drng);
  m.init(wrng);
  ModelClassifier clf(m, 23, 2);
  std::vector<double> x(23);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);

  // Prime the memo with logits(x), change the model, then the model must
  // answer bit for bit like a fresh clone, and differently from before
  // when the change moved the weights.
  const auto expect_fresh = [&](const char* what, bool moves_weights,
                                const std::function<void()>& change) {
    const auto before = clf.logits(x);
    change();
    const auto now = memo_probe(m, x);
    Model fresh = m.clone();
    EXPECT_TRUE(same_bits(now, memo_probe(fresh, x))) << what;
    if (moves_weights) {
      EXPECT_FALSE(same_bits({now[0], now[1]}, before))
          << what << " changed nothing";
    }
  };

  // An optimizer step: the gradients are accumulated first, so only the
  // step's params() call sits between the two forwards on x.
  m.zero_grad();
  {
    const Tensor logits = m.forward(random_tensor({4, 1, 23}, 31), true);
    Tensor seed(logits.shape());
    seed.fill(1.0f);
    (void)m.backward(seed);
  }
  Adam opt(0.01);
  expect_fresh("Adam step", true, [&] { opt.step(m.params()); });

  Rng wrng2(6);
  expect_fresh("init", true, [&] { m.init(wrng2); });

  Rng drng_other(7), wrng_other(8);
  Model other = make_paper_cnn(23, 2, drng_other);
  other.init(wrng_other);
  expect_fresh("copy_params_from", true, [&] { m.copy_params_from(other); });

  Rng wrng_saved(9);
  other.init(wrng_saved);
  const auto path = gea::test::unique_temp_path("memo.bin");
  ASSERT_TRUE(other.save_checked(path).is_ok());
  expect_fresh("load_checked", true,
               [&] { ASSERT_TRUE(m.load_checked(path).is_ok()); });
  std::filesystem::remove(path);

  // Same weights, but the layer caches now hold another input's
  // training-mode forward (dropout masks included).
  expect_fresh("forward(..., true)", false, [&] {
    (void)m.forward(random_tensor({1, 1, 23}, 37), /*training=*/true);
  });

  // A forward while a Param is alive is not remembered: a write through
  // that Param after it must still be seen once the Param is gone.
  {
    const auto before = clf.logits(x);
    auto params = m.params();
    (void)clf.logits(x);
    (*params[0].value)[0] += 0.25f;
    params.clear();
    const auto now = memo_probe(m, x);
    Model fresh = m.clone();
    EXPECT_TRUE(same_bits(now, memo_probe(fresh, x))) << "live Param write";
    EXPECT_FALSE(same_bits({now[0], now[1]}, before));
  }
}

// ---------------------------------------------------------------------------
// Metrics

TEST(Metrics, ConfusionCounts) {
  const std::vector<std::uint8_t> pred = {1, 1, 0, 0, 1};
  const std::vector<std::uint8_t> actual = {1, 0, 0, 1, 1};
  const auto m = confusion(pred, actual);
  EXPECT_EQ(m.tp, 2u);
  EXPECT_EQ(m.fp, 1u);
  EXPECT_EQ(m.fn, 1u);
  EXPECT_EQ(m.tn, 1u);
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.6);
  EXPECT_DOUBLE_EQ(m.fnr(), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.fpr(), 0.5);
}

TEST(Metrics, DegenerateDenominators) {
  ConfusionMatrix m;  // all zero
  EXPECT_EQ(m.accuracy(), 0.0);
  EXPECT_EQ(m.fnr(), 0.0);
  EXPECT_EQ(m.fpr(), 0.0);
  EXPECT_EQ(m.f1(), 0.0);
}

TEST(Metrics, PrecisionRecallF1) {
  ConfusionMatrix m;
  m.tp = 8;
  m.fp = 2;
  m.fn = 2;
  m.tn = 88;
  EXPECT_DOUBLE_EQ(m.precision(), 0.8);
  EXPECT_DOUBLE_EQ(m.recall(), 0.8);
  EXPECT_DOUBLE_EQ(m.f1(), 0.8);
}

TEST(Metrics, SizeMismatchThrows) {
  EXPECT_THROW(confusion({1}, {1, 0}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Trainer edge cases

TEST(Trainer, EmptyDatasetThrows) {
  Model m = make_mlp_baseline(4, 2);
  EXPECT_THROW(train(m, LabeledData{}, TrainConfig{}), std::invalid_argument);
}

TEST(Trainer, EarlyStopShortensRun) {
  Rng rng(51);
  auto data = make_toy_data(100, 6, rng);
  Model m = make_mlp_baseline(6, 2);
  Rng wrng(10);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 500;
  cfg.early_stop_loss = 0.2;
  const auto stats = train(m, data, cfg);
  EXPECT_LT(stats.epoch_losses.size(), 500u);
  EXPECT_LT(stats.final_loss, 0.2);
}

TEST(Trainer, LossDecreasesOnAverage) {
  Rng rng(61);
  auto data = make_toy_data(150, 8, rng);
  Model m = make_mlp_baseline(8, 2);
  Rng wrng(11);
  m.init(wrng);
  TrainConfig cfg;
  cfg.epochs = 30;
  const auto stats = train(m, data, cfg);
  EXPECT_LT(stats.epoch_losses.back(), stats.epoch_losses.front());
}

}  // namespace
