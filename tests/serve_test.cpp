// Tests for the src/serve subsystem: batched-vs-serial bitwise equivalence,
// admission control, deadline handling, hot-swap atomicity, and determinism
// across worker counts.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <thread>
#include <vector>

#include "bingen/families.hpp"
#include "features/extended.hpp"
#include "features/scaler.hpp"
#include "ml/model.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "serve/checkpoint.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "temp_path.hpp"

namespace {

using namespace gea;
using gea::util::ErrorCode;
using gea::util::Rng;

constexpr std::size_t kDim = features::kNumFeatures;

std::vector<double> synthetic_row(Rng& rng) {
  std::vector<double> row(kDim);
  for (auto& v : row) v = rng.uniform(0.0, 50.0);
  return row;
}

features::FeatureVector to_fv(const std::vector<double>& row) {
  features::FeatureVector fv{};
  std::copy(row.begin(), row.end(), fv.begin());
  return fv;
}

/// Random-init paper CNN + scaler fit on synthetic rows, written to a fresh
/// temp checkpoint directory. Weight seed varies so versions differ.
std::string write_checkpoint(const std::string& tag, std::uint64_t seed) {
  Rng weight_rng(seed);
  Rng dropout_rng(0);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);

  Rng data_rng(7);
  std::vector<features::FeatureVector> rows;
  for (int i = 0; i < 32; ++i) rows.push_back(to_fv(synthetic_row(data_rng)));
  features::FeatureScaler scaler;
  scaler.fit(rows);

  const auto dir = test::unique_temp_path("serve_" + tag);
  std::filesystem::remove_all(dir);
  auto st = serve::Checkpoint::write(dir, model, &scaler);
  EXPECT_TRUE(st.is_ok()) << st.to_string();
  return dir;
}

/// Reference logits for `raw` under the checkpoint at `dir`, computed on the
/// legacy per-sample forward path.
std::vector<double> reference_logits(const std::string& dir,
                                     const std::vector<double>& raw) {
  auto loaded = serve::Checkpoint::load(dir, "ref");
  EXPECT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto ckpt = std::move(loaded).value();
  auto model = ckpt->clone_model();
  ml::ModelClassifier clf(model, kDim, 2);
  const auto scaled = ckpt->scaler()->transform(to_fv(raw));
  return clf.logits(std::vector<double>(scaled.begin(), scaled.end()));
}

// ---------------------------------------------------------------------------
// Batched forward path

TEST(BatchedInfer, BitwiseIdenticalToSerialForwardCnn) {
  Rng weight_rng(11), dropout_rng(0), data_rng(3);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);

  for (std::size_t batch : {1u, 3u, 16u}) {
    std::vector<std::vector<double>> xs;
    for (std::size_t i = 0; i < batch; ++i) xs.push_back(synthetic_row(data_rng));
    const auto batched = clf.logits_batch(xs);
    ASSERT_EQ(batched.size(), batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto serial = clf.logits(xs[i]);
      ASSERT_EQ(batched[i].size(), serial.size());
      for (std::size_t k = 0; k < serial.size(); ++k) {
        // Exact equality: the infer path must be bitwise-identical.
        EXPECT_EQ(batched[i][k], serial[k]) << "batch=" << batch << " i=" << i;
      }
    }
  }
}

TEST(BatchedInfer, BitwiseIdenticalToSerialForwardMlp) {
  Rng weight_rng(13), data_rng(5);
  auto model = ml::make_mlp_baseline(kDim, 2);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);

  std::vector<std::vector<double>> xs;
  for (int i = 0; i < 16; ++i) xs.push_back(synthetic_row(data_rng));
  const auto batched = clf.logits_batch(xs);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const auto serial = clf.logits(xs[i]);
    for (std::size_t k = 0; k < serial.size(); ++k) {
      EXPECT_EQ(batched[i][k], serial[k]);
    }
  }
}

TEST(BatchedInfer, ModelInferMatchesForward) {
  Rng weight_rng(17), dropout_rng(0), data_rng(9);
  auto model = ml::make_paper_cnn(kDim, 2, dropout_rng);
  model.init(weight_rng);

  ml::Tensor x({4, 1, kDim});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(data_rng.uniform(0.0, 1.0));
  }
  const auto via_forward = model.forward(x, /*training=*/false);
  const auto via_infer = model.infer(x);
  ASSERT_EQ(via_forward.size(), via_infer.size());
  for (std::size_t i = 0; i < via_forward.size(); ++i) {
    EXPECT_EQ(via_forward[i], via_infer[i]);
  }
}

TEST(BatchedInfer, RejectsRaggedRows) {
  Rng weight_rng(19);
  auto model = ml::make_mlp_baseline(kDim, 2);
  model.init(weight_rng);
  ml::ModelClassifier clf(model, kDim, 2);
  std::vector<std::vector<double>> xs = {std::vector<double>(kDim, 0.1),
                                         std::vector<double>(kDim - 1, 0.1)};
  EXPECT_THROW(clf.logits_batch(xs), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(BoundedQueue, PushPopAndOverflow) {
  serve::BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));  // full
  EXPECT_EQ(c, 3);              // untouched on refusal
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_TRUE(q.try_push(c));
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop_for(std::chrono::microseconds(100)), std::nullopt);
}

TEST(BoundedQueue, HoldBlocksPopsButAdmitsPushes) {
  serve::BoundedQueue<int> q(4);
  q.set_hold(true);
  int x = 7;
  EXPECT_TRUE(q.try_push(x));
  EXPECT_EQ(q.pop_for(std::chrono::microseconds(500)), std::nullopt);
  EXPECT_EQ(q.size(), 1u);
  q.set_hold(false);
  EXPECT_EQ(q.pop().value(), 7);
}

TEST(BoundedQueue, CloseDrainsThenSignalsExit) {
  serve::BoundedQueue<int> q(4);
  int a = 1, b = 2;
  q.try_push(a);
  q.try_push(b);
  q.close();
  EXPECT_FALSE(q.try_push(a));  // refused after close
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // drained: consumer exits
}

// ---------------------------------------------------------------------------
// Checkpoint + registry

TEST(Checkpoint, RoundTripPreservesLogits) {
  const auto dir = write_checkpoint("roundtrip", 21);
  auto loaded = serve::Checkpoint::load(dir, "v1");
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  auto ckpt = std::move(loaded).value();
  EXPECT_EQ(ckpt->version(), "v1");
  ASSERT_NE(ckpt->scaler(), nullptr);

  Rng data_rng(1);
  const auto raw = synthetic_row(data_rng);
  auto m1 = ckpt->clone_model();
  auto m2 = ckpt->clone_model();
  ml::ModelClassifier c1(m1, kDim, 2), c2(m2, kDim, 2);
  const std::vector<double> x(kDim, 0.5);
  const auto l1 = c1.logits(x), l2 = c2.logits(x);
  for (std::size_t k = 0; k < l1.size(); ++k) EXPECT_EQ(l1[k], l2[k]);
  std::filesystem::remove_all(dir);
  (void)raw;
}

TEST(Checkpoint, LoadRejectsMissingAndTruncated) {
  EXPECT_FALSE(serve::Checkpoint::load("/nonexistent/gea_ckpt", "v").is_ok());

  const auto dir = write_checkpoint("truncated", 23);
  const auto model_file =
      (std::filesystem::path(dir) / serve::Checkpoint::kModelFile).string();
  const auto full_size = std::filesystem::file_size(model_file);
  std::filesystem::resize_file(model_file, full_size / 2);
  auto loaded = serve::Checkpoint::load(dir, "v");
  EXPECT_FALSE(loaded.is_ok());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SpecGuardsScalerDimension) {
  serve::CheckpointSpec spec;
  spec.input_dim = features::kNumExtendedFeatures;  // 41: no FeatureScaler
  spec.expect_scaler = true;
  auto loaded = serve::Checkpoint::load("/tmp", "v", spec);
  ASSERT_FALSE(loaded.is_ok());
  EXPECT_EQ(loaded.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Registry, InstallActivateRetireGenerations) {
  const auto d1 = write_checkpoint("reg_v1", 31);
  const auto d2 = write_checkpoint("reg_v2", 37);
  serve::ModelRegistry reg;
  EXPECT_EQ(reg.active(), nullptr);
  EXPECT_EQ(reg.generation(), 0u);

  ASSERT_TRUE(reg.load("v1", d1).is_ok());
  EXPECT_EQ(reg.active_version(), "v1");
  const auto gen1 = reg.generation();
  EXPECT_GT(gen1, 0u);

  ASSERT_TRUE(reg.load("v2", d2).is_ok());
  EXPECT_EQ(reg.active_version(), "v2");
  EXPECT_GT(reg.generation(), gen1);

  // Retire refuses the active version, accepts the idle one.
  EXPECT_EQ(reg.retire("v2").code(), ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(reg.retire("v1").is_ok());
  EXPECT_EQ(reg.activate("v1").code(), ErrorCode::kNotFound);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v2"});
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d2);
}

TEST(Registry, FailedLoadLeavesActiveUntouched) {
  const auto d1 = write_checkpoint("reg_keep", 41);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", d1).is_ok());
  const auto gen = reg.generation();

  auto st = reg.load("v2", "/nonexistent/gea_ckpt");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(reg.active_version(), "v1");
  EXPECT_EQ(reg.generation(), gen);
  EXPECT_EQ(reg.versions(), std::vector<std::string>{"v1"});
  std::filesystem::remove_all(d1);
}

// ---------------------------------------------------------------------------
// DetectionServer

TEST(Server, VerdictMatchesOfflineClassifierBitwise) {
  const auto dir = write_checkpoint("verdict", 43);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 2;
  serve::DetectionServer server(reg, cfg);

  Rng data_rng(2);
  for (int i = 0; i < 8; ++i) {
    const auto raw = synthetic_row(data_rng);
    const auto expected = reference_logits(dir, raw);
    auto verdict = server.detect(raw);
    ASSERT_TRUE(verdict.is_ok()) << verdict.status().to_string();
    const auto& v = verdict.value();
    ASSERT_EQ(v.logits.size(), expected.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
      EXPECT_EQ(v.logits[k], expected[k]);  // batching never changes results
    }
    EXPECT_EQ(v.model_version, "v1");
    EXPECT_NEAR(v.probabilities[0] + v.probabilities[1], 1.0, 1e-12);
    EXPECT_GE(v.batch_size, 1u);
  }
  server.stop();
  const auto snap = server.stats();
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_EQ(snap.submitted, 8u);
  std::filesystem::remove_all(dir);
}

TEST(Server, DeterministicAcrossWorkerCounts) {
  const auto dir = write_checkpoint("determinism", 47);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  Rng data_rng(4);
  std::vector<std::vector<double>> raws;
  for (int i = 0; i < 24; ++i) raws.push_back(synthetic_row(data_rng));

  std::vector<std::vector<std::vector<double>>> per_count;  // [cfg][req][k]
  for (std::size_t workers : {1u, 2u, 8u}) {
    serve::ServerConfig cfg;
    cfg.workers = workers;
    serve::DetectionServer server(reg, cfg);
    std::vector<std::future<util::Result<serve::Verdict>>> futures;
    for (const auto& raw : raws) futures.push_back(server.submit(raw));
    std::vector<std::vector<double>> logits;
    for (auto& f : futures) {
      auto r = f.get();
      ASSERT_TRUE(r.is_ok()) << r.status().to_string();
      logits.push_back(r.value().logits);
    }
    per_count.push_back(std::move(logits));
  }
  for (std::size_t c = 1; c < per_count.size(); ++c) {
    for (std::size_t i = 0; i < raws.size(); ++i) {
      EXPECT_EQ(per_count[c][i], per_count[0][i]) << "workers cfg " << c;
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(Server, QueueOverflowRejectsInsteadOfHanging) {
  const auto dir = write_checkpoint("overflow", 53);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 4;
  serve::DetectionServer server(reg, cfg);
  server.pause();  // workers fenced: queue fills deterministically

  const std::vector<double> raw(kDim, 1.0);
  std::vector<std::future<util::Result<serve::Verdict>>> admitted;
  for (int i = 0; i < 4; ++i) admitted.push_back(server.submit(raw));
  EXPECT_EQ(server.queue_depth(), 4u);

  auto overflow = server.submit(raw);  // 5th: must reject, not block
  auto r = overflow.get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);

  server.resume();
  for (auto& f : admitted) EXPECT_TRUE(f.get().is_ok());
  const auto snap = server.stats();
  EXPECT_EQ(snap.rejected_full, 1u);
  EXPECT_EQ(snap.completed, 4u);
  std::filesystem::remove_all(dir);
}

TEST(Server, ExpiredDeadlineRejectedAtDequeue) {
  const auto dir = write_checkpoint("deadline", 59);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());

  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  server.pause();

  const std::vector<double> raw(kDim, 1.0);
  auto doomed = server.submit(raw, /*deadline_ms=*/1.0);
  auto fine = server.submit(raw);  // no deadline
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.resume();

  auto r = doomed.get();
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDeadlineExceeded);
  EXPECT_TRUE(fine.get().is_ok());
  EXPECT_EQ(server.stats().expired, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Server, NoActiveModelRejectsImmediately) {
  serve::ModelRegistry reg;  // empty
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  auto r = server.detect(std::vector<double>(kDim, 0.0));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(server.stats().rejected_no_model, 1u);
}

TEST(Server, WrongDimensionRejectedAsInvalid) {
  const auto dir = write_checkpoint("baddim", 61);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  auto r = server.detect(std::vector<double>(kDim + 3, 0.0));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected_invalid, 1u);
  std::filesystem::remove_all(dir);
}

TEST(Server, ProgramSubmitFeaturizesAndServes) {
  const auto dir = write_checkpoint("program", 67);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);

  Rng rng(8);
  const auto program = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  auto r = server.detect(program);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_LT(r.value().predicted, 2u);
  std::filesystem::remove_all(dir);
}

// A NaN or infinite feature is refused at admission, on the per-sample
// path too (max_batch = 1), where ReLU::forward would map NaN to 0 and a
// confident verdict would come back.
TEST(Server, NonFiniteFeatureRejectedAsInvalid) {
  const auto dir = write_checkpoint("nanfeature", 89);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 1;
  serve::DetectionServer server(reg, cfg);

  Rng rng(9);
  auto row = synthetic_row(rng);
  row[3] = std::numeric_limits<double>::quiet_NaN();
  auto r = server.detect(row);
  ASSERT_FALSE(r.is_ok()) << "verdict " << r.value().predicted
                          << " from a NaN feature";
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);

  row[3] = std::numeric_limits<double>::infinity();
  r = server.detect(row);
  ASSERT_FALSE(r.is_ok()) << "verdict from an infinite feature";
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(server.stats().rejected_invalid, 2u);
  EXPECT_EQ(server.stats().completed, 0u);

  row[3] = 1.0;
  auto clean = server.detect(row);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  std::filesystem::remove_all(dir);
}

// A finite feature can still overflow the model: 1e308 scales past float
// range, and the logits come out non-finite. A first-wins argmax would
// call that class 0 (benign); the server must answer with a typed error
// and count it instead of returning a verdict.
TEST(Server, NonFiniteLogitsGetNoVerdict) {
  const auto dir = write_checkpoint("nonfinite", 83);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  const auto counted = [&] {
    return server.metrics().snapshot().counters.at("serve.nonfinite_logits");
  };
  EXPECT_EQ(counted(), 0u);

  Rng rng(8);
  auto row = synthetic_row(rng);
  const double kept = row[5];
  row[5] = 1e308;
  {
    auto r = server.detect(row);
    ASSERT_FALSE(r.is_ok()) << "verdict " << r.value().predicted
                            << " from an overflowing feature";
    EXPECT_EQ(r.status().code(), ErrorCode::kInternal);
  }
  EXPECT_EQ(server.stats().nonfinite_logits, 1u);
  EXPECT_EQ(server.stats().completed, 0u);
  EXPECT_EQ(counted(), 1u);

  // The same row, in range, is served normally.
  row[5] = kept;
  auto clean = server.detect(row);
  ASSERT_TRUE(clean.is_ok()) << clean.status().to_string();
  std::filesystem::remove_all(dir);
}

TEST(Server, HotSwapIsAtomicUnderTraffic) {
  const auto d1 = write_checkpoint("swap_v1", 71);
  const auto d2 = write_checkpoint("swap_v2", 73);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", d1).is_ok());

  Rng data_rng(6);
  const auto raw = synthetic_row(data_rng);
  const auto logits_v1 = reference_logits(d1, raw);
  const auto logits_v2 = reference_logits(d2, raw);
  ASSERT_NE(logits_v1, logits_v2);  // different weight seeds

  serve::ServerConfig cfg;
  cfg.workers = 2;
  serve::DetectionServer server(reg, cfg);

  std::atomic<bool> stop_traffic{false};
  std::atomic<int> torn{0};
  std::thread traffic([&] {
    while (!stop_traffic.load()) {
      auto r = server.detect(raw);
      if (!r.is_ok()) continue;  // only transient kUnavailable is possible
      const auto& l = r.value().logits;
      // Every verdict must come from exactly v1 or v2 — never a mix.
      if (l != logits_v1 && l != logits_v2) torn.fetch_add(1);
    }
  });

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(reg.load("v2", d2).is_ok());
    // A corrupt checkpoint must fail cleanly and keep serving v2.
    EXPECT_FALSE(reg.load("v3", "/nonexistent/gea_ckpt").is_ok());
    EXPECT_EQ(reg.active_version(), "v2");
    ASSERT_TRUE(reg.activate("v1").is_ok());
  }
  stop_traffic.store(true);
  traffic.join();
  server.stop();
  EXPECT_EQ(torn.load(), 0);
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d2);
}

TEST(Server, StatsSummaryRendersAllSections) {
  const auto dir = write_checkpoint("stats", 79);
  serve::ModelRegistry reg;
  ASSERT_TRUE(reg.load("v1", dir).is_ok());
  serve::ServerConfig cfg;
  cfg.workers = 1;
  serve::DetectionServer server(reg, cfg);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.detect(std::vector<double>(kDim, 0.25)).is_ok());
  }
  const auto snap = server.stats();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.batches, snap.batch_sizes.size() >= 1 ? snap.batches : 0u);
  const auto text = snap.summary();
  EXPECT_NE(text.find("served"), std::string::npos);
  EXPECT_NE(text.find("batches"), std::string::npos);
  EXPECT_NE(text.find("p95"), std::string::npos);
  std::filesystem::remove_all(dir);
}

// mean_batch() is defined as the mean of the batch-size histogram — the two
// can never disagree, and expired requests (dropped at dequeue, never
// batched) cannot perturb it.
TEST(Stats, MeanBatchIsTheHistogramMean) {
  serve::ServerStats stats;
  stats.on_batch(4);
  stats.on_batch(2);
  stats.on_batch(2);
  for (int i = 0; i < 8; ++i) {
    stats.on_submitted();
    stats.on_accepted();
    stats.on_completed(0.1, 0.2, 0.3);
  }
  // Expired requests never reach a batch; the mean must not move.
  const double before = stats.snapshot().mean_batch();
  stats.on_expired();
  stats.on_expired();
  const auto snap = stats.snapshot();
  EXPECT_DOUBLE_EQ(snap.mean_batch(), before);

  // Pin the histogram/mean relationship explicitly.
  std::uint64_t in_batches = 0;
  for (const auto& [size, count] : snap.batch_sizes) {
    in_batches += static_cast<std::uint64_t>(size) * count;
  }
  EXPECT_EQ(in_batches, 8u);
  EXPECT_EQ(snap.batches, 3u);
  EXPECT_DOUBLE_EQ(snap.mean_batch(),
                   static_cast<double>(in_batches) /
                       static_cast<double>(snap.batches));
  EXPECT_DOUBLE_EQ(snap.mean_batch(), 8.0 / 3.0);
}

TEST(Stats, MeanBatchEmptyIsZero) {
  serve::ServerStats stats;
  EXPECT_DOUBLE_EQ(stats.snapshot().mean_batch(), 0.0);
}

// ServerStats' only store is its own registry: every event lands there
// under "serve.*", once, and nothing is mirrored into the process-wide one.
TEST(Stats, PublishesIntoInstanceRegistry) {
  const auto global_before = gea::obs::MetricsRegistry::global().snapshot();

  serve::ServerStats stats;
  stats.on_submitted();
  stats.on_accepted();
  stats.on_rejected_full();
  stats.on_expired();
  stats.on_batch(4);
  stats.on_completed(0.5, 1.0, 1.5);

  const auto reg = stats.metrics().snapshot();
  EXPECT_EQ(reg.counters.at("serve.submitted_total"), 1u);
  EXPECT_EQ(reg.counters.at("serve.accepted_total"), 1u);
  EXPECT_EQ(reg.counters.at("serve.rejected_full_total"), 1u);
  EXPECT_EQ(reg.counters.at("serve.expired_total"), 1u);
  EXPECT_EQ(reg.counters.at("serve.batches_total"), 1u);
  EXPECT_EQ(reg.counters.at("serve.completed_total"), 1u);
  EXPECT_EQ(reg.histograms.at("serve.batch_size").count, 1u);
  EXPECT_EQ(reg.histograms.at("serve.infer_ms").count, 1u);
  EXPECT_DOUBLE_EQ(reg.histograms.at("serve.total_ms").sum, 1.5);

  const auto global_after = gea::obs::MetricsRegistry::global().snapshot();
  for (const auto& [name, value] : global_after.counters) {
    if (name.rfind("serve.", 0) != 0) continue;
    const auto it = global_before.counters.find(name);
    EXPECT_EQ(value, it == global_before.counters.end() ? 0u : it->second)
        << name;
  }
}

// The snapshot is a view over fixed buckets, so its cost and the memory
// behind it do not grow with the number of requests served.
TEST(Stats, SnapshotBoundedAfterMillionRequests) {
  serve::ServerStats stats;
  const std::size_t rss_before = util::peak_rss_bytes();
  constexpr std::uint64_t kRequests = 1'000'000;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    stats.on_submitted();
    stats.on_accepted();
    const double ms = 0.05 + static_cast<double>(i % 1000) * 0.01;
    stats.on_completed(ms, ms, 2.0 * ms);
  }
  util::Stopwatch sw;
  const auto snap = stats.snapshot();
  const double snapshot_ms = sw.elapsed_ms();
  const std::size_t rss_after = util::peak_rss_bytes();

  EXPECT_EQ(snap.submitted, kRequests);
  EXPECT_EQ(snap.accepted, kRequests);
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.total_ms.count, kRequests);
  EXPECT_NEAR(snap.queue_ms.mean, 0.05 + 999 * 0.01 / 2, 1e-6);
  EXPECT_LT(snapshot_ms, 20.0);
  EXPECT_LT(rss_after - rss_before, std::size_t{4} << 20)
      << "peak RSS grew by " << (rss_after - rss_before) << " bytes";
}

// batch_size has one integer bucket per size up to max_batch, so the
// histogram view reproduces every size exactly.
TEST(Stats, BatchSizesExactUpToMaxBatch) {
  serve::ServerStats stats(32);
  for (std::size_t size : {1u, 7u, 7u, 31u, 32u}) stats.on_batch(size);
  const auto snap = stats.snapshot();
  const std::map<std::size_t, std::uint64_t> expected = {
      {1, 1}, {7, 2}, {31, 1}, {32, 1}};
  EXPECT_EQ(snap.batch_sizes, expected);
  EXPECT_EQ(snap.batches, 5u);
  EXPECT_DOUBLE_EQ(snap.mean_batch(), 78.0 / 5.0);
}

}  // namespace
