#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "cfg/cfg.hpp"
#include "features/extended.hpp"
#include "features/features.hpp"
#include "obs/trace.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace gea::serve {

using util::ErrorCode;
using util::Status;

DetectionServer::DetectionServer(ModelRegistry& registry,
                                 const ServerConfig& config)
    : registry_(registry),
      config_(config),
      queue_(config.queue_capacity == 0 ? 1 : config.queue_capacity),
      feature_cache_(config.feature_cache_capacity == 0
                         ? nullptr
                         : std::make_shared<features::FeatureCache>(
                               config.feature_cache_capacity)),
      stats_(config.max_batch) {
  if (config_.workers == 0) config_.workers = util::default_thread_count();
  if (config_.max_batch == 0) config_.max_batch = 1;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

DetectionServer::~DetectionServer() { stop(); }

void DetectionServer::stop() {
  if (stopped_) return;
  stopped_ = true;
  queue_.close();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void DetectionServer::pause() { queue_.set_hold(true); }
void DetectionServer::resume() { queue_.set_hold(false); }

std::future<util::Result<Verdict>> DetectionServer::reject(
    util::Status status) {
  std::promise<util::Result<Verdict>> p;
  auto f = p.get_future();
  p.set_value(util::Result<Verdict>(std::move(status)));
  return f;
}

std::optional<DetectionServer::Clock::time_point>
DetectionServer::resolve_deadline(double deadline_ms) const {
  if (deadline_ms < 0.0) deadline_ms = config_.default_deadline_ms;
  if (deadline_ms <= 0.0) return std::nullopt;
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double, std::milli>(deadline_ms));
}

std::future<util::Result<Verdict>> DetectionServer::submit(
    std::vector<double> features, double deadline_ms, obs::TraceContext ctx) {
  stats_.on_submitted();
  if (registry_.active() == nullptr) {
    stats_.on_rejected_no_model();
    return reject(Status::error(ErrorCode::kUnavailable, "no active model")
                      .with_context("DetectionServer::submit"));
  }
  // A non-finite feature has no verdict: the model would map it to NaN
  // logits, or (ReLU::forward maps NaN to 0) to a confident wrong answer.
  const auto bad = std::find_if(features.begin(), features.end(),
                                [](double v) { return !std::isfinite(v); });
  if (bad != features.end()) {
    stats_.on_rejected_invalid();
    return reject(Status::error(ErrorCode::kInvalidArgument,
                                "non-finite feature at index " +
                                    std::to_string(bad - features.begin()))
                      .with_context("DetectionServer::submit"));
  }
  Request req;
  req.features = std::move(features);
  req.enqueued = Clock::now();
  req.deadline = resolve_deadline(deadline_ms);
  req.ctx = ctx;
  auto future = req.promise.get_future();
  if (!queue_.try_push(req)) {
    stats_.on_rejected_full();
    return reject(Status::error(ErrorCode::kUnavailable,
                                "queue full (capacity " +
                                    std::to_string(queue_.capacity()) + ")")
                      .with_context("DetectionServer::submit"));
  }
  stats_.on_accepted();
  return future;
}

std::future<util::Result<Verdict>> DetectionServer::submit(
    const isa::Program& program, double deadline_ms) {
  auto ckpt = registry_.active();
  if (ckpt == nullptr) {
    stats_.on_submitted();
    stats_.on_rejected_no_model();
    return reject(Status::error(ErrorCode::kUnavailable, "no active model")
                      .with_context("DetectionServer::submit"));
  }
  // Featurize on the caller's thread: keeps worker batches pure inference
  // and makes CFG-extraction cost visible to the client that pays for it.
  // The thread-local engine reuses traversal scratch across submissions;
  // the server-wide cache short-circuits resubmitted graphs.
  cfg::CfgOptions opts;
  opts.main_only = true;  // the paper's per-binary convention
  opts.label_blocks = false;
  std::vector<double> row;
  try {
    const cfg::Cfg graph = cfg::extract_cfg(program, opts);
    auto& engine = features::FeatureEngine::local();
    if (ckpt->spec().input_dim == features::kNumExtendedFeatures) {
      row = features::extract_extended_features(graph.graph, engine,
                                                feature_cache_.get());
    } else {
      const auto fv = engine.extract(graph.graph, feature_cache_.get());
      row.assign(fv.begin(), fv.end());
    }
  } catch (const std::invalid_argument& e) {
    stats_.on_submitted();
    stats_.on_rejected_invalid();
    return reject(Status::error(ErrorCode::kInvalidArgument, e.what())
                      .with_context("DetectionServer::submit(program)"));
  }
  return submit(std::move(row), deadline_ms);
}

util::Result<Verdict> DetectionServer::detect(std::vector<double> features,
                                              double deadline_ms) {
  return submit(std::move(features), deadline_ms).get();
}

util::Result<Verdict> DetectionServer::detect(const isa::Program& program,
                                              double deadline_ms) {
  return submit(program, deadline_ms).get();
}

void DetectionServer::worker_loop() {
  std::vector<Request> batch;
  while (true) {
    auto first = queue_.pop();
    if (!first.has_value()) return;  // closed and drained
    batch.clear();
    batch.push_back(std::move(*first));
    if (config_.max_batch > 1) {
      // Drain whatever is already queued in one lock acquisition (avoids
      // N workers waking and fragmenting a deep queue into singles), then
      // linger for stragglers until the window or the batch cap is hit.
      auto drained = queue_.pop_up_to(config_.max_batch - batch.size());
      for (auto& r : drained) batch.push_back(std::move(r));
      util::Stopwatch linger;
      while (batch.size() < config_.max_batch) {
        const double waited = linger.elapsed_us();
        if (waited >= static_cast<double>(config_.max_wait_us)) break;
        auto more = queue_.pop_for(std::chrono::microseconds(
            config_.max_wait_us - static_cast<std::size_t>(waited)));
        if (!more.has_value()) break;  // timeout, or closed and drained
        batch.push_back(std::move(*more));
        auto extra = queue_.pop_up_to(config_.max_batch - batch.size());
        for (auto& r : extra) batch.push_back(std::move(r));
      }
    }
    process_batch(batch);
  }
}

namespace {

/// Worker-private serving state, refreshed on registry generation change.
struct Replica {
  CheckpointPtr ckpt;            // keeps the dropout Rng + scaler alive
  std::optional<ml::Model> model;
  std::uint64_t generation = 0;  // registry starts at 0; activation bumps
};

thread_local Replica t_replica;

/// Max-subtracted softmax, same expression order as
/// DifferentiableClassifier::probabilities so served probabilities match
/// the offline classifier bit for bit.
std::vector<double> softmax(const std::vector<double>& z) {
  double mx = z[0];
  for (double v : z) mx = std::max(mx, v);
  std::vector<double> p(z.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    p[i] = std::exp(z[i] - mx);
    sum += p[i];
  }
  for (auto& v : p) v /= sum;
  return p;
}

/// First-wins argmax, matching DifferentiableClassifier::predict.
std::size_t argmax(const std::vector<double>& z) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < z.size(); ++i) {
    if (z[i] > z[best]) best = i;
  }
  return best;
}

}  // namespace

void DetectionServer::process_batch(std::vector<Request>& batch) {
  obs::TraceSpan batch_span("serve.batch");
  const auto dequeued = Clock::now();

  // Refresh the private replica iff the registry moved (one atomic load on
  // the steady path; a clone only right after a hot-swap).
  const std::uint64_t gen = registry_.generation();
  if (gen != t_replica.generation || !t_replica.model.has_value()) {
    t_replica.ckpt = registry_.active();
    t_replica.model.reset();
    if (t_replica.ckpt != nullptr) t_replica.model = t_replica.ckpt->clone_model();
    t_replica.generation = gen;
  }
  if (!t_replica.model.has_value()) {
    for (auto& req : batch) {
      stats_.on_rejected_no_model();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kUnavailable, "no active model")
              .with_context("DetectionServer::process_batch")));
    }
    return;
  }
  const Checkpoint& ckpt = *t_replica.ckpt;
  const std::size_t dim = ckpt.spec().input_dim;

  // Deadline and shape checks at dequeue: expired or malformed requests
  // never pay for (or pollute) the inference pass.
  std::vector<Request*> live;
  live.reserve(batch.size());
  for (auto& req : batch) {
    if (req.deadline.has_value() && dequeued > *req.deadline) {
      stats_.on_expired();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kDeadlineExceeded,
                        "request expired before inference")
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    if (req.features.size() != dim) {
      stats_.on_rejected_invalid();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kInvalidArgument,
                        "expected " + std::to_string(dim) + " features, got " +
                            std::to_string(req.features.size()))
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    live.push_back(&req);
  }
  if (live.empty()) return;

  // Server-side scaling with the checkpoint's scaler (23-feature layout).
  std::vector<std::vector<double>> xs;
  xs.reserve(live.size());
  for (Request* req : live) {
    if (const auto* scaler = ckpt.scaler()) {
      features::FeatureVector fv{};
      std::copy(req->features.begin(), req->features.end(), fv.begin());
      const auto scaled = scaler->transform(fv);
      xs.emplace_back(scaled.begin(), scaled.end());
    } else {
      xs.push_back(req->features);
    }
  }

  ml::ModelClassifier clf(*t_replica.model, dim, ckpt.spec().num_classes());
  util::Stopwatch infer_sw;
  auto logits = clf.logits_batch(xs);
  const double infer_ms = infer_sw.elapsed_ms();
  stats_.on_batch(live.size());

  for (std::size_t i = 0; i < live.size(); ++i) {
    Request& req = *live[i];
    // Non-finite logits carry no verdict: argmax would read them as the
    // first class (benign). Fail the request instead of guessing.
    if (!std::all_of(logits[i].begin(), logits[i].end(),
                     [](double z) { return std::isfinite(z); })) {
      stats_.on_nonfinite_logits();
      req.promise.set_value(util::Result<Verdict>(
          Status::error(ErrorCode::kInternal,
                        "model produced non-finite logits")
              .with_context("DetectionServer::process_batch")));
      continue;
    }
    Verdict v;
    v.logits = std::move(logits[i]);
    v.probabilities = softmax(v.logits);
    v.predicted = argmax(v.logits);
    v.class_name = ckpt.schema().name(v.predicted);
    v.schema_digest = ckpt.schema().digest();
    v.model_version = ckpt.version();
    v.batch_size = live.size();
    v.queue_ms = std::chrono::duration<double, std::milli>(dequeued -
                                                           req.enqueued)
                     .count();
    v.infer_ms = infer_ms;
    v.total_ms = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           req.enqueued)
                     .count();
    if (req.ctx.valid()) {
      // Attribute this request's server-side phases to its distributed
      // trace. The intervals are reconstructed backward from the recorder
      // clock (queue-wait ended at dequeue; inference just ended), so the
      // spans land on the same timeline the client's spans use.
      auto& rec = obs::TraceRecorder::global();
      const double now = rec.now_us();
      rec.record_interval("serve.queue_wait", req.ctx,
                          now - v.total_ms * 1000.0, v.queue_ms * 1000.0);
      rec.record_interval("serve.infer", req.ctx, now - v.infer_ms * 1000.0,
                          v.infer_ms * 1000.0);
    }
    stats_.on_completed(v.queue_ms, v.infer_ms, v.total_ms,
                        req.ctx.trace_id);
    req.promise.set_value(util::Result<Verdict>(std::move(v)));
  }
}

}  // namespace gea::serve
