// Detection-as-a-service: a long-lived in-process server that accepts
// programs or precomputed feature vectors, batches them through the CNN,
// and returns scored verdicts.
//
// Request path:
//   submit() — featurize on the caller's thread (program overload), then
//   try_push into a bounded queue. A full queue or missing model rejects
//   immediately with a ready future (kUnavailable), a non-finite feature
//   with kInvalidArgument; the client never hangs on admission.
//   worker — blocking pop for the first request, then lingers up to
//   max_wait_us (or until max_batch) to coalesce stragglers into one
//   Model::infer call. Deadlines are checked at dequeue: an expired request
//   is failed with kDeadlineExceeded without paying for inference.
//   Each worker owns a private model replica (cloned from the active
//   checkpoint) and refreshes it only when the registry generation moves,
//   so hot-swaps cost one atomic load per batch on the steady path.
//
// Batching is an implementation detail of latency/throughput, never of
// results: the batched path is bitwise-identical to per-sample forward
// (tests/serve_test.cpp asserts this), so a verdict does not depend on
// which requests happened to share a batch.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "features/engine.hpp"
#include "isa/program.hpp"
#include "obs/trace.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "serve/stats.hpp"
#include "util/status.hpp"

namespace gea::serve {

struct ServerConfig {
  /// Worker threads; 0 = util::default_thread_count().
  std::size_t workers = 0;
  /// Bounded queue capacity; pushes beyond this reject with kUnavailable.
  std::size_t queue_capacity = 256;
  /// Micro-batch ceiling. 1 disables batching: each request runs alone
  /// through the same batched inference call (bench/serve_load's unbatched
  /// baseline).
  std::size_t max_batch = 16;
  /// How long a worker lingers for stragglers after the first dequeue.
  std::size_t max_wait_us = 200;
  /// Deadline applied when submit() is called with deadline_ms < 0;
  /// 0 = no deadline.
  double default_deadline_ms = 0.0;
  /// Server-lifetime feature cache (graph digest -> 23 features) shared by
  /// every submitting thread: a resubmitted program skips the traversal.
  /// 0 disables caching. Extended (41-dim) featurization caches only its
  /// 23-feature base.
  std::size_t feature_cache_capacity = 256;
};

/// One scored detection outcome. `predicted`/`class_name` are read against
/// the checkpoint's LabelSchema (binary default: 0 benign, 1 malicious);
/// `probabilities` has one entry per schema class.
struct Verdict {
  std::size_t predicted = 0;            // argmax class under the schema
  std::string class_name;               // schema name of `predicted`
  std::uint64_t schema_digest = 0;      // pin of the schema that scored it
  std::vector<double> probabilities;    // softmax, max-subtracted
  std::vector<double> logits;           // raw network outputs
  std::string model_version;            // checkpoint that produced it
  std::size_t batch_size = 0;           // how many requests shared the pass
  double queue_ms = 0.0;                // submit -> dequeue
  double infer_ms = 0.0;                // the batch's forward wall time
  double total_ms = 0.0;                // submit -> verdict
};

class DetectionServer {
 public:
  /// Starts `config.workers` threads immediately. The registry may still be
  /// empty; requests are rejected with kUnavailable until a checkpoint is
  /// activated. The registry must outlive the server.
  DetectionServer(ModelRegistry& registry, const ServerConfig& config = {});
  ~DetectionServer();  // stop()

  DetectionServer(const DetectionServer&) = delete;
  DetectionServer& operator=(const DetectionServer&) = delete;

  /// Enqueue a precomputed feature vector (raw feature units; the active
  /// checkpoint's scaler, when present, is applied server-side). The future
  /// is ready immediately on admission failure, and a NaN or infinite
  /// feature fails admission with kInvalidArgument. deadline_ms: <0 = config
  /// default, 0 = none, >0 = fail with kDeadlineExceeded if still queued
  /// after that many milliseconds. `ctx` (when valid) attributes the
  /// request's queue-wait and inference spans to a distributed trace — the
  /// transport passes the context it decoded from the frame header.
  std::future<util::Result<Verdict>> submit(std::vector<double> features,
                                            double deadline_ms = -1.0,
                                            obs::TraceContext ctx = {});

  /// Extract the CFG (entry function, the paper's convention) and featurize
  /// on the caller's thread, then enqueue. The feature width follows the
  /// active checkpoint's spec (23 or 41).
  std::future<util::Result<Verdict>> submit(const isa::Program& program,
                                            double deadline_ms = -1.0);

  /// Blocking client facade: submit + wait.
  util::Result<Verdict> detect(std::vector<double> features,
                               double deadline_ms = -1.0);
  util::Result<Verdict> detect(const isa::Program& program,
                               double deadline_ms = -1.0);

  /// Fence the workers: queued requests stay queued (admission continues)
  /// until resume(). Tests use this to build deterministic queue states.
  void pause();
  void resume();

  /// Drain the queue and join the workers. Idempotent; called by ~.
  void stop();

  const ServerConfig& config() const { return config_; }
  ModelRegistry& registry() { return registry_; }
  std::size_t queue_depth() const { return queue_.size(); }
  StatsSnapshot stats() const { return stats_.snapshot(queue_.size()); }
  /// This server's serve.* registry, the store stats() is a view over.
  const obs::MetricsRegistry& metrics() const { return stats_.metrics(); }
  /// The server-lifetime feature cache (null when disabled).
  const std::shared_ptr<features::FeatureCache>& feature_cache() const {
    return feature_cache_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    std::vector<double> features;
    std::promise<util::Result<Verdict>> promise;
    Clock::time_point enqueued;
    std::optional<Clock::time_point> deadline;
    obs::TraceContext ctx;  // invalid = untraced
  };

  std::future<util::Result<Verdict>> reject(util::Status status);
  std::optional<Clock::time_point> resolve_deadline(double deadline_ms) const;
  void worker_loop();
  void process_batch(std::vector<Request>& batch);

  ModelRegistry& registry_;
  ServerConfig config_;
  BoundedQueue<Request> queue_;
  std::shared_ptr<features::FeatureCache> feature_cache_;
  ServerStats stats_;
  std::vector<std::thread> workers_;
  bool stopped_ = false;
};

}  // namespace gea::serve
