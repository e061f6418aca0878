// Serving-side observability, exported in the PipelineReport style: a
// snapshot struct the caller can assert on plus a one-paragraph human
// summary() for logs and demos. The snapshot is a view over the server's
// own metrics registry (see ServerStats).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace gea::serve {

/// Point-in-time copy of every serving counter. All latencies are in
/// milliseconds.
struct StatsSnapshot {
  // Admission.
  std::uint64_t submitted = 0;       // requests offered to the queue
  std::uint64_t accepted = 0;        // admitted past admission control
  std::uint64_t rejected_full = 0;   // refused: queue at capacity
  std::uint64_t rejected_invalid = 0;  // refused before/at inference: bad input
  std::uint64_t rejected_no_model = 0; // refused: no active checkpoint
  std::uint64_t expired = 0;         // dropped at dequeue: deadline passed
  std::uint64_t nonfinite_logits = 0;  // failed after inference: NaN/Inf out

  // Execution.
  std::uint64_t completed = 0;       // verdicts delivered
  std::uint64_t batches = 0;         // inference calls issued
  std::map<std::size_t, std::uint64_t> batch_sizes;  // batch-size histogram

  // Latency summaries (ms): count and mean exact, percentiles and max
  // estimated from the histogram buckets.
  util::LatencySummary queue_ms;   // submit -> dequeue
  util::LatencySummary infer_ms;   // batch forward, attributed per request
  util::LatencySummary total_ms;   // submit -> verdict

  double elapsed_s = 0.0;  // since server start
  double qps = 0.0;        // completed / elapsed
  std::size_t queue_depth = 0;  // at snapshot time

  /// Mean batch size, computed from the batch-size histogram itself
  /// (sum of size*count over batch_sizes / batches) so the mean and the
  /// histogram can never disagree. Expired requests are dropped at dequeue
  /// and never reach a batch, so they do not enter this mean.
  double mean_batch() const {
    if (batches == 0) return 0.0;
    std::uint64_t in_batches = 0;
    for (const auto& [size, count] : batch_sizes) {
      in_batches += static_cast<std::uint64_t>(size) * count;
    }
    return static_cast<double>(in_batches) / static_cast<double>(batches);
  }

  /// One-paragraph rendering, PipelineReport::summary() style.
  std::string summary() const;
};

/// Serving telemetry for one DetectionServer. Its only store is its own
/// obs::MetricsRegistry (serve.* names): each event is recorded once, in
/// its instruments there — wait-free striped atomics, no lock, no
/// allocation — and snapshot() is an O(buckets) view over them. The admin
/// plane's /metrics exports the same registry, so the two cannot disagree.
///
/// Exactness: the counters, batch_sizes and mean_batch() are exact
/// (serve.batch_size has one integer bucket per size 1..max_batch). For
/// queue_ms/infer_ms/total_ms the count and mean are exact; p50/p95/p99
/// and max are bucket estimates over obs::default_latency_buckets_ms(), the
/// same numbers /metrics renders. obs::set_metrics_enabled(false) stops the
/// counting, so the snapshot stands still while metrics are off.
class ServerStats {
 public:
  /// `max_batch` is the largest size on_batch() will be handed (0 counts
  /// as 1, as in ServerConfig).
  explicit ServerStats(std::size_t max_batch = 16);

  void on_submitted() { submitted_.inc(); }
  void on_accepted() { accepted_.inc(); }
  void on_rejected_full() { rejected_full_.inc(); }
  void on_rejected_invalid() { rejected_invalid_.inc(); }
  void on_rejected_no_model() { rejected_no_model_.inc(); }
  void on_expired() { expired_.inc(); }
  void on_nonfinite_logits() { nonfinite_logits_.inc(); }
  /// One inference pass over `batch_size` requests (1..max_batch).
  void on_batch(std::size_t batch_size) {
    batches_.inc();
    batch_size_.observe(static_cast<double>(batch_size));
  }
  /// `trace_id` (when nonzero) becomes an exemplar candidate on the
  /// serve.queue_ms/infer_ms/total_ms histograms, linking the Prometheus
  /// export back to the request's /tracez entry.
  void on_completed(double queue_ms, double infer_ms, double total_ms,
                    std::uint64_t trace_id = 0) {
    completed_.inc();
    queue_ms_.observe(queue_ms, trace_id);
    infer_ms_.observe(infer_ms, trace_id);
    total_ms_.observe(total_ms, trace_id);
  }

  StatsSnapshot snapshot(std::size_t queue_depth = 0) const;

  /// This server's registry (what /metrics exports for it).
  const obs::MetricsRegistry& metrics() const { return registry_; }

 private:
  obs::MetricsRegistry registry_;
  obs::Counter& submitted_;
  obs::Counter& accepted_;
  obs::Counter& rejected_full_;
  obs::Counter& rejected_invalid_;
  obs::Counter& rejected_no_model_;
  obs::Counter& expired_;
  obs::Counter& nonfinite_logits_;
  obs::Counter& completed_;
  obs::Counter& batches_;
  obs::Histogram& batch_size_;
  obs::Histogram& queue_ms_;
  obs::Histogram& infer_ms_;
  obs::Histogram& total_ms_;
  util::Stopwatch started_;
};

}  // namespace gea::serve
