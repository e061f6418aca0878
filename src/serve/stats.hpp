// Serving-side observability, exported in the PipelineReport style: a
// snapshot struct the caller can assert on plus a one-paragraph human
// summary() for logs and demos.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/stats.hpp"
#include "util/timer.hpp"

namespace gea::obs {
class Counter;
class Histogram;
}  // namespace gea::obs

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

  // Latency percentiles (ms).
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

/// Thread-safe accumulator behind the snapshot. One mutex guards counters
/// and the latency recorders; the serving hot path takes it twice per
/// request (admission, completion) which is noise next to a CNN forward.
///
/// Every event is also published to obs::MetricsRegistry::global() under
/// "serve.*" (handles resolved once at construction), so serving shares the
/// process-wide exportable surface with the pipeline, trainer, and attacks.
class ServerStats {
 public:
  ServerStats();

  void on_submitted();
  void on_accepted();
  void on_rejected_full();
  void on_rejected_invalid();
  void on_rejected_no_model();
  void on_expired();
  void on_nonfinite_logits();
  void on_batch(std::size_t batch_size);
  /// `trace_id` (when nonzero) becomes an exemplar candidate on the
  /// serve.queue_ms/infer_ms/total_ms registry histograms, linking the
  /// Prometheus export back to the request's /tracez entry.
  void on_completed(double queue_ms, double infer_ms, double total_ms,
                    std::uint64_t trace_id = 0);

  StatsSnapshot snapshot(std::size_t queue_depth = 0) const;

 private:
  mutable std::mutex mu_;
  StatsSnapshot counts_;  // latency summaries unused here; recorders below
  util::LatencyRecorder queue_ms_;
  util::LatencyRecorder infer_ms_;
  util::LatencyRecorder total_ms_;
  util::Stopwatch started_;

  // Registry mirrors ("serve.*"), shared across ServerStats instances by
  // design: the registry aggregates the process, the snapshot isolates the
  // server.
  struct Registry {
    obs::Counter* submitted;
    obs::Counter* accepted;
    obs::Counter* rejected_full;
    obs::Counter* rejected_invalid;
    obs::Counter* rejected_no_model;
    obs::Counter* expired;
    obs::Counter* nonfinite_logits;
    obs::Counter* completed;
    obs::Counter* batches;
    obs::Histogram* batch_size;
    obs::Histogram* queue_ms;
    obs::Histogram* infer_ms;
    obs::Histogram* total_ms;
  };
  Registry reg_{};
};

}  // namespace gea::serve
