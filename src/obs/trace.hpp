// RAII trace spans with parent/child nesting, plus distributed trace
// context for spans that cross threads and processes.
//
// A TraceSpan marks a region of work ("pipeline.train", "serve.batch") on
// the current thread: construction pushes it onto a thread-local span
// stack and stamps a steady-clock start; destruction (or close()) pops it
// and records one TraceEvent — name, thread index, nesting depth, start
// offset, duration — into a bounded ring buffer owned by a TraceRecorder.
// The recorder also keeps all-time per-name aggregates (count/total/min/
// max), so "where did the run spend its time" is answerable even after the
// ring has wrapped, and exports the ring as Chrome trace_event JSON
// (obs/export.hpp) viewable in chrome://tracing or Perfetto.
//
// Distributed tracing: a TraceContext ({trace_id, span_id, sampled}) names
// one request's trace and the span that is currently its parent. Spans
// opened with an explicit context do NOT use the thread-local stack — the
// parent relationship comes from the context, so a request can be followed
// from a client thread, across the wire (net/frame.hpp carries the context
// in the v2 header), through the admission queue, and into whichever batch
// worker ran its inference, all under one trace_id. The recorder assembles
// per-trace views (trace(), recent_traces()) for the admin plane's /tracez.
//
// Determinism: spans read the clock and write to the recorder — nothing
// else. They never branch the instrumented code, so enabling or disabling
// tracing cannot change any computed result. Trace/span ids come from a
// process-global counter fed through a mixer — never from a util::Rng —
// so instrumentation cannot perturb any seeded stream.
//
// Unbalanced usage (a heap-held span destroyed out of LIFO order, or a
// span crossing a thread boundary) degrades gracefully: the stack entry is
// unlinked from wherever it sits and depths stay consistent for the
// remaining spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace gea::obs {

/// One request's distributed-trace identity: which trace it belongs to and
/// which span is the current parent. trace_id == 0 means "untraced"; a
/// default-constructed context is the explicit way to say so.
struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = no trace
  std::uint64_t span_id = 0;   // parent for spans opened under this context
  bool sampled = false;        // exemplar/export hint, carried end to end

  bool valid() const { return trace_id != 0; }
};

/// Fresh process-unique ids (mixed counter, never 0, never an Rng draw).
std::uint64_t new_trace_id();
std::uint64_t new_span_id();

/// Root context for a new trace: fresh trace_id, no parent span.
TraceContext start_trace(bool sampled = true);

/// One completed span. Times are microseconds relative to the recorder's
/// epoch (its construction, or the last clear()).
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;    // obs thread index, not the OS id
  std::uint32_t depth = 0;  // nesting depth at the time the span opened
  double start_us = 0.0;
  double dur_us = 0.0;
  // Distributed-trace identity; all zero for plain thread-local spans.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  bool sampled = false;
};

/// Bounded sink for completed spans plus all-time per-name aggregates.
class TraceRecorder {
 public:
  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder every TraceSpan uses by default.
  static TraceRecorder& global();

  /// Runtime switch (default on). Disabled spans cost one relaxed load.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void record(TraceEvent ev);

  /// Record a completed interval attributed to `ctx` without a live span:
  /// the queue-wait of a request measured between two events on different
  /// threads, for example. `start_us`/`dur_us` are in recorder-epoch
  /// microseconds (see now_us()). Returns the new span's id (0 when
  /// recording is disabled).
  std::uint64_t record_interval(const std::string& name,
                                const TraceContext& ctx, double start_us,
                                double dur_us);

  /// Ring contents, oldest first. At most capacity() events; older ones
  /// are overwritten (counted in dropped()).
  std::vector<TraceEvent> events() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const;

  /// Every ring event belonging to `trace_id`, ordered by start time —
  /// the per-trace assembly behind /tracez.
  std::vector<TraceEvent> trace(std::uint64_t trace_id) const;

  /// Distinct trace ids present in the ring, most recently finished first,
  /// capped at `limit`. Feed each to trace() to render it.
  std::vector<std::uint64_t> recent_traces(std::size_t limit = 32) const;

  struct SpanStats {
    std::uint64_t count = 0;
    double total_us = 0.0;
    double min_us = 0.0;
    double max_us = 0.0;
    double mean_us() const {
      return count == 0 ? 0.0 : total_us / static_cast<double>(count);
    }
  };

  /// All-time aggregates by span name (not bounded by the ring).
  std::map<std::string, SpanStats> aggregate() const;

  /// Drop ring + aggregates and restart the epoch.
  void clear();

  /// Microseconds since the recorder epoch, the unit of TraceEvent times.
  double now_us() const;

  static constexpr std::size_t kDefaultCapacity = 8192;

 private:
  const std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // ring_[next_] is the oldest once full
  std::uint64_t dropped_ = 0;
  std::map<std::string, SpanStats> aggregate_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span. Construct to open, destroy (or close()) to record. Also
/// usable as a plain stopwatch via elapsed_ms(), which keeps working after
/// close().
///
/// Two parenting modes:
///  - thread-local (the classic constructor): parent/depth come from the
///    calling thread's span stack;
///  - explicit context: the span's parent is ctx.span_id and the span
///    never touches the thread-local stack, so it is safe to open on one
///    thread and close on another. context() hands children (and the wire)
///    the continuation context.
class TraceSpan {
 public:
  explicit TraceSpan(std::string name,
                     TraceRecorder& recorder = TraceRecorder::global());
  /// Explicit-context span: parented under `ctx` (which may be invalid, in
  /// which case the span records as an untraced, stack-free event).
  TraceSpan(std::string name, const TraceContext& ctx,
            TraceRecorder& recorder = TraceRecorder::global());
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Finish the span now (idempotent). elapsed_ms() freezes at this point.
  void close();

  /// Wall time since construction, frozen by close().
  double elapsed_ms() const;

  /// Nesting depth this span opened at (0 = top level on its thread).
  std::uint32_t depth() const { return depth_; }

  /// Continuation context for children of this span: same trace, this
  /// span as parent. Invalid when the span has no trace identity.
  TraceContext context() const {
    return TraceContext{trace_id_, span_id_, sampled_};
  }

 private:
  std::string name_;
  TraceRecorder* recorder_;
  std::chrono::steady_clock::time_point start_;
  double start_us_ = 0.0;
  double frozen_ms_ = -1.0;
  std::uint32_t depth_ = 0;
  bool open_ = false;
  bool on_stack_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  bool sampled_ = false;
};

}  // namespace gea::obs
