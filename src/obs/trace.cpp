#include "obs/trace.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace gea::obs {

namespace {

// Per-thread stack of open spans, for depth assignment and graceful
// unbalanced teardown. Entries are raw pointers owned by the spans.
thread_local std::vector<TraceSpan*> t_span_stack;

/// splitmix64 finalizer: turns a sequential counter into ids that look
/// uncorrelated (so ids from different subsystems interleave harmlessly in
/// exports) while staying deterministic in process order.
std::uint64_t mix_id(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return x == 0 ? 1 : x;  // 0 is the "no trace / no span" sentinel
}

std::atomic<std::uint64_t> g_next_id{1};

}  // namespace

std::uint64_t new_trace_id() {
  return mix_id(g_next_id.fetch_add(1, std::memory_order_relaxed));
}

std::uint64_t new_span_id() {
  return mix_id(g_next_id.fetch_add(1, std::memory_order_relaxed));
}

TraceContext start_trace(bool sampled) {
  return TraceContext{new_trace_id(), 0, sampled};
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder recorder;
  return recorder;
}

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRecorder::record(TraceEvent ev) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto& agg = aggregate_[ev.name];
  if (agg.count == 0 || ev.dur_us < agg.min_us) agg.min_us = ev.dur_us;
  if (agg.count == 0 || ev.dur_us > agg.max_us) agg.max_us = ev.dur_us;
  ++agg.count;
  agg.total_us += ev.dur_us;

  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[next_] = std::move(ev);
  next_ = (next_ + 1) % capacity_;
  ++dropped_;
}

std::uint64_t TraceRecorder::record_interval(const std::string& name,
                                             const TraceContext& ctx,
                                             double start_us, double dur_us) {
  if (!enabled()) return 0;
  TraceEvent ev;
  ev.name = name;
  ev.tid = detail::thread_index();
  ev.start_us = start_us;
  ev.dur_us = dur_us;
  ev.trace_id = ctx.trace_id;
  ev.span_id = new_span_id();
  ev.parent_span_id = ctx.span_id;
  ev.sampled = ctx.sampled;
  const std::uint64_t id = ev.span_id;
  record(std::move(ev));
  return id;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest first: [next_, end) then [0, next_) once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::trace(std::uint64_t trace_id) const {
  std::vector<TraceEvent> out;
  if (trace_id == 0) return out;
  for (auto& ev : events()) {
    if (ev.trace_id == trace_id) out.push_back(std::move(ev));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

std::vector<std::uint64_t> TraceRecorder::recent_traces(
    std::size_t limit) const {
  // Ring order is completion order; walk newest-first and keep the first
  // sighting of each trace id.
  const auto evs = events();
  std::vector<std::uint64_t> out;
  for (auto it = evs.rbegin(); it != evs.rend() && out.size() < limit; ++it) {
    if (it->trace_id == 0) continue;
    if (std::find(out.begin(), out.end(), it->trace_id) == out.end()) {
      out.push_back(it->trace_id);
    }
  }
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::map<std::string, TraceRecorder::SpanStats> TraceRecorder::aggregate()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return aggregate_;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
  aggregate_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

TraceSpan::TraceSpan(std::string name, TraceRecorder& recorder)
    : name_(std::move(name)),
      recorder_(&recorder),
      start_(std::chrono::steady_clock::now()) {
  start_us_ = recorder_->now_us();
  depth_ = static_cast<std::uint32_t>(t_span_stack.size());
  t_span_stack.push_back(this);
  open_ = true;
  on_stack_ = true;
}

TraceSpan::TraceSpan(std::string name, const TraceContext& ctx,
                     TraceRecorder& recorder)
    : name_(std::move(name)),
      recorder_(&recorder),
      start_(std::chrono::steady_clock::now()) {
  start_us_ = recorder_->now_us();
  // Explicit-context spans stay off the thread-local stack: their parent
  // is the context, and they may be closed on a different thread.
  open_ = true;
  if (ctx.valid()) {
    trace_id_ = ctx.trace_id;
    parent_span_id_ = ctx.span_id;
    sampled_ = ctx.sampled;
    span_id_ = new_span_id();
  }
}

TraceSpan::~TraceSpan() { close(); }

void TraceSpan::close() {
  if (frozen_ms_ < 0.0) {
    frozen_ms_ = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  }
  if (!open_) return;
  open_ = false;
  if (on_stack_) {
    // LIFO close is the common case; an unbalanced close (or a span whose
    // thread-local stack belongs to another thread) just unlinks itself so
    // later closes still find their own entries.
    auto it = std::find(t_span_stack.rbegin(), t_span_stack.rend(), this);
    if (it != t_span_stack.rend()) {
      t_span_stack.erase(std::next(it).base());
    }
  }
  TraceEvent ev;
  ev.name = name_;
  ev.tid = detail::thread_index();
  ev.depth = depth_;
  ev.start_us = start_us_;
  ev.dur_us = frozen_ms_ * 1000.0;
  ev.trace_id = trace_id_;
  ev.span_id = span_id_;
  ev.parent_span_id = parent_span_id_;
  ev.sampled = sampled_;
  recorder_->record(std::move(ev));
}

double TraceSpan::elapsed_ms() const {
  if (frozen_ms_ >= 0.0) return frozen_ms_;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

}  // namespace gea::obs
