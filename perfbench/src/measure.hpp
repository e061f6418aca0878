// Measurement logic of the benchmark, kept apart from the workloads so it can
// be unit-tested (tests/measure_test.cpp) and so that nothing here depends on
// the program's own statistics helpers: a change to the program must not
// change how it is measured.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ml/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Percentiles -----------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `v`, which is sorted in
/// place. Empty input gives 0.
inline double percentile_sorted(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  if (v.size() == 1) return v[0];
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// A timing distribution: median, p99 and the sample count behind them.
/// `tail_p` is the highest of {99.9, 99, 95, 90, 50} that still has at least
/// ten samples beyond it, so a reader can tell whether p99 is backed by data.
struct Dist {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_p = 0.0;
};

inline double tail_percentile_for(std::size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0}) {
    if ((1.0 - p / 100.0) * static_cast<double>(n) >= 10.0 - 1e-9) return p;
  }
  return 50.0;
}

inline Dist summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) return d;
  std::sort(v.begin(), v.end());
  d.p50 = percentile_sorted(v, 50.0);
  d.p99 = percentile_sorted(v, 99.0);
  d.tail_p = tail_percentile_for(v.size());
  return d;
}

inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, 50.0);
}

/// A sample stamped with when it was taken, in seconds into its phase.
struct Timed {
  double t = 0.0;
  double value = 0.0;
};

/// p50 and p99 of a phase as the median, over its consecutive `window_s`
/// windows, of each window's own p50 and p99 (windows with fewer than `min_n`
/// samples, such as a ragged last one, are left out). Every window sees the
/// same workload, so a cost that recurs in each window (a once-a-second
/// scrape in one-second windows) moves the result in full, while a host stall
/// that hits a few windows moves only those. `n` counts the samples used.
struct WindowedDist {
  std::size_t windows = 0;
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline WindowedDist windowed(const std::vector<Timed>& samples, double window_s,
                             std::size_t min_n = 100) {
  std::vector<std::vector<double>> win;
  for (const auto& s : samples) {
    if (s.t < 0.0 || window_s <= 0.0) continue;
    const auto w = static_cast<std::size_t>(s.t / window_s);
    if (w >= win.size()) win.resize(w + 1);
    win[w].push_back(s.value);
  }
  WindowedDist d;
  std::vector<double> p50s, p99s;
  for (auto& v : win) {
    if (v.size() < min_n) continue;
    std::sort(v.begin(), v.end());
    p50s.push_back(percentile_sorted(v, 50.0));
    p99s.push_back(percentile_sorted(v, 99.0));
    d.n += v.size();
  }
  d.windows = p50s.size();
  if (d.windows > 0) {
    d.p50 = median_of(std::move(p50s));
    d.p99 = median_of(std::move(p99s));
  }
  return d;
}

// --- Open loop -------------------------------------------------------------

/// Fixed-rate send schedule: request k of a phase is due at start + k / rate.
/// Latency is timed from the due time, so a stalled sender charges its stall
/// to every request it delays; lateness is how far behind the sender ran.
struct OpenLoopSchedule {
  Clock::time_point start;
  double rate = 1.0;  // requests per second, > 0

  Clock::time_point due(std::size_t k) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(k) / rate));
  }
  /// Number of requests the phase sends in `window_s` seconds.
  std::size_t count(double window_s) const {
    return static_cast<std::size_t>(std::floor(window_s * rate));
  }
  static double lateness_ms(Clock::time_point due, Clock::time_point sent) {
    const double ms =
        std::chrono::duration<double, std::milli>(sent - due).count();
    return ms > 0.0 ? ms : 0.0;
  }
};

// --- Backlog and the rate ladder --------------------------------------------

/// One observation of requests in flight (sent, not yet answered) at time t
/// seconds into a rung.
struct BacklogSample {
  double t = 0.0;
  double outstanding = 0.0;
};

/// True when requests in flight grow over the send window: the least-squares
/// slope, extrapolated over the window, exceeds `tolerance_frac` of the
/// requests offered in it (and at least `min_growth` requests). A system
/// below capacity holds a flat backlog of about rate x latency.
inline bool backlog_grows(const std::vector<BacklogSample>& s, double rate,
                          double window_s, double tolerance_frac = 0.05,
                          double min_growth = 8.0) {
  if (s.size() < 3 || window_s <= 0.0) return false;
  double mt = 0.0, mo = 0.0;
  for (const auto& x : s) {
    mt += x.t;
    mo += x.outstanding;
  }
  mt /= static_cast<double>(s.size());
  mo /= static_cast<double>(s.size());
  double num = 0.0, den = 0.0;
  for (const auto& x : s) {
    num += (x.t - mt) * (x.outstanding - mo);
    den += (x.t - mt) * (x.t - mt);
  }
  if (den <= 0.0) return false;
  const double growth = num / den * window_s;
  return growth > std::max(min_growth, tolerance_frac * rate * window_s);
}

/// What one rung of the ladder observed.
struct RungResult {
  double rate = 0.0;          // offered requests per second
  double window_s = 0.0;      // send window
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;     // error responses, sheds, timeouts
  double achieved_rps = 0.0;  // ok / window
  double p99_ms = 0.0;        // latency from due time
  bool backlog_grew = false;
};

/// A rung meets the objective when nothing failed, p99 is within the limit
/// and the backlog stayed flat.
inline bool rung_passes(const RungResult& r, double p99_limit_ms) {
  return r.sent > 0 && r.failed == 0 && r.ok == r.sent &&
         r.p99_ms <= p99_limit_ms && !r.backlog_grew;
}

/// Fixed ladder of rates: `n` rungs from `first`, each `ratio` times the
/// one below.
inline std::vector<double> geometric_ladder(double first, double ratio,
                                            std::size_t n) {
  std::vector<double> rates;
  double r = first;
  for (std::size_t i = 0; i < n; ++i, r *= ratio) rates.push_back(std::round(r));
  return rates;
}

/// Bisection over a fixed, increasing ladder, on the premise that a rate
/// that meets the objective implies every lower rate does. next() names the
/// rung to run, or -1 once the highest passing rung is known (-1 = none).
class LadderSearch {
 public:
  explicit LadderSearch(std::size_t rungs) : hi_(static_cast<int>(rungs)) {}
  int next() const { return hi_ - lo_ > 1 ? lo_ + (hi_ - lo_) / 2 : -1; }
  void record(int rung, bool passed) {
    if (passed) {
      lo_ = rung;
    } else {
      hi_ = rung;
    }
  }
  int highest_pass() const { return lo_; }

 private:
  int lo_ = -1;
  int hi_;
};

// --- Counting classifier ------------------------------------------------------

/// Exact call counts around a DifferentiableClassifier: how many forward
/// (logits) and gradient (grad_logit / grad_weighted) calls an attack made.
/// With `timed` set it also sums the time spent inside those calls, which is
/// the model's share of a crafting op.
class CountingClassifier : public gea::ml::DifferentiableClassifier {
 public:
  struct Counts {
    std::uint64_t logits = 0;
    std::uint64_t grads = 0;
    double logits_us = 0.0;
    double grads_us = 0.0;
  };

  explicit CountingClassifier(
      std::unique_ptr<gea::ml::DifferentiableClassifier> inner,
      bool timed = false)
      : inner_(std::move(inner)), timed_(timed) {}

  std::size_t input_dim() const override { return inner_->input_dim(); }
  std::size_t num_classes() const override { return inner_->num_classes(); }

  std::vector<double> logits(const std::vector<double>& x) override {
    ++counts_.logits;
    if (!timed_) return inner_->logits(x);
    const auto t0 = Clock::now();
    auto z = inner_->logits(x);
    counts_.logits_us += seconds_since(t0) * 1e6;
    return z;
  }
  std::vector<double> grad_logit(const std::vector<double>& x,
                                 std::size_t k) override {
    ++counts_.grads;
    if (!timed_) return inner_->grad_logit(x, k);
    const auto t0 = Clock::now();
    auto g = inner_->grad_logit(x, k);
    counts_.grads_us += seconds_since(t0) * 1e6;
    return g;
  }
  std::vector<double> grad_weighted(
      const std::vector<double>& x,
      const std::vector<double>& weights) override {
    ++counts_.grads;
    if (!timed_) return inner_->grad_weighted(x, weights);
    const auto t0 = Clock::now();
    auto g = inner_->grad_weighted(x, weights);
    counts_.grads_us += seconds_since(t0) * 1e6;
    return g;
  }
  std::unique_ptr<gea::ml::DifferentiableClassifier> clone() const override {
    auto inner = inner_->clone();
    if (inner == nullptr) return nullptr;
    return std::make_unique<CountingClassifier>(std::move(inner), timed_);
  }

  const Counts& counts() const { return counts_; }
  void reset() { counts_ = {}; }

 private:
  std::unique_ptr<gea::ml::DifferentiableClassifier> inner_;
  bool timed_;
  Counts counts_;
};

// --- Spans ---------------------------------------------------------------

/// One span recorded by the benchmark around a call into a layer. Times are
/// microseconds since the log's epoch; `op` groups the spans of one request
/// or crafted example (0 = not tied to one).
struct Span {
  std::string name;
  std::uint64_t op = 0;
  std::uint32_t thread = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// In-memory span store, one per thread (no locking); logs are merged and
/// written out when the run ends. Untraced runs pass a null log.
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t thread)
      : epoch_(epoch), thread_(thread) {}

  void add(const char* name, std::uint64_t op, Clock::time_point t0,
           Clock::time_point t1) {
    spans_.push_back(Span{
        name, op, thread_,
        std::chrono::duration<double, std::micro>(t0 - epoch_).count(),
        std::chrono::duration<double, std::micro>(t1 - t0).count()});
  }
  const std::vector<Span>& spans() const { return spans_; }
  void append(const SpanLog& other) {
    spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  }
  /// Durations (µs) of every span named `name`.
  std::vector<double> durations_us(const std::string& name) const {
    std::vector<double> out;
    for (const auto& s : spans_) {
      if (s.name == name) out.push_back(s.dur_us);
    }
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
};

// --- Computed kernel cost ----------------------------------------------------

/// FLOPs and bytes of one kernel call, computed from tensor shapes (not
/// measured): 2 FLOPs per multiply-add; bytes = fp32 inputs, weights and
/// outputs touched once.
struct KernelCost {
  double flops = 0.0;
  double bytes = 0.0;
};

inline KernelCost conv1d_cost(std::size_t n, std::size_t in_ch,
                              std::size_t l_in, std::size_t out_ch,
                              std::size_t k, bool same, bool backward) {
  const std::size_t l_out = same ? l_in : l_in - k + 1;
  const double macs = static_cast<double>(n * out_ch * l_out * in_ch * k);
  const double x = static_cast<double>(n * in_ch * l_in);
  const double w = static_cast<double>(out_ch * in_ch * k + out_ch);
  const double y = static_cast<double>(n * out_ch * l_out);
  // Backward: weight gradient and input gradient, each one GEMM of the same
  // size as forward; reads x, w, grad_out and writes grad_in, gw, gb.
  if (backward) return {4.0 * macs, 4.0 * (2.0 * x + 2.0 * w + y)};
  return {2.0 * macs, 4.0 * (x + w + y)};
}

inline KernelCost dense_cost(std::size_t n, std::size_t in, std::size_t out,
                             bool backward) {
  const double macs = static_cast<double>(n * in * out);
  const double x = static_cast<double>(n * in);
  const double w = static_cast<double>(in * out + out);
  const double y = static_cast<double>(n * out);
  if (backward) return {4.0 * macs, 4.0 * (2.0 * x + 2.0 * w + y)};
  return {2.0 * macs, 4.0 * (x + w + y)};
}

}  // namespace perfbench
