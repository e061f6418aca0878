#include "serve/slo.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/metrics.hpp"

namespace gea::serve {

namespace {

obs::Counter& breach_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("slo.breach");
  return c;
}

obs::Gauge& degraded_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("slo.degraded");
  return g;
}

obs::Gauge& burn_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge("slo.burn_rate");
  return g;
}

}  // namespace

SloMonitor::SloMonitor(SloConfig config)
    : config_(config),
      slice_s_(config.window_s / static_cast<double>(
                                    std::max<std::size_t>(1, config.buckets))),
      bounds_(obs::default_latency_buckets_ms()),
      origin_(std::chrono::steady_clock::now()),
      ring_(std::max<std::size_t>(1, config.buckets)) {
  for (auto& s : ring_) s.latency.assign(bounds_.size() + 1, 0);
}

double SloMonitor::now_s_unlocked() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

SloMonitor::Slice& SloMonitor::slice_for(double now_s) {
  const auto tick =
      static_cast<std::uint64_t>(std::max(0.0, now_s) / slice_s_);
  const std::uint64_t epoch = tick / ring_.size();
  Slice& s = ring_[tick % ring_.size()];
  if (s.epoch != epoch) {
    // The ring lapped this slice since it was last written: it belongs to
    // an expired window position. Reset in place (no allocation).
    s.epoch = epoch;
    s.requests = 0;
    s.errors = 0;
    std::fill(s.latency.begin(), s.latency.end(), 0);
  }
  return s;
}

void SloMonitor::record(double latency_ms, bool ok) {
  record(latency_ms, ok, now_s_unlocked());
}

void SloMonitor::record(double latency_ms, bool ok, double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  Slice& s = slice_for(now_s);
  ++s.requests;
  if (!ok) ++s.errors;
  const auto b = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), latency_ms) -
      bounds_.begin());
  ++s.latency[b];
  evaluate(now_s);
}

bool SloMonitor::degraded() { return degraded(now_s_unlocked()); }

bool SloMonitor::degraded(double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluate(now_s).degraded;
}

SloSnapshot SloMonitor::snapshot() { return snapshot(now_s_unlocked()); }

SloSnapshot SloMonitor::snapshot(double now_s) {
  std::lock_guard<std::mutex> lock(mu_);
  return evaluate(now_s);
}

SloSnapshot SloMonitor::evaluate(double now_s) {
  // Merge the slices that are still inside the window ending at now_s.
  const auto tick =
      static_cast<std::uint64_t>(std::max(0.0, now_s) / slice_s_);
  SloSnapshot snap;
  std::vector<std::uint64_t> merged(bounds_.size() + 1, 0);
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    // Slice at ring index i is live iff its tick is in (tick - N, tick].
    const std::uint64_t n = ring_.size();
    // Reconstruct the slice's tick from its epoch + index.
    const Slice& s = ring_[i];
    if (s.epoch == ~0ull) continue;
    const std::uint64_t slice_tick = s.epoch * n + i;
    if (slice_tick > tick || tick - slice_tick >= n) continue;
    snap.requests += s.requests;
    snap.errors += s.errors;
    for (std::size_t b = 0; b < merged.size(); ++b) merged[b] += s.latency[b];
  }

  if (snap.requests > 0) {
    snap.error_fraction =
        static_cast<double>(snap.errors) / static_cast<double>(snap.requests);
    snap.p99_ms = obs::HistogramSnapshot{bounds_, std::move(merged), {},
                                         snap.requests, 0.0}
                      .quantile(0.99);
  }
  snap.burn_rate = config_.max_error_fraction > 0.0
                       ? snap.error_fraction / config_.max_error_fraction
                       : (snap.errors > 0 ? 1e9 : 0.0);

  if (snap.requests >= config_.min_requests) {
    const bool latency_breach = snap.p99_ms > config_.p99_target_ms;
    if (!degraded_ &&
        (snap.burn_rate >= config_.burn_degrade || latency_breach)) {
      degraded_ = true;
      ++breaches_;
      breach_counter().inc();
    } else if (degraded_ && snap.burn_rate <= config_.burn_recover &&
               !latency_breach) {
      degraded_ = false;
    }
  } else if (degraded_ && snap.requests == 0) {
    // The window drained completely — nothing left to judge; recover.
    degraded_ = false;
  }

  snap.degraded = degraded_;
  snap.breaches = breaches_;
  degraded_gauge().set(degraded_ ? 1.0 : 0.0);
  burn_gauge().set(snap.burn_rate);
  return snap;
}

}  // namespace gea::serve
