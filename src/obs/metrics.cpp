#include "obs/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace gea::obs {

namespace detail {

std::atomic<bool> g_metrics_enabled{true};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace detail

void set_metrics_enabled(bool enabled) {
  detail::g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

bool metrics_enabled() { return detail::enabled(); }

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.v.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (auto& cell : cells_) cell.v.store(0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t prev = cumulative;
    cumulative += buckets[i];
    if (static_cast<double>(cumulative) < target) continue;
    // Interpolate within [lo, hi); the overflow bucket reports its lower
    // bound (there is no finite upper edge to interpolate toward).
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    if (i >= bounds.size()) return lo;
    const double hi = bounds[i];
    if (buckets[i] == 0) return hi;
    const double frac =
        (target - static_cast<double>(prev)) / static_cast<double>(buckets[i]);
    return lo + frac * (hi - lo);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_buckets_ms();
  if (!std::is_sorted(bounds_.begin(), bounds_.end())) {
    throw std::invalid_argument("Histogram: bucket bounds must be ascending");
  }
  for (auto& shard : shards_) {
    shard = std::make_unique<Shard>(bounds_.size() + 1);
  }
  exemplars_.assign(bounds_.size() + 1, {});
}

void Histogram::record_exemplar(double v, std::uint64_t trace_id) {
  const std::size_t b = bucket_for(v);
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  auto& slot = exemplars_[b];
  // Slowest traced observation wins its bucket, so the export names the
  // worst trace each latency decade has seen since the last reset.
  if (slot.trace_id == 0 || v >= slot.value) {
    slot.value = v;
    slot.trace_id = trace_id;
  }
}

std::size_t Histogram::bucket_for(double v) const {
  // First bound >= v; past-the-end lands in the overflow slot.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.buckets.assign(bounds_.size() + 1, 0);
  for (const auto& shard : shards_) {
    for (std::size_t i = 0; i < snap.buckets.size(); ++i) {
      snap.buckets[i] += shard->buckets[i].v.load(std::memory_order_relaxed);
    }
    snap.count += shard->count.load(std::memory_order_relaxed);
    snap.sum += shard->sum.load(std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(exemplar_mu_);
    snap.exemplars = exemplars_;
  }
  return snap;
}

void Histogram::reset() {
  for (auto& shard : shards_) {
    for (auto& b : shard->buckets) b.v.store(0, std::memory_order_relaxed);
    shard->count.store(0, std::memory_order_relaxed);
    shard->sum.store(0.0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(exemplar_mu_);
  std::fill(exemplars_.begin(), exemplars_.end(),
            HistogramSnapshot::Exemplar{});
}

const std::vector<double>& default_latency_buckets_ms() {
  static const std::vector<double> buckets = {
      0.01, 0.025, 0.05, 0.1,  0.25, 0.5,  1.0,    2.5,    5.0,    10.0,
      25.0, 50.0,  100., 250., 500., 1000., 2500.0, 5000.0, 10000.0};
  return buckets;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  counters.insert(other.counters.begin(), other.counters.end());
  gauges.insert(other.gauges.begin(), other.gauges.end());
  histograms.insert(other.histograms.begin(), other.histograms.end());
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::unique_ptr<Counter>(new Counter());
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::unique_ptr<Gauge>(new Gauge());
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::unique_ptr<Histogram>(new Histogram(std::move(bounds)));
  }
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    snap.histograms[name] = h->snapshot();
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace gea::obs
