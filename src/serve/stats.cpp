#include "serve/stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <vector>

namespace gea::serve {

std::string StatsSnapshot::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "serve: " << completed << " served / " << submitted << " submitted in "
     << elapsed_s << "s (" << qps << " qps)\n";
  os << "  rejected: " << rejected_full << " queue-full, " << rejected_no_model
     << " no-model, " << rejected_invalid << " invalid, " << expired
     << " deadline-expired, " << nonfinite_logits
     << " non-finite logits; queue depth " << queue_depth << "\n";
  os << "  batches: " << batches << " (mean size " << mean_batch() << ")";
  if (!batch_sizes.empty()) {
    os << " histogram {";
    bool first = true;
    for (const auto& [size, count] : batch_sizes) {
      if (!first) os << ", ";
      os << size << ":" << count;
      first = false;
    }
    os << "}";
  }
  os << "\n";
  os << "  queue " << queue_ms.to_string() << "\n";
  os << "  infer " << infer_ms.to_string() << "\n";
  os << "  total " << total_ms.to_string();
  return os.str();
}

namespace {

util::LatencySummary summarize(const obs::Histogram& h) {
  const auto s = h.snapshot();
  return {s.count,         s.mean(),         s.quantile(0.5),
          s.quantile(0.95), s.quantile(0.99), s.quantile(1.0)};
}

std::vector<double> batch_bounds(std::size_t max_batch) {
  std::vector<double> bounds(std::max<std::size_t>(max_batch, 1));
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(i + 1);
  }
  return bounds;
}

}  // namespace

ServerStats::ServerStats(std::size_t max_batch)
    : submitted_(registry_.counter("serve.submitted_total")),
      accepted_(registry_.counter("serve.accepted_total")),
      rejected_full_(registry_.counter("serve.rejected_full_total")),
      rejected_invalid_(registry_.counter("serve.rejected_invalid_total")),
      rejected_no_model_(registry_.counter("serve.rejected_no_model_total")),
      expired_(registry_.counter("serve.expired_total")),
      nonfinite_logits_(registry_.counter("serve.nonfinite_logits")),
      completed_(registry_.counter("serve.completed_total")),
      batches_(registry_.counter("serve.batches_total")),
      batch_size_(
          registry_.histogram("serve.batch_size", batch_bounds(max_batch))),
      queue_ms_(registry_.histogram("serve.queue_ms")),
      infer_ms_(registry_.histogram("serve.infer_ms")),
      total_ms_(registry_.histogram("serve.total_ms")) {}

StatsSnapshot ServerStats::snapshot(std::size_t queue_depth) const {
  StatsSnapshot snap;
  snap.submitted = submitted_.value();
  snap.accepted = accepted_.value();
  snap.rejected_full = rejected_full_.value();
  snap.rejected_invalid = rejected_invalid_.value();
  snap.rejected_no_model = rejected_no_model_.value();
  snap.expired = expired_.value();
  snap.nonfinite_logits = nonfinite_logits_.value();
  snap.completed = completed_.value();
  snap.batches = batches_.value();
  // One integer bucket per size: bucket i counts batches of size bounds[i].
  const auto sizes = batch_size_.snapshot();
  for (std::size_t i = 0; i < sizes.bounds.size(); ++i) {
    if (sizes.buckets[i] == 0) continue;
    snap.batch_sizes[static_cast<std::size_t>(sizes.bounds[i])] =
        sizes.buckets[i];
  }
  snap.queue_ms = summarize(queue_ms_);
  snap.infer_ms = summarize(infer_ms_);
  snap.total_ms = summarize(total_ms_);
  snap.elapsed_s = started_.elapsed_ms() / 1000.0;
  snap.qps = snap.elapsed_s > 0.0
                 ? static_cast<double>(snap.completed) / snap.elapsed_s
                 : 0.0;
  snap.queue_depth = queue_depth;
  return snap;
}

}  // namespace gea::serve
