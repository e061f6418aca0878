// Observability overhead bench, written to BENCH_obs.json.
//
// Two questions, answered in one binary via the runtime kill switches
// (obs::set_metrics_enabled / TraceRecorder::set_enabled):
//  1. What do the primitives cost? counter.inc / histogram.observe /
//     gauge.set / TraceSpan open+close, in ns/op, enabled and disabled.
//  2. What does instrumentation cost on the two hot paths it rides —
//     corpus featurization (per-sample histogram inside the parallel
//     featurize loop) and batched CNN inference (per-batch span + serve
//     stats)? Reported as percent overhead of enabled over disabled;
//     the acceptance bar is <= 5%.
//
// A third hot path, batched_inference_traced, is the full observability
// story at once: every request carries a distributed-trace context,
// queue/infer intervals are recorded against it, latency histograms take
// exemplars, and a live AdminServer is scraped over HTTP concurrently —
// the ≤5% bar applies to tracing *and* admin scraping together. The bench
// also reports admin_scrape_ms, the median GET /metrics latency against
// the in-process admin plane.
//
// Also writes TRACE_obs.json, a small Chrome trace_event document from the
// run's spans, as the artifact CI uploads. `--smoke` shrinks every loop for
// CI latency; numbers stay directionally meaningful.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dataset/corpus.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "net/socket.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admin.hpp"
#include "serve/stats.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void set_all_obs(bool enabled) {
  gea::obs::set_metrics_enabled(enabled);
  gea::obs::TraceRecorder::global().set_enabled(enabled);
}

// ---------------------------------------------------------------------------
// Primitives: ns per operation over a tight loop.

struct PrimitiveCost {
  std::string name;
  double enabled_ns = 0.0;
  double disabled_ns = 0.0;
};

template <typename Fn>
double ns_per_op(std::size_t iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  return ms_since(t0) * 1e6 / static_cast<double>(iters);
}

std::vector<PrimitiveCost> bench_primitives(std::size_t iters) {
  auto& reg = gea::obs::MetricsRegistry::global();
  auto& c = reg.counter("bench.obs.counter");
  auto& g = reg.gauge("bench.obs.gauge");
  auto& h = reg.histogram("bench.obs.histogram");

  std::vector<PrimitiveCost> out;
  auto run = [&](const std::string& name, auto&& fn) {
    PrimitiveCost pc;
    pc.name = name;
    set_all_obs(true);
    pc.enabled_ns = ns_per_op(iters, fn);
    set_all_obs(false);
    pc.disabled_ns = ns_per_op(iters, fn);
    set_all_obs(true);
    out.push_back(pc);
  };

  run("counter.inc", [&](std::size_t) { c.inc(); });
  run("gauge.set", [&](std::size_t i) { g.set(static_cast<double>(i)); });
  run("histogram.observe",
      [&](std::size_t i) { h.observe(static_cast<double>(i % 1000) * 0.01); });
  // Spans allocate a name string and take the recorder mutex; they belong
  // around regions (a pipeline stage, a batch), not in per-element loops —
  // the ns/op here shows why.
  run("tracespan.open_close",
      [&](std::size_t) { gea::obs::TraceSpan span("bench.obs.span"); });
  return out;
}

// ---------------------------------------------------------------------------
// Hot paths. Each is a callable that runs the workload once and returns its
// wall ms; measure_hot_path() interleaves enabled/disabled reps (so neither
// mode systematically inherits cold caches, lazy allocations, or frequency
// ramp) after one discarded warm-up, and keeps best-of-N per mode.

struct HotPath {
  double enabled_ms = 0.0;
  double disabled_ms = 0.0;
};

template <typename Fn>
HotPath measure_hot_path(int reps, Fn&& once) {
  set_all_obs(true);
  (void)once();  // warm-up, discarded
  HotPath hp;
  for (int rep = 0; rep < reps; ++rep) {
    set_all_obs(true);
    const double on = once();
    set_all_obs(false);
    const double off = once();
    hp.enabled_ms = rep == 0 ? on : std::min(hp.enabled_ms, on);
    hp.disabled_ms = rep == 0 ? off : std::min(hp.disabled_ms, off);
  }
  set_all_obs(true);
  return hp;
}

// Corpus featurization: the per-sample histogram inside the featurize loop.
// Wall time of the featurize phase only (report.featurize_wall_ms).
double featurize_once(std::size_t samples) {
  gea::dataset::CorpusConfig cfg;
  cfg.num_malicious = samples * 3 / 4;
  cfg.num_benign = samples - cfg.num_malicious;
  cfg.seed = 1234;
  cfg.threads = 1;  // serial: isolates per-sample cost from scheduling noise
  gea::dataset::SynthesisReport report;
  auto res = gea::dataset::Corpus::generate_checked(cfg, &report);
  if (!res.is_ok()) {
    std::cerr << "obs_overhead: " << res.status().to_string() << "\n";
    return 0.0;
  }
  return report.featurize_wall_ms;
}

// Batched inference: per-batch span + the ServerStats publication (what
// DetectionServer::process_batch does around each Model::infer). State
// lives outside the timed lambda so reps time only the batch loop. infer,
// unlike forward(x, false), never answers from the model's forward memo,
// so every batch runs the layers even though the input repeats.
struct InferBench {
  static constexpr std::size_t kBatch = 32;
  gea::ml::Model model;
  gea::ml::Tensor x{{kBatch, 1, 23}};
  gea::serve::ServerStats stats;

  explicit InferBench(gea::util::Rng& drng) : model(gea::ml::make_paper_cnn(23, 2, drng)) {
    gea::util::Rng wrng(9);
    model.init(wrng);
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = static_cast<float>(wrng.uniform());
    }
  }

  double once(std::size_t batches) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      gea::obs::TraceSpan span("serve.batch");
      const auto bt0 = Clock::now();
      auto logits = model.infer(x);
      const double ms = ms_since(bt0);
      stats.on_batch(kBatch);
      for (std::size_t i = 0; i < kBatch; ++i) {
        stats.on_completed(0.0, ms / kBatch, ms / kBatch);
      }
      if (logits.size() == 0) std::cerr << "obs_overhead: empty logits\n";
    }
    return ms_since(t0);
  }
};

// Traced batched inference: the same infer loop, but every request in
// the batch carries its own trace context, the server-side intervals are
// recorded against it, and the latency histograms take exemplar ids —
// exactly what DetectionServer::process_batch does for a traced request.
struct TracedInferBench : InferBench {
  using InferBench::InferBench;

  double once(std::size_t batches) {
    auto& rec = gea::obs::TraceRecorder::global();
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batches; ++b) {
      gea::obs::TraceContext batch_ctx = gea::obs::start_trace(true);
      gea::obs::TraceSpan span("serve.batch", batch_ctx);
      const auto bt0 = Clock::now();
      auto logits = model.infer(x);
      const double ms = ms_since(bt0);
      stats.on_batch(kBatch);
      const double per = ms / kBatch;
      for (std::size_t i = 0; i < kBatch; ++i) {
        gea::obs::TraceContext ctx = gea::obs::start_trace(true);
        const double now = rec.now_us();
        rec.record_interval("serve.queue_wait", ctx, now - per * 1000.0, 0.0);
        rec.record_interval("serve.infer", ctx, now - per * 1000.0,
                            per * 1000.0);
        stats.on_completed(0.0, per, per, ctx.trace_id);
      }
      if (logits.size() == 0) std::cerr << "obs_overhead: empty logits\n";
    }
    return ms_since(t0);
  }
};

/// Minimal blocking HTTP/1.0 GET against the in-process admin plane.
std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& target,
                                    int timeout_ms = 2000) {
  auto sock = gea::net::connect_to("127.0.0.1", port, timeout_ms);
  if (!sock.is_ok()) return std::nullopt;
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  std::size_t sent = 0;
  gea::util::Stopwatch sw;
  while (sent < req.size()) {
    auto io = sock.value().write_some(
        reinterpret_cast<const std::uint8_t*>(req.data()) + sent,
        req.size() - sent);
    if (!io.ok() || io.eof) return std::nullopt;
    sent += io.bytes;
    if (io.would_block) {
      if (sw.elapsed_ms() > timeout_ms) return std::nullopt;
      (void)sock.value().poll_one(POLLOUT, 10);
    }
  }
  std::string out;
  std::uint8_t buf[4096];
  for (;;) {
    auto io = sock.value().read_some(buf, sizeof buf);
    if (!io.ok()) return std::nullopt;
    if (io.bytes > 0) out.append(reinterpret_cast<char*>(buf), io.bytes);
    if (io.eof) break;
    if (io.would_block) {
      if (sw.elapsed_ms() > timeout_ms) return std::nullopt;
      (void)sock.value().poll_one(POLLIN, 10);
    }
  }
  return out;
}

double overhead_pct(double enabled, double disabled) {
  return disabled > 0.0 ? (enabled - disabled) / disabled * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const std::size_t prim_iters = smoke ? 200'000 : 5'000'000;
  const std::size_t samples = smoke ? 80 : 400;
  const std::size_t batches = smoke ? 100 : 1000;
  const int reps = smoke ? 3 : 5;

  const auto prims = bench_primitives(prim_iters);
  for (const auto& p : prims) {
    std::cout << p.name << ": enabled " << p.enabled_ns << " ns/op, disabled "
              << p.disabled_ns << " ns/op\n";
  }

  const HotPath feat =
      measure_hot_path(reps, [&] { return featurize_once(samples); });
  gea::util::Rng drng(8);
  InferBench infer(drng);
  const HotPath inf =
      measure_hot_path(reps, [&] { return infer.once(batches); });

  // Traced variant with a live admin plane being scraped throughout: the
  // scraper thread runs across enabled AND disabled reps (it is constant
  // background either way), so the overhead isolates the instrumentation.
  gea::serve::AdminServer admin_server;
  if (auto st = admin_server.start(); !st.is_ok()) {
    std::cerr << "obs_overhead: admin: " << st.to_string() << "\n";
    return 1;
  }
  std::atomic<bool> scraping{true};
  std::vector<double> scrape_ms;
  std::thread scraper([&] {
    const std::uint16_t port = admin_server.port();
    while (scraping.load(std::memory_order_relaxed)) {
      gea::util::Stopwatch sw;
      if (http_get(port, "/metrics")) scrape_ms.push_back(sw.elapsed_ms());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  TracedInferBench traced(drng);
  const HotPath traced_hp =
      measure_hot_path(reps, [&] { return traced.once(batches); });
  scraping.store(false);
  scraper.join();
  admin_server.stop();
  const double admin_scrape_ms =
      scrape_ms.empty() ? 0.0 : gea::util::median(scrape_ms);

  const double feat_pct = overhead_pct(feat.enabled_ms, feat.disabled_ms);
  const double infer_pct = overhead_pct(inf.enabled_ms, inf.disabled_ms);
  const double traced_pct =
      overhead_pct(traced_hp.enabled_ms, traced_hp.disabled_ms);
  std::cout << "featurize: enabled " << feat.enabled_ms << " ms, disabled "
            << feat.disabled_ms << " ms (" << feat_pct << "% overhead)\n";
  std::cout << "batched inference: enabled " << inf.enabled_ms
            << " ms, disabled " << inf.disabled_ms << " ms (" << infer_pct
            << "% overhead)\n";
  std::cout << "batched inference traced+scraped: enabled "
            << traced_hp.enabled_ms << " ms, disabled "
            << traced_hp.disabled_ms << " ms (" << traced_pct
            << "% overhead)\n";
  std::cout << "admin /metrics scrape: " << scrape_ms.size()
            << " scrapes, median " << admin_scrape_ms << " ms\n";

  std::ofstream out("BENCH_obs.json");
  out << "{\n  \"benchmark\": \"obs_overhead\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"primitives_ns_per_op\": [\n";
  for (std::size_t i = 0; i < prims.size(); ++i) {
    out << "    {\"name\": \"" << prims[i].name << "\", \"enabled\": "
        << prims[i].enabled_ns << ", \"disabled\": " << prims[i].disabled_ns
        << "}" << (i + 1 < prims.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"hot_paths\": [\n"
      << "    {\"name\": \"corpus_featurize\", \"enabled_ms\": "
      << feat.enabled_ms << ", \"disabled_ms\": " << feat.disabled_ms
      << ", \"overhead_pct\": " << feat_pct << "},\n"
      << "    {\"name\": \"batched_inference\", \"enabled_ms\": "
      << inf.enabled_ms << ", \"disabled_ms\": " << inf.disabled_ms
      << ", \"overhead_pct\": " << infer_pct << "},\n"
      << "    {\"name\": \"batched_inference_traced\", \"enabled_ms\": "
      << traced_hp.enabled_ms << ", \"disabled_ms\": "
      << traced_hp.disabled_ms << ", \"overhead_pct\": " << traced_pct
      << "}\n"
      << "  ],\n  \"admin_scrapes\": " << scrape_ms.size()
      << ",\n  \"admin_scrape_ms\": " << admin_scrape_ms
      << ",\n  \"overhead_budget_pct\": 5.0\n}\n";
  std::cout << "wrote BENCH_obs.json\n";

  if (!gea::obs::write_chrome_trace("TRACE_obs.json")) {
    std::cerr << "obs_overhead: failed to write TRACE_obs.json\n";
    return 1;
  }
  std::cout << "wrote TRACE_obs.json\n";
  return 0;
}
