// Observability layer: registry handles, striped counters/histograms under
// concurrency, exporters, trace spans (nesting, unbalanced, cross-thread),
// the bounded ring, and the runtime kill switch.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gea::obs {
namespace {

// Each test works against its own registry/recorder so global-state tests
// cannot interfere with instrumentation from other suites in the binary.

TEST(Metrics, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, HandlesAreStableAcrossLookups) {
  MetricsRegistry reg;
  Counter& a = reg.counter("same");
  Counter& b = reg.counter("same");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = reg.gauge("g");
  Gauge& g2 = reg.gauge("g");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = reg.histogram("h");
  Histogram& h2 = reg.histogram("h", {1.0, 2.0});  // first registration wins
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h1.bounds(), default_latency_buckets_ms());
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Metrics, HistogramBucketsAndMean) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(5.0);    // bucket 1 (<= 10)
  h.observe(50.0);   // bucket 2 (<= 100)
  h.observe(500.0);  // overflow
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.buckets[1], 1u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 1u);
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.sum, 555.5);
  EXPECT_DOUBLE_EQ(snap.mean(), 555.5 / 4.0);
}

TEST(Metrics, HistogramQuantileEdges) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 10; ++i) h.observe(1.5);
  const auto snap = h.snapshot();
  // All mass in (1, 2]: any interior quantile lands inside that bucket.
  EXPECT_GT(snap.quantile(0.5), 1.0);
  EXPECT_LE(snap.quantile(0.5), 2.0);
  // Overflow-bucket quantiles report the last finite bound.
  h.observe(100.0);
  EXPECT_DOUBLE_EQ(h.snapshot().quantile(0.9999), 2.0);
}

TEST(Metrics, HistogramRejectsUnsortedBounds) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("bad", {3.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h", {10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * kPerThread);
}

TEST(Metrics, SnapshotAndReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  reg.gauge("g").set(7.0);
  reg.histogram("h").observe(1.0);
  c.inc(3);
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 7.0);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  reg.reset();
  snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  c.inc();  // cached handle survives reset
  EXPECT_EQ(c.value(), 1u);
}

TEST(Metrics, RuntimeKillSwitchStopsWrites) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  set_metrics_enabled(false);
  c.inc();
  reg.gauge("g").set(9.0);
  reg.histogram("h").observe(1.0);
  set_metrics_enabled(true);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(Export, PrometheusRendersAllKindsWithSanitizedNames) {
  MetricsRegistry reg;
  reg.counter("pipeline.runs_total").inc(2);
  reg.gauge("train.last-loss").set(0.25);
  Histogram& h = reg.histogram("serve.queue_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(5.0);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("pipeline_runs_total 2"), std::string::npos);
  EXPECT_NE(text.find("train_last_loss 0.25"), std::string::npos);
  // Cumulative buckets: le="10" holds both observations; +Inf == count.
  EXPECT_NE(text.find("serve_queue_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_ms_bucket{le=\"10\"} 2"), std::string::npos);
  EXPECT_NE(text.find("serve_queue_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("serve_queue_ms_count 2"), std::string::npos);
}

TEST(Export, SummaryMentionsEveryMetric) {
  MetricsRegistry reg;
  reg.counter("a.total").inc();
  reg.gauge("b.value").set(1.0);
  reg.histogram("c.ms").observe(2.0);
  const std::string text = summary(reg.snapshot());
  EXPECT_NE(text.find("a.total"), std::string::npos);
  EXPECT_NE(text.find("b.value"), std::string::npos);
  EXPECT_NE(text.find("c.ms"), std::string::npos);
}

TEST(Trace, SpanRecordsEventWithDuration) {
  TraceRecorder rec(16);
  { TraceSpan span("work", rec); }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_GE(events[0].dur_us, 0.0);
  EXPECT_EQ(events[0].depth, 0u);
}

TEST(Trace, NestedSpansGetIncreasingDepths) {
  TraceRecorder rec(16);
  {
    TraceSpan outer("outer", rec);
    {
      TraceSpan mid("mid", rec);
      TraceSpan inner("inner", rec);
      EXPECT_EQ(outer.depth(), 0u);
      EXPECT_EQ(mid.depth(), 1u);
      EXPECT_EQ(inner.depth(), 2u);
    }
    TraceSpan sibling("sibling", rec);
    EXPECT_EQ(sibling.depth(), 1u);  // stack unwound back to outer
  }
  const auto events = rec.events();  // recorded at close: inner first
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[3].name, "outer");
}

TEST(Trace, UnbalancedCloseKeepsRemainingDepthsConsistent) {
  TraceRecorder rec(16);
  auto outer = std::make_unique<TraceSpan>("outer", rec);
  TraceSpan inner("inner", rec);
  outer.reset();  // destroyed out of LIFO order
  TraceSpan next("next", rec);
  // `inner` is still open, so the new span nests under it.
  EXPECT_EQ(next.depth(), 1u);
}

TEST(Trace, SpanDestroyedOnAnotherThreadDoesNotCorruptStack) {
  TraceRecorder rec(16);
  auto span = std::make_unique<TraceSpan>("crossing", rec);
  std::thread t([s = std::move(span)]() mutable { s.reset(); });
  t.join();
  // The close ran on the other thread, whose stack never held "crossing";
  // this thread's stack entry is left in place (never dereferenced), so a
  // new span simply nests under it — no crash, depths stay monotone.
  TraceSpan here("here", rec);
  EXPECT_EQ(here.depth(), 1u);
  // The event itself was still recorded, tagged with the closing thread.
  ASSERT_EQ(rec.events().size(), 1u);
  EXPECT_EQ(rec.events()[0].name, "crossing");
}

TEST(Trace, RingIsBoundedAndCountsDrops) {
  TraceRecorder rec(4);
  for (int i = 0; i < 10; ++i) {
    // Two-step concat: GCC 12's -Wrestrict misfires on `"s" + to_string(i)`.
    std::string name("s");
    name += std::to_string(i);
    TraceSpan span(name, rec);
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(events.front().name, "s6");  // oldest surviving
  EXPECT_EQ(events.back().name, "s9");
}

TEST(Trace, AggregatesSurviveRingWrap) {
  TraceRecorder rec(2);
  for (int i = 0; i < 5; ++i) {
    TraceSpan span("hot", rec);
  }
  const auto agg = rec.aggregate();
  ASSERT_EQ(agg.count("hot"), 1u);
  EXPECT_EQ(agg.at("hot").count, 5u);
  EXPECT_GE(agg.at("hot").max_us, agg.at("hot").min_us);
}

TEST(Trace, CloseIsIdempotentAndFreezesElapsed) {
  TraceRecorder rec(4);
  TraceSpan span("once", rec);
  span.close();
  const double frozen = span.elapsed_ms();
  span.close();
  EXPECT_DOUBLE_EQ(span.elapsed_ms(), frozen);
  EXPECT_EQ(rec.events().size(), 1u);
}

TEST(Trace, DisabledRecorderRecordsNothing) {
  TraceRecorder rec(4);
  rec.set_enabled(false);
  { TraceSpan span("ghost", rec); }
  EXPECT_TRUE(rec.events().empty());
  rec.set_enabled(true);
}

TEST(Trace, ConcurrentSpansCarryDistinctThreadIndices) {
  TraceRecorder rec(64);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 3; ++i) {
        TraceSpan span("mt", rec);
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto events = rec.events();
  ASSERT_EQ(events.size(), static_cast<std::size_t>(kThreads) * 3);
  std::set<std::uint32_t> tids;
  for (const auto& ev : events) tids.insert(ev.tid);
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

TEST(Export, ChromeTraceJsonIsWellFormedAndNestsStages) {
  TraceRecorder rec(16);
  {
    TraceSpan outer("pipeline.run", rec);
    TraceSpan inner("pipeline.train", rec);
  }
  const std::string json = chrome_trace_json(rec);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pipeline.run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"pipeline.train\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":1"), std::string::npos);  // nested stage
}

TEST(Export, SpanSummaryListsNamesWithCounts) {
  TraceRecorder rec(16);
  { TraceSpan a("alpha", rec); }
  { TraceSpan b("beta", rec); }
  const std::string text = span_summary(rec);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("beta"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Prometheus format conformance

std::size_t count_occurrences(const std::string& text, const std::string& pat) {
  std::size_t n = 0;
  for (auto pos = text.find(pat); pos != std::string::npos;
       pos = text.find(pat, pos + pat.size())) {
    ++n;
  }
  return n;
}

TEST(Export, PrometheusNameSanitization) {
  EXPECT_EQ(prometheus_sanitize_name("serve.queue_ms"), "serve_queue_ms");
  EXPECT_EQ(prometheus_sanitize_name("train.last-loss"), "train_last_loss");
  EXPECT_EQ(prometheus_sanitize_name("a:b"), "a:b");  // colons are legal
  EXPECT_EQ(prometheus_sanitize_name("9lives"), "_9lives");  // no leading digit
  EXPECT_EQ(prometheus_sanitize_name(""), "_");
  EXPECT_EQ(prometheus_sanitize_name("sp ace/slash"), "sp_ace_slash");
}

TEST(Export, PrometheusLabelEscaping) {
  // The exposition format's three escapes in label values: backslash,
  // double quote, line feed.
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(prometheus_escape_label("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Export, PrometheusHelpAndTypeExactlyOncePerFamily) {
  MetricsRegistry reg;
  reg.counter("requests.total").inc();
  reg.gauge("queue.depth").set(3.0);
  reg.histogram("latency.ms", {1.0}).observe(0.5);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_EQ(count_occurrences(text, "# TYPE requests_total "), 1u);
  EXPECT_EQ(count_occurrences(text, "# HELP requests_total "), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE queue_depth "), 1u);
  EXPECT_EQ(count_occurrences(text, "# TYPE latency_ms "), 1u);
  EXPECT_EQ(count_occurrences(text, "# HELP latency_ms "), 1u);
}

TEST(Export, PrometheusCollidingFamiliesEmitOnlyOnce) {
  // "serve.queue" and "serve/queue" both sanitize to serve_queue: the
  // exporter must not emit two # TYPE lines for one family — the first
  // registrant wins, the collider is dropped.
  MetricsRegistry reg;
  reg.counter("serve.queue").inc(1);
  reg.counter("serve/queue").inc(5);
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_EQ(count_occurrences(text, "# TYPE serve_queue "), 1u);
  EXPECT_EQ(count_occurrences(text, "\nserve_queue "), 1u);
}

TEST(Export, PrometheusHelpEscapesMetricOriginalName) {
  // The HELP text carries the unsanitized name; backslashes and newlines
  // in it must be escaped per the exposition format.
  MetricsRegistry reg;
  reg.counter("weird\\name").inc();
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("weird\\\\name"), std::string::npos);
  EXPECT_EQ(text.find("weird\\name\n"), std::string::npos);
}

TEST(Export, TraceIdHexIsFixedWidth) {
  EXPECT_EQ(trace_id_hex(0), "0000000000000000");
  EXPECT_EQ(trace_id_hex(0xabcULL), "0000000000000abc");
  EXPECT_EQ(trace_id_hex(0xDEADBEEFDEADBEEFULL), "deadbeefdeadbeef");
}

TEST(Export, HistogramExemplarRendersWithTraceId) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("req.ms", {1.0, 10.0});
  h.observe(0.5, /*trace_id=*/0x1234);
  h.observe(5.0, /*trace_id=*/0x5678);
  h.observe(7.0, /*trace_id=*/0x9abc);  // slower: wins bucket le=10
  const std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("req_ms_bucket{le=\"1\"} 1 # {trace_id=\"" +
                      trace_id_hex(0x1234) + "\"} 0.5"),
            std::string::npos);
  EXPECT_NE(text.find("req_ms_bucket{le=\"10\"} 3 # {trace_id=\"" +
                      trace_id_hex(0x9abc) + "\"} 7"),
            std::string::npos);
}

TEST(Metrics, ExemplarKeepsSlowestPerBucketAndSurvivesSnapshot) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {10.0});
  h.observe(5.0, 111);
  h.observe(2.0, 222);  // faster: must not displace 111
  h.observe(9.0, 333);  // slower: replaces 111
  h.observe(1.0);       // untraced: never recorded as exemplar
  const auto snap = h.snapshot();
  ASSERT_EQ(snap.exemplars.size(), 2u);
  EXPECT_EQ(snap.exemplars[0].trace_id, 333u);
  EXPECT_DOUBLE_EQ(snap.exemplars[0].value, 9.0);
  EXPECT_EQ(snap.exemplars[1].trace_id, 0u);  // overflow bucket untouched
}

// ---------------------------------------------------------------------------
// Distributed tracing: explicit contexts, per-trace assembly, /tracez

TEST(Trace, StartTraceYieldsDistinctValidContexts) {
  const TraceContext a = start_trace();
  const TraceContext b = start_trace();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_EQ(a.span_id, 0u);  // root: no parent
  EXPECT_FALSE(TraceContext{}.valid());
}

TEST(Trace, ExplicitContextSpanCarriesTraceIdentity) {
  TraceRecorder rec(16);
  const TraceContext root = start_trace(/*sampled=*/true);
  std::uint64_t child_span = 0;
  {
    TraceSpan span("client.send", root, rec);
    child_span = span.context().span_id;
    EXPECT_EQ(span.context().trace_id, root.trace_id);
    EXPECT_NE(child_span, 0u);
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id, root.trace_id);
  EXPECT_EQ(events[0].span_id, child_span);
  EXPECT_EQ(events[0].parent_span_id, root.span_id);
  EXPECT_TRUE(events[0].sampled);
}

TEST(Trace, ExplicitContextSpanSkipsThreadLocalStack) {
  TraceRecorder rec(16);
  // Baseline depth first: earlier tests may have deliberately left a stale
  // entry on this thread's span stack (the cross-thread close case).
  std::uint32_t base_depth = 0;
  { TraceSpan probe("probe", rec); base_depth = probe.depth(); }
  const TraceContext root = start_trace();
  TraceSpan ctx_span("detached", root, rec);
  // A plain span opened while the explicit-context span is live must not
  // nest under it — the context span never touched this thread's stack.
  TraceSpan plain("plain", rec);
  EXPECT_EQ(plain.depth(), base_depth);
}

TEST(Trace, RecordIntervalAndPerTraceAssembly) {
  TraceRecorder rec(32);
  const TraceContext t1 = start_trace();
  const TraceContext t2 = start_trace();
  const double now = rec.now_us();
  rec.record_interval("queue_wait", t1, now - 500.0, 200.0);
  rec.record_interval("infer", t1, now - 300.0, 300.0);
  rec.record_interval("other", t2, now - 100.0, 50.0);
  const auto spans = rec.trace(t1.trace_id);
  ASSERT_EQ(spans.size(), 2u);
  // Ordered by start time, all belonging to t1.
  EXPECT_EQ(spans[0].name, "queue_wait");
  EXPECT_EQ(spans[1].name, "infer");
  for (const auto& ev : spans) EXPECT_EQ(ev.trace_id, t1.trace_id);
  EXPECT_TRUE(rec.trace(0xdead).empty());
}

TEST(Trace, RecentTracesNewestFirstAndDeduplicated) {
  TraceRecorder rec(32);
  const TraceContext a = start_trace();
  const TraceContext b = start_trace();
  const double now = rec.now_us();
  rec.record_interval("s1", a, now - 400.0, 10.0);
  rec.record_interval("s2", b, now - 200.0, 10.0);
  rec.record_interval("s3", a, now - 100.0, 10.0);  // a finishes last
  const auto recent = rec.recent_traces(8);
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0], a.trace_id);
  EXPECT_EQ(recent[1], b.trace_id);
  EXPECT_EQ(rec.recent_traces(1).size(), 1u);
}

TEST(Export, TracezTextRendersTraceAndSpans) {
  TraceRecorder rec(32);
  const TraceContext root = start_trace(/*sampled=*/true);
  const double now = rec.now_us();
  rec.record_interval("serve.queue_wait", root, now - 900.0, 400.0);
  rec.record_interval("serve.infer", root, now - 500.0, 500.0);
  const std::string text = tracez_text(rec, 8);
  EXPECT_NE(text.find(trace_id_hex(root.trace_id)), std::string::npos);
  EXPECT_NE(text.find("serve.queue_wait"), std::string::npos);
  EXPECT_NE(text.find("serve.infer"), std::string::npos);
  EXPECT_NE(text.find("sampled"), std::string::npos);
}

TEST(Export, ChromeTraceJsonCarriesTraceIds) {
  TraceRecorder rec(16);
  const TraceContext root = start_trace();
  { TraceSpan span("traced", root, rec); }
  const std::string json = chrome_trace_json(rec);
  EXPECT_NE(json.find("\"trace_id\":\"" + trace_id_hex(root.trace_id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\""), std::string::npos);
}

}  // namespace
}  // namespace gea::obs
