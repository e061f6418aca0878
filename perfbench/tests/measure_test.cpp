// Unit tests of the benchmark's own measurement logic (src/measure.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "measure.hpp"

namespace perfbench {
namespace {

TEST(Percentiles, InterpolateAndCarryTheSampleCount) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  const auto d = summarize(v);
  EXPECT_EQ(d.n, 100u);
  EXPECT_DOUBLE_EQ(d.p50, 50.5);
  EXPECT_DOUBLE_EQ(d.p99, 99.01);
}

TEST(Percentiles, EmptyAndSingleSample) {
  EXPECT_EQ(summarize({}).n, 0u);
  EXPECT_DOUBLE_EQ(summarize({}).p50, 0.0);
  const auto one = summarize({7.0});
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p99, 7.0);
}

TEST(Percentiles, TailNeedsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(tail_percentile_for(10000), 99.9);
  EXPECT_DOUBLE_EQ(tail_percentile_for(1000), 99.0);
  EXPECT_DOUBLE_EQ(tail_percentile_for(999), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile_for(200), 95.0);
  EXPECT_DOUBLE_EQ(tail_percentile_for(100), 90.0);
  EXPECT_DOUBLE_EQ(tail_percentile_for(99), 50.0);
  std::vector<double> v(1000, 1.0);
  EXPECT_DOUBLE_EQ(summarize(v).tail_p, 99.0);
}

TEST(Percentiles, WindowedTakesTheMedianOfEachWindowsPercentiles) {
  // Ten one-second windows of 200 samples at 1 ms; every window also holds
  // four 40 ms samples (a recurring stall, 2%), window 3 a burst of slow ones.
  std::vector<Timed> s;
  for (int w = 0; w < 10; ++w) {
    for (int i = 0; i < 200; ++i) {
      const double v = i < 4 ? 40.0 : (w == 3 && i < 60 ? 90.0 : 1.0);
      s.push_back({w + i / 200.0, v});
    }
  }
  s.push_back({10.5, 500.0});  // a ragged last window is left out
  const auto d = windowed(s, 1.0);
  EXPECT_EQ(d.windows, 10u);
  EXPECT_EQ(d.n, 2000u);
  EXPECT_DOUBLE_EQ(d.p50, 1.0);
  // The recurring stall sets every window's p99, so it sets the result;
  // the one slow window does not.
  EXPECT_DOUBLE_EQ(d.p99, 40.0);
  EXPECT_DOUBLE_EQ(windowed({}, 1.0).p99, 0.0);
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  const auto t0 = Clock::now();
  const OpenLoopSchedule s{t0, 500.0};
  EXPECT_EQ(s.due(0), t0);
  EXPECT_NEAR(std::chrono::duration<double>(s.due(500) - t0).count(), 1.0, 1e-9);
  EXPECT_NEAR(std::chrono::duration<double>(s.due(1) - t0).count(), 0.002, 1e-9);
  EXPECT_EQ(s.count(2.0), 1000u);
  EXPECT_EQ(s.count(0.0019), 0u);
}

TEST(OpenLoop, LatenessIsHowFarBehindTheSenderRan) {
  const auto due = Clock::now();
  EXPECT_DOUBLE_EQ(OpenLoopSchedule::lateness_ms(due, due), 0.0);
  EXPECT_NEAR(OpenLoopSchedule::lateness_ms(due, due + std::chrono::microseconds(1500)),
              1.5, 1e-9);
  // Sending early is not negative lateness.
  EXPECT_DOUBLE_EQ(OpenLoopSchedule::lateness_ms(due, due - std::chrono::milliseconds(3)),
                   0.0);
}

std::vector<BacklogSample> ramp(double start, double slope, double noise) {
  std::vector<BacklogSample> s;
  for (int i = 0; i < 100; ++i) {
    const double t = i * 0.005;
    s.push_back({t, start + slope * t + ((i % 2) ? noise : -noise)});
  }
  return s;
}

TEST(Backlog, FlatBacklogDoesNotGrow) {
  // 1000 req/s at ~5 ms latency holds ~5 in flight, with jitter.
  EXPECT_FALSE(backlog_grows(ramp(5.0, 0.0, 3.0), 1000.0, 0.5));
}

TEST(Backlog, OverloadGrows) {
  // Offered 1000/s against a 600/s server: 400 more in flight per second.
  EXPECT_TRUE(backlog_grows(ramp(5.0, 400.0, 3.0), 1000.0, 0.5));
}

TEST(Backlog, SmallDriftIsTolerated) {
  // 20/s drift over 0.5 s = 10 requests, under 5% of the 500 offered.
  EXPECT_FALSE(backlog_grows(ramp(5.0, 20.0, 0.0), 1000.0, 0.5));
  EXPECT_FALSE(backlog_grows({{0.0, 1.0}, {0.1, 50.0}}, 1000.0, 0.5));
}

RungResult rung(double rate, double p99, std::size_t failed = 0,
                bool backlog = false) {
  RungResult r;
  r.rate = rate;
  r.window_s = 1.0;
  r.sent = static_cast<std::size_t>(rate);
  r.ok = r.sent - failed;
  r.failed = failed;
  r.achieved_rps = rate * 0.99;
  r.p99_ms = p99;
  r.backlog_grew = backlog;
  return r;
}

TEST(Ladder, FailuresAndBacklogFailARung) {
  EXPECT_FALSE(rung_passes(rung(100, 2, 1), 25.0));
  EXPECT_FALSE(rung_passes(rung(100, 2, 0, true), 25.0));
  EXPECT_FALSE(rung_passes(rung(100, 30), 25.0));
  EXPECT_TRUE(rung_passes(rung(100, 25.0), 25.0));
  EXPECT_FALSE(rung_passes(RungResult{}, 25.0));
}

TEST(Ladder, GeometricRungs) {
  const auto l = geometric_ladder(500, 1.1, 4);
  ASSERT_EQ(l.size(), 4u);
  EXPECT_DOUBLE_EQ(l[0], 500);
  EXPECT_DOUBLE_EQ(l[1], 550);
  EXPECT_DOUBLE_EQ(l[3], 666);  // 665.5 rounded
}

/// Runs the search against a system that passes every rate <= capacity.
int search(const std::vector<double>& ladder, double capacity, int* probes) {
  LadderSearch s(ladder.size());
  *probes = 0;
  for (int r; (r = s.next()) >= 0; ++*probes) s.record(r, ladder[r] <= capacity);
  return s.highest_pass();
}

TEST(Ladder, BisectionFindsTheHighestPassingRung) {
  const auto ladder = geometric_ladder(500, 1.05, 62);
  int probes = 0;
  for (double cap : {600.0, 2000.0, 4321.0, 9000.0}) {
    const int hp = search(ladder, cap, &probes);
    ASSERT_GE(hp, 0);
    EXPECT_LE(ladder[hp], cap);
    if (hp + 1 < static_cast<int>(ladder.size())) EXPECT_GT(ladder[hp + 1], cap);
    EXPECT_LE(probes, 6);  // ceil(log2(63))
  }
}

TEST(Ladder, BisectionEdges) {
  const auto ladder = geometric_ladder(500, 1.05, 62);
  int probes = 0;
  EXPECT_EQ(search(ladder, 100.0, &probes), -1);  // nothing passes
  EXPECT_EQ(search(ladder, 1e9, &probes), 61);    // everything passes
  EXPECT_EQ(search({1000.0}, 2000.0, &probes), 0);
  EXPECT_EQ(probes, 1);
}

/// Linear two-class model: logits = (w0 . x, w1 . x).
class Linear : public gea::ml::DifferentiableClassifier {
 public:
  std::size_t input_dim() const override { return 2; }
  std::size_t num_classes() const override { return 2; }
  std::vector<double> logits(const std::vector<double>& x) override {
    return {x[0] - x[1], x[1] - x[0]};
  }
  std::vector<double> grad_logit(const std::vector<double>&,
                                 std::size_t k) override {
    return k == 0 ? std::vector<double>{1, -1} : std::vector<double>{-1, 1};
  }
  std::unique_ptr<DifferentiableClassifier> clone() const override {
    return std::make_unique<Linear>();
  }
};

TEST(CountingClassifier, CountsForwardAndGradientCalls) {
  CountingClassifier c(std::make_unique<Linear>());
  const std::vector<double> x = {0.7, 0.2};
  EXPECT_EQ(c.predict(x), 0u);                  // one logits call
  (void)c.grad_logit(x, 1);                     // one gradient
  (void)c.grad_weighted(x, {0.5, 0.5});         // one gradient
  (void)c.grad_loss(x, 0);                      // logits + grad_weighted
  EXPECT_EQ(c.counts().logits, 2u);
  EXPECT_EQ(c.counts().grads, 3u);
  EXPECT_DOUBLE_EQ(c.counts().grads_us, 0.0);   // untimed
  c.reset();
  EXPECT_EQ(c.counts().logits, 0u);
  EXPECT_EQ(c.counts().grads, 0u);
}

TEST(CountingClassifier, ForwardsResultsUnchanged) {
  Linear plain;
  CountingClassifier c(std::make_unique<Linear>(), /*timed=*/true);
  const std::vector<double> x = {0.1, 0.9};
  EXPECT_EQ(c.logits(x), plain.logits(x));
  EXPECT_EQ(c.grad_logit(x, 0), plain.grad_logit(x, 0));
  EXPECT_EQ(c.grad_weighted(x, {1.0, 2.0}), plain.grad_weighted(x, {1.0, 2.0}));
  EXPECT_GE(c.counts().logits_us, 0.0);
}

TEST(CountingClassifier, ClonesCountIndependently) {
  CountingClassifier c(std::make_unique<Linear>());
  auto twin = c.clone();
  ASSERT_NE(twin, nullptr);
  (void)twin->logits({0.0, 1.0});
  EXPECT_EQ(c.counts().logits, 0u);
  EXPECT_EQ(static_cast<CountingClassifier&>(*twin).counts().logits, 1u);
}

TEST(Spans, LogRecordsAndMerges) {
  const auto epoch = Clock::now();
  SpanLog log(epoch, 3);
  log.add("layer.a", 7, epoch + std::chrono::microseconds(10),
          epoch + std::chrono::microseconds(25));
  ASSERT_EQ(log.spans().size(), 1u);
  EXPECT_EQ(log.spans()[0].name, "layer.a");
  EXPECT_EQ(log.spans()[0].op, 7u);
  EXPECT_EQ(log.spans()[0].thread, 3u);
  EXPECT_NEAR(log.spans()[0].start_us, 10.0, 1e-9);
  EXPECT_NEAR(log.spans()[0].dur_us, 15.0, 1e-9);
  SpanLog other(epoch, 4);
  other.add("layer.b", 8, epoch, epoch + std::chrono::microseconds(5));
  log.append(other);
  EXPECT_EQ(log.durations_us("layer.a"), std::vector<double>{15.0});
  EXPECT_EQ(log.durations_us("layer.b").size(), 1u);
  EXPECT_TRUE(log.durations_us("layer.c").empty());
}

TEST(KernelCost, ComputedFromShapes) {
  // conv1 of the paper CNN: 46 filters x 23 positions x 1 channel x 3 taps.
  const auto c = conv1d_cost(1, 1, 23, 46, 3, true, false);
  EXPECT_DOUBLE_EQ(c.flops, 2.0 * 46 * 23 * 3);
  EXPECT_DOUBLE_EQ(c.bytes, 4.0 * (23 + 46 * 3 + 46 + 46 * 23));
  const auto valid = conv1d_cost(1, 46, 23, 46, 3, false, false);
  EXPECT_DOUBLE_EQ(valid.flops, 2.0 * 46 * 21 * 46 * 3);
  const auto d = dense_cost(16, 368, 512, false);
  EXPECT_DOUBLE_EQ(d.flops, 2.0 * 16 * 368 * 512);
  EXPECT_DOUBLE_EQ(dense_cost(1, 512, 2, true).flops, 2.0 * dense_cost(1, 512, 2, false).flops);
}

}  // namespace
}  // namespace perfbench
