#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "temp_path.hpp"

namespace {

using namespace gea::util;

// ---------------------------------------------------------------------------
// Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanRoughlyHalf) {
  Rng rng(11);
  double s = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) s += rng.uniform();
  EXPECT_NEAR(s / n, 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, UniformIntSinglePoint) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, UniformIntThrowsOnInvertedRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(13);
  const int n = 100000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += rng.normal(5.0, 2.0);
  EXPECT_NEAR(s / n, 5.0, 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng rng(3);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ChoiceThrowsOnEmpty) {
  Rng rng(1);
  std::vector<int> empty;
  EXPECT_THROW(rng.choice(empty), std::invalid_argument);
}

TEST(Rng, ChoiceCoversAll) {
  Rng rng(1);
  const std::vector<int> v = {10, 20, 30};
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.choice(v));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(99);
  Rng child = a.split();
  // Child differs from a fresh parent continuation.
  EXPECT_NE(child.next_u64(), a.next_u64());
}

TEST(Rng, PositiveGeometricAlwaysAtLeastOne) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.positive_geometric(3.0), 1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.positive_geometric(0.5), 1);
}

// ---------------------------------------------------------------------------
// stats

TEST(Stats, EmptyInputsAreZero) {
  const std::vector<double> v;
  EXPECT_EQ(mean(v), 0.0);
  EXPECT_EQ(stddev(v), 0.0);
  EXPECT_EQ(median(v), 0.0);
  EXPECT_EQ(min_of(v), 0.0);
  EXPECT_EQ(max_of(v), 0.0);
  const auto s = summary5(v);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.stddev, 0.0);
}

TEST(Stats, SingleElement) {
  const std::vector<double> v = {4.5};
  EXPECT_EQ(mean(v), 4.5);
  EXPECT_EQ(median(v), 4.5);
  EXPECT_EQ(stddev(v), 0.0);
  EXPECT_EQ(min_of(v), 4.5);
  EXPECT_EQ(max_of(v), 4.5);
}

TEST(Stats, KnownValues) {
  const std::vector<double> v = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(v), 5.0);
  EXPECT_DOUBLE_EQ(stddev(v), 2.0);  // classic population-stddev example
  EXPECT_DOUBLE_EQ(median(v), 4.5);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, Summary5Ordering) {
  const std::vector<double> v = {1.0, 9.0, 5.0, 3.0};
  const auto s = summary5(v);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 4.5);
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
  EXPECT_LE(s.min, s.mean);
  EXPECT_LE(s.mean, s.max);
}

TEST(Stats, PercentileEndpoints) {
  const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Stats, PercentileThrowsOutOfRange) {
  const std::vector<double> v = {1.0};
  EXPECT_THROW(percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW(percentile(v, 101.0), std::invalid_argument);
}

// Property sweep: summary5 invariants on random data.
class StatsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StatsPropertyTest, Summary5Invariants) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 200));
  std::vector<double> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = rng.uniform(-100.0, 100.0);
  const auto s = summary5(v);
  EXPECT_LE(s.min, s.median + 1e-12);
  EXPECT_LE(s.median, s.max + 1e-12);
  EXPECT_LE(s.min, s.mean + 1e-12);
  EXPECT_LE(s.mean, s.max + 1e-12);
  EXPECT_GE(s.stddev, 0.0);
  EXPECT_LE(s.stddev, (s.max - s.min) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sweep, StatsPropertyTest, ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// CSV

TEST(Csv, EscapePlain) { EXPECT_EQ(CsvWriter::escape("abc"), "abc"); }

TEST(Csv, EscapeComma) { EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\""); }

TEST(Csv, EscapeQuote) { EXPECT_EQ(CsvWriter::escape("a\"b"), "\"a\"\"b\""); }

TEST(Csv, ParseSimple) {
  const auto rows = CsvReader::parse("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(Csv, ParseQuotedWithCommaAndNewline) {
  const auto rows = CsvReader::parse("\"a,b\",\"x\ny\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a,b");
  EXPECT_EQ(rows[0][1], "x\ny");
}

TEST(Csv, ParseEscapedQuotes) {
  const auto rows = CsvReader::parse("\"he said \"\"hi\"\"\"\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "he said \"hi\"");
}

TEST(Csv, ParseToleratesCrlfAndMissingTrailingNewline) {
  const auto rows = CsvReader::parse("a,b\r\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, RoundTripFile) {
  const std::filesystem::path path = gea::test::unique_temp_path("csv.csv");
  {
    CsvWriter w(path.string());
    w.write_row(std::vector<std::string>{"x", "y,z", "q\"r"});
    w.write_row(std::vector<double>{1.5, -2.25}, 3);
  }
  const auto rows = CsvReader::read_file(path.string());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "y,z");
  EXPECT_EQ(rows[0][2], "q\"r");
  EXPECT_EQ(rows[1][0], "1.500");
  std::filesystem::remove(path);
}

TEST(Csv, WriterThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent_dir_xyz/file.csv"), std::runtime_error);
}

TEST(Csv, ReaderThrowsOnMissingFile) {
  EXPECT_THROW(CsvReader::read_file("/nonexistent_file_xyz.csv"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// AsciiTable

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable t({"Name", "Value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(AsciiTable, ShortRowsArePadded) {
  AsciiTable t({"A", "B"});
  t.add_row({"only"});
  EXPECT_NE(t.to_string().find("only"), std::string::npos);
}

TEST(AsciiTable, Formatters) {
  EXPECT_EQ(AsciiTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::fmt_int(42), "42");
  EXPECT_EQ(AsciiTable::fmt_pct(0.9548, 2), "95.48%");
}

// ---------------------------------------------------------------------------
// Stopwatch

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_GT(sw.elapsed_us(), 0.0);
  EXPECT_GE(sw.elapsed_ms(), 0.0);
}

TEST(Stopwatch, ResetRestarts) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
  const double before = sw.elapsed_us();
  sw.reset();
  EXPECT_LT(sw.elapsed_us(), before + 1e5);
}

// ---------------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorder, EmptySummarizesToZeros) {
  LatencyRecorder rec;
  EXPECT_TRUE(rec.empty());
  const auto s = rec.summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

TEST(LatencyRecorder, SummarizesPercentiles) {
  LatencyRecorder rec;
  for (int i = 1; i <= 100; ++i) rec.record(static_cast<double>(i));
  EXPECT_EQ(rec.count(), 100u);
  const auto s = rec.summarize();
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  // Shared util::percentile math (linear interpolation).
  EXPECT_DOUBLE_EQ(s.p50, rec.at_percentile(50.0));
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  EXPECT_GT(s.p95, s.p50);
  EXPECT_GE(s.p99, s.p95);
  const auto text = s.to_string();
  EXPECT_NE(text.find("p50"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

TEST(LatencyRecorder, ClearResets) {
  LatencyRecorder rec;
  rec.record(5.0);
  rec.clear();
  EXPECT_TRUE(rec.empty());
  EXPECT_EQ(rec.summarize().count, 0u);
}

TEST(LatencyRecorder, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec;
  rec.record(7.5);
  const auto s = rec.summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 7.5);
  EXPECT_DOUBLE_EQ(s.p50, 7.5);
  EXPECT_DOUBLE_EQ(s.p95, 7.5);
  EXPECT_DOUBLE_EQ(s.p99, 7.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(rec.at_percentile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(rec.at_percentile(100.0), 7.5);
}

TEST(LatencyRecorder, AllDuplicatesCollapseThePercentileCurve) {
  LatencyRecorder rec;
  for (int i = 0; i < 50; ++i) rec.record(3.0);
  const auto s = rec.summarize();
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.p50, 3.0);
  EXPECT_DOUBLE_EQ(s.p95, 3.0);
  EXPECT_DOUBLE_EQ(s.p99, 3.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

TEST(LatencyRecorder, EmptyAtPercentileIsZeroNotAThrow) {
  LatencyRecorder rec;
  EXPECT_DOUBLE_EQ(rec.at_percentile(50.0), 0.0);
  // The empty guard fires before the range check, so even a bad p is inert
  // on an empty recorder — mirroring percentile()'s empty-first ordering.
  EXPECT_DOUBLE_EQ(rec.at_percentile(-1.0), 0.0);
}

TEST(Stats, PercentileSingleElementIgnoresP) {
  const std::vector<double> v = {42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 42.0);
}

TEST(Stats, PercentileWithDuplicatesInterpolatesFlat) {
  const std::vector<double> v = {5.0, 5.0, 5.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 5.0);   // rank 1.5 between two 5s
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 10.0);
}

}  // namespace
