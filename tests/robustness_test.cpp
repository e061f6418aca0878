// End-to-end robustness suite (ctest label: robustness).
//
// Drives every registered fault point through the hardened pipeline and
// asserts the quarantine contract: lenient runs finish on the surviving
// samples with an exact PipelineReport, strict runs surface a Status error
// naming the fault, and nothing ever crashes.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attacks/fgsm.hpp"
#include "attacks/harness.hpp"
#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "core/pipeline.hpp"
#include "dataset/corpus.hpp"
#include "dataset/io.hpp"
#include "dataset/sample.hpp"
#include "features/features.hpp"
#include "graph/digraph.hpp"
#include "features/validator.hpp"
#include "gea/embed.hpp"
#include "gea/harness.hpp"
#include "ml/zoo.hpp"
#include "util/faultinject.hpp"
#include "util/log.hpp"
#include "util/status.hpp"
#include "temp_path.hpp"

namespace gea {
namespace {

// -Wextra flags designated initializers that omit trailing fields
// (CsvReadOptions grew a schema member); spell the options out instead.
dataset::CsvReadOptions csv_opts(bool strict) {
  dataset::CsvReadOptions o;
  o.strict = strict;
  return o;
}

using util::ErrorCode;
using util::FaultInjector;
using util::ScopedFault;
using util::Status;

std::string temp_path(const std::string& name) {
  return test::unique_temp_path("robustness_" + name);
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Small-but-trainable pipeline config so every test stays fast.
core::PipelineConfig tiny_config() {
  core::PipelineConfig cfg;
  cfg.corpus.num_malicious = 48;
  cfg.corpus.num_benign = 24;
  cfg.corpus.seed = 99;
  cfg.train.epochs = 4;
  cfg.train.batch_size = 16;
  cfg.detector = core::DetectorKind::kMlpBaseline;
  return cfg;
}

class RobustnessTest : public testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().reset(); }
  void TearDown() override { FaultInjector::instance().reset(); }
};

// ---------------------------------------------------------------------------
// Status / Result

TEST_F(RobustnessTest, StatusCarriesCodeMessageAndContextChain) {
  Status ok;
  EXPECT_TRUE(ok.is_ok());
  EXPECT_EQ(ok.to_string(), "[OK]");

  Status st = Status::error(ErrorCode::kCorruptData, "zero-node CFG");
  st.with_context("sample 7");
  st.with_context("synthesis");
  st.with_context("pipeline");
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruptData);
  EXPECT_EQ(st.to_string(),
            "[CORRUPT_DATA] pipeline: synthesis: sample 7: zero-node CFG");

  // Context on an OK status is a no-op.
  Status still_ok = Status::ok();
  still_ok.with_context("ignored");
  EXPECT_EQ(still_ok.to_string(), "[OK]");
}

TEST_F(RobustnessTest, ResultHoldsValueOrError) {
  util::Result<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);

  util::Result<int> bad(Status::error(ErrorCode::kNotFound, "nope"));
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNotFound);
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_EQ(util::Result<int>(Status::error(ErrorCode::kNotFound, "x"))
                .value_or(-1),
            -1);
}

// ---------------------------------------------------------------------------
// Fault injector

TEST_F(RobustnessTest, FaultIsFreeAndSilentWhenNothingIsArmed) {
  EXPECT_FALSE(FaultInjector::any_armed());
  EXPECT_FALSE(util::fault("robustness_test.unarmed"));
  // Un-armed hits are not even counted (the hot path never takes the lock).
  EXPECT_EQ(FaultInjector::instance().hit_count("robustness_test.unarmed"), 0u);
}

TEST_F(RobustnessTest, CountedArmingSkipsThenFiresExactly) {
  auto& inj = FaultInjector::instance();
  inj.arm("robustness_test.counted", /*skip=*/2, /*count=*/3);
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(util::fault("robustness_test.counted"));
  EXPECT_EQ(fired, std::vector<bool>({false, false, true, true, true, false,
                                      false, false}));
  EXPECT_EQ(inj.hit_count("robustness_test.counted"), 8u);
  EXPECT_EQ(inj.fire_count("robustness_test.counted"), 3u);
  inj.disarm("robustness_test.counted");
  EXPECT_FALSE(util::fault("robustness_test.counted"));
}

TEST_F(RobustnessTest, RandomArmingIsDeterministicPerSeed) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector::instance().reset();
    FaultInjector::instance().arm_random("robustness_test.random", 0.5, seed);
    std::vector<bool> out;
    for (int i = 0; i < 32; ++i) out.push_back(util::fault("robustness_test.random"));
    return out;
  };
  EXPECT_EQ(pattern(7), pattern(7));
  EXPECT_NE(pattern(7), pattern(8));  // astronomically unlikely to collide
}

TEST_F(RobustnessTest, CheckAllocationRefusesOversizedRequests) {
  EXPECT_TRUE(util::check_allocation(100, 1000, "rows").is_ok());
  Status st = util::check_allocation(2000, 1000, "rows");
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted);

  ScopedFault fault(util::faults::kAllocOversize);
  EXPECT_FALSE(util::check_allocation(1, 1000, "rows").is_ok());
}

// ---------------------------------------------------------------------------
// Hostile CSV input (satellite: read_features_csv hardening)

class CsvRobustnessTest : public RobustnessTest {
 protected:
  static void SetUpTestSuite() {
    dataset::CorpusConfig cc;
    cc.num_malicious = 8;
    cc.num_benign = 6;
    cc.seed = 123;
    corpus_ = new dataset::Corpus(dataset::Corpus::generate(cc));
    dataset::write_features_csv(*corpus_, good_path());
    good_text_ = new std::string(read_text(good_path()));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(good_path());
    delete corpus_;
    corpus_ = nullptr;
    delete good_text_;
    good_text_ = nullptr;
  }
  /// Per process: ctest runs each test in its own process, and every one
  /// of them writes this file in SetUpTestSuite, so a shared name lets one
  /// test read it while another rewrites it. Fixed at the first call (in
  /// SetUpTestSuite), so the test bodies read the file it wrote.
  static const std::string& good_path() {
    static const std::string path = temp_path("good.csv");
    return path;
  }
  static const std::string& good_text() { return *good_text_; }

  static dataset::Corpus* corpus_;
  static std::string* good_text_;
};

dataset::Corpus* CsvRobustnessTest::corpus_ = nullptr;
std::string* CsvRobustnessTest::good_text_ = nullptr;

TEST_F(CsvRobustnessTest, RoundTripLoadsEveryRow) {
  auto res = dataset::read_features_csv_checked(good_path());
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const auto& lf = res.value();
  EXPECT_EQ(lf.rows.size(), corpus_->size());
  EXPECT_EQ(lf.report.rows_quarantined, 0u);
  EXPECT_EQ(lf.report.rows_total, corpus_->size());
}

TEST_F(CsvRobustnessTest, TrailingNewlinesAreHarmless) {
  const std::string path = temp_path("trailing.csv");
  write_text(path, good_text() + "\n\n\n");
  auto res = dataset::read_features_csv_checked(path);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().rows.size(), corpus_->size());
  EXPECT_EQ(res.value().report.rows_quarantined, 0u);
}

TEST_F(CsvRobustnessTest, EmptyFileIsAnErrorInBothModes) {
  const std::string path = temp_path("empty.csv");
  write_text(path, "");
  for (bool strict : {false, true}) {
    auto res = dataset::read_features_csv_checked(path, csv_opts(strict));
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kParseError);
  }
}

TEST_F(CsvRobustnessTest, MissingFileIsNotFound) {
  auto res = dataset::read_features_csv_checked("/no_such_gea_file.csv");
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kNotFound);
  EXPECT_THROW(dataset::read_features_csv("/no_such_gea_file.csv"),
               std::runtime_error);
}

TEST_F(CsvRobustnessTest, MissingHeaderIsAnErrorInBothModes) {
  // Drop the header line: the first data row is then read as a header and
  // does not match the schema.
  const std::string path = temp_path("no_header.csv");
  write_text(path, good_text().substr(good_text().find('\n') + 1));
  for (bool strict : {false, true}) {
    auto res = dataset::read_features_csv_checked(path, csv_opts(strict));
    ASSERT_FALSE(res.is_ok());
    EXPECT_EQ(res.status().code(), ErrorCode::kParseError);
    EXPECT_NE(res.status().to_string().find("header"), std::string::npos);
  }
}

TEST_F(CsvRobustnessTest, WrongColumnCountQuarantinesLenientErrorsStrict) {
  const std::string path = temp_path("short_row.csv");
  write_text(path, good_text() + "99,mirai-like,1,0.5,0.5\n");
  auto lenient = dataset::read_features_csv_checked(path);
  ASSERT_TRUE(lenient.is_ok());
  EXPECT_EQ(lenient.value().rows.size(), corpus_->size());
  EXPECT_EQ(lenient.value().report.rows_quarantined, 1u);
  ASSERT_FALSE(lenient.value().report.diagnostics.empty());
  EXPECT_NE(lenient.value().report.diagnostics[0].find("column count"),
            std::string::npos);

  auto strict = dataset::read_features_csv_checked(path, csv_opts(true));
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruptData);
}

TEST_F(CsvRobustnessTest, NonNumericAndNonFiniteCellsQuarantine) {
  // Corrupt two data rows of a copy: one non-numeric cell, one inf.
  std::istringstream in(good_text());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_GE(lines.size(), 4u);
  lines[1].replace(lines[1].rfind(','), std::string::npos, ",garbage");
  lines[2].replace(lines[2].rfind(','), std::string::npos, ",inf");
  std::string text;
  for (const auto& l : lines) text += l + "\n";
  const std::string path = temp_path("bad_cells.csv");
  write_text(path, text);

  auto lenient = dataset::read_features_csv_checked(path);
  ASSERT_TRUE(lenient.is_ok());
  EXPECT_EQ(lenient.value().report.rows_quarantined, 2u);
  EXPECT_EQ(lenient.value().rows.size(), corpus_->size() - 2);

  auto strict = dataset::read_features_csv_checked(path, csv_opts(true));
  ASSERT_FALSE(strict.is_ok());
  EXPECT_EQ(strict.status().code(), ErrorCode::kCorruptData);
  EXPECT_NE(strict.status().to_string().find("row 1"), std::string::npos);
}

TEST_F(CsvRobustnessTest, BadLabelQuarantines) {
  std::string text = good_text();
  // First data row: flip the label cell (third column) to 7.
  const auto header_end = text.find('\n');
  auto c1 = text.find(',', header_end);
  auto c2 = text.find(',', c1 + 1);
  auto c3 = text.find(',', c2 + 1);
  text.replace(c2 + 1, c3 - c2 - 1, "7");
  const std::string path = temp_path("bad_label.csv");
  write_text(path, text);

  auto res = dataset::read_features_csv_checked(path);
  ASSERT_TRUE(res.is_ok());
  EXPECT_EQ(res.value().report.rows_quarantined, 1u);
  ASSERT_FALSE(res.value().report.diagnostics.empty());
  EXPECT_NE(res.value().report.diagnostics[0].find("label"), std::string::npos);
}

TEST_F(CsvRobustnessTest, CsvFaultPointsCorruptExactlyCountedRows) {
  for (const char* point :
       {util::faults::kCsvCorruptRow, util::faults::kCsvTruncateRow}) {
    FaultInjector::instance().reset();
    ScopedFault fault(point, /*skip=*/1, /*count=*/3);
    auto res = dataset::read_features_csv_checked(good_path());
    ASSERT_TRUE(res.is_ok()) << point;
    EXPECT_EQ(res.value().report.rows_quarantined, 3u) << point;
    EXPECT_EQ(res.value().rows.size(), corpus_->size() - 3) << point;
  }
}

// ---------------------------------------------------------------------------
// Model / scaler serialization

TEST_F(RobustnessTest, ModelLoadRejectsTruncatedFileAndKeepsParams) {
  util::Rng rng(1);
  ml::Model m = ml::make_mlp_baseline(features::kNumFeatures, 2);
  m.init(rng);
  const std::string path = temp_path("model.bin");

  {
    ScopedFault fault(util::faults::kModelTruncate);
    ASSERT_TRUE(m.save_checked(path).is_ok());
    EXPECT_EQ(fault.fired(), 1u);
  }

  ml::Model fresh = ml::make_mlp_baseline(features::kNumFeatures, 2);
  util::Rng rng2(2);
  fresh.init(rng2);
  const float before = fresh.params()[0].value->at(0);
  Status st = fresh.load_checked(path);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), ErrorCode::kCorruptData);
  // Staged load: the failed read must not have half-overwritten parameters.
  EXPECT_EQ(fresh.params()[0].value->at(0), before);

  // And an intact save round-trips.
  ASSERT_TRUE(m.save_checked(path).is_ok());
  EXPECT_TRUE(fresh.load_checked(path).is_ok());
  EXPECT_EQ(fresh.params()[0].value->at(0), m.params()[0].value->at(0));
}

TEST_F(RobustnessTest, ScalerLoadRejectsTruncatedAndCorruptFiles) {
  features::FeatureScaler scaler;
  std::vector<features::FeatureVector> rows(3);
  rows[1].fill(1.0);
  rows[2].fill(2.0);
  scaler.fit(rows);
  const std::string path = temp_path("scaler.bin");

  {
    ScopedFault fault(util::faults::kScalerTruncate);
    ASSERT_TRUE(scaler.save(path).is_ok());
  }
  auto truncated = features::FeatureScaler::load_from(path);
  ASSERT_FALSE(truncated.is_ok());
  EXPECT_EQ(truncated.status().code(), ErrorCode::kCorruptData);

  write_text(path, "not a scaler file at all");
  EXPECT_EQ(features::FeatureScaler::load_from(path).status().code(),
            ErrorCode::kParseError);

  ASSERT_TRUE(scaler.save(path).is_ok());
  auto loaded = features::FeatureScaler::load_from(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().lo(0), scaler.lo(0));
  EXPECT_EQ(loaded.value().hi(0), scaler.hi(0));
}

// ---------------------------------------------------------------------------
// Degenerate-graph features (satellite: division-by-zero guards)

TEST_F(RobustnessTest, DegenerateGraphsFeaturizeFinite) {
  // One-node CFG (a packed stub): every population is empty or singleton.
  graph::DiGraph one(1);
  auto f1 = features::extract_features(one);
  EXPECT_TRUE(features::all_finite(f1));
  EXPECT_EQ(f1[features::kDensity], 0.0);
  EXPECT_EQ(f1[features::kNumNodes], 1.0);

  // Fully disconnected graph: no reachable pairs at all.
  graph::DiGraph scattered(5);
  auto f2 = features::extract_features(scattered);
  EXPECT_TRUE(features::all_finite(f2));
  EXPECT_EQ(f2[features::kShortestPathMean], 0.0);

  // Empty graph.
  graph::DiGraph empty;
  EXPECT_TRUE(features::all_finite(features::extract_features(empty)));
}

TEST_F(RobustnessTest, DistortionValidatorRejectsNonFiniteVectors) {
  features::FeatureScaler scaler;
  std::vector<features::FeatureVector> rows(2);
  rows[1].fill(1.0);
  scaler.fit(rows);
  features::DistortionValidator validator(scaler);

  features::FeatureVector v{};
  v.fill(0.5);
  EXPECT_TRUE(validator.validate(v).admissible());

  v[features::kClosenessMedian] = std::numeric_limits<double>::quiet_NaN();
  auto rep = validator.validate(v);
  EXPECT_FALSE(rep.admissible());
  ASSERT_FALSE(rep.violations.empty());
  EXPECT_NE(rep.violations[0].find("not finite"), std::string::npos);

  v[features::kClosenessMedian] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(validator.validate(v).admissible());
}

// ---------------------------------------------------------------------------
// Sample-level quarantine gates

TEST_F(RobustnessTest, ValidateSampleCatchesEveryCfgCorruption) {
  struct Case {
    const char* point;
    const char* expect;
  };
  const Case cases[] = {
      {util::faults::kCfgZeroNode, "zero-node"},
      {util::faults::kCfgDanglingEdge, "dangling"},
      {util::faults::kCfgDisconnectedExit, "disconnected"},
      {util::faults::kFeatureNaN, "non-finite feature density"},
      {util::faults::kFeatureInf, "non-finite feature shortest_path_mean"},
  };
  for (const Case& c : cases) {
    FaultInjector::instance().reset();
    util::Rng rng(5);
    ScopedFault fault(c.point);
    const auto s =
        dataset::make_sample(0, bingen::Family::kGafgytLike, rng, {});
    Status st = dataset::validate_sample(s);
    ASSERT_FALSE(st.is_ok()) << c.point;
    EXPECT_NE(st.to_string().find(c.expect), std::string::npos)
        << c.point << " -> " << st.to_string();
  }

  // No faults armed: the same sample is clean.
  FaultInjector::instance().reset();
  util::Rng rng(5);
  const auto s = dataset::make_sample(0, bingen::Family::kGafgytLike, rng, {});
  EXPECT_TRUE(dataset::validate_sample(s).is_ok());
}

// ---------------------------------------------------------------------------
// Pipeline: lenient quarantine + strict escalation for every fault point

class PipelineFaultTest
    : public RobustnessTest,
      public testing::WithParamInterface<std::pair<const char*, const char*>> {
};

TEST_P(PipelineFaultTest, LenientRunQuarantinesExactlyInjectedFaults) {
  const auto [point, expect] = GetParam();
  constexpr std::size_t kInjected = 3;
  ScopedFault fault(point, /*skip=*/5, /*count=*/kInjected);
  util::LogCapture capture;

  auto res = core::DetectionPipeline::run_checked(tiny_config());
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  const auto& p = *res.value();

  EXPECT_EQ(fault.fired(), kInjected);
  EXPECT_EQ(p.report().quarantined, kInjected);
  EXPECT_EQ(p.report().by_stage.at("synthesis"), kInjected);
  EXPECT_EQ(p.report().samples_requested, 72u);
  EXPECT_EQ(p.report().samples_used, 72u - kInjected);
  EXPECT_EQ(p.corpus().size(), 72u - kInjected);
  ASSERT_FALSE(p.report().diagnostics.empty());
  EXPECT_NE(p.report().diagnostics[0].detail.find(expect), std::string::npos);
  // Counter-based assertion instead of scraping stderr: one warn per
  // quarantined sample (the end-of-run info summary also mentions the
  // quarantine, hence the warn-prefix match).
  EXPECT_EQ(capture.count_containing("corpus synthesis: quarantined"), kInjected);
  EXPECT_EQ(capture.count(util::LogLevel::kWarn), kInjected);
  // The survivors still train and evaluate.
  EXPECT_GT(p.test_metrics().accuracy(), 0.5);
}

TEST_P(PipelineFaultTest, StrictRunSurfacesAStatusNamingTheFault) {
  const auto [point, expect] = GetParam();
  ScopedFault fault(point, /*skip=*/2, /*count=*/1);
  auto cfg = tiny_config();
  cfg.mode = core::RobustnessMode::kStrict;
  auto res = core::DetectionPipeline::run_checked(cfg);
  ASSERT_FALSE(res.is_ok());
  EXPECT_NE(res.status().to_string().find(expect), std::string::npos)
      << point << " -> " << res.status().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    AllSynthesisFaults, PipelineFaultTest,
    testing::Values(
        std::make_pair(util::faults::kFeatureNaN, "non-finite feature density"),
        std::make_pair(util::faults::kFeatureInf,
                       "non-finite feature shortest_path_mean"),
        std::make_pair(util::faults::kCfgZeroNode, "zero-node"),
        std::make_pair(util::faults::kCfgDanglingEdge, "dangling"),
        std::make_pair(util::faults::kCfgDisconnectedExit, "disconnected"),
        std::make_pair(util::faults::kAllocOversize, "refused allocation")),
    [](const auto& info) {
      std::string name = info.param.first;
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name;
    });

TEST_F(RobustnessTest, LenientRunErrorsWhenQuarantineStarvesAClass) {
  // Kill every benign sample: the pipeline must refuse to train rather
  // than fit a one-class detector. Benign samples are generated first.
  auto cfg = tiny_config();
  ScopedFault fault(util::faults::kCfgZeroNode, /*skip=*/0,
                    /*count=*/cfg.corpus.num_benign);
  auto res = core::DetectionPipeline::run_checked(cfg);
  ASSERT_FALSE(res.is_ok());
  EXPECT_EQ(res.status().code(), ErrorCode::kFailedPrecondition);
  EXPECT_NE(res.status().to_string().find("too few surviving samples"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Pipeline: CSV ingestion path

TEST_F(RobustnessTest, PipelineRunsFromCsvAndQuarantinesCorruptRows) {
  const std::string path = temp_path("pipeline_features.csv");
  {
    dataset::CorpusConfig cc;
    cc.num_malicious = 48;
    cc.num_benign = 24;
    cc.seed = 7;
    dataset::write_features_csv(dataset::Corpus::generate(cc), path);
  }
  auto cfg = tiny_config();
  cfg.features_csv = path;

  // Clean load first.
  {
    auto res = core::DetectionPipeline::run_checked(cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    EXPECT_EQ(res.value()->report().quarantined, 0u);
    EXPECT_EQ(res.value()->corpus().size(), 72u);
  }

  // Corrupt rows at read time; the lenient run finishes on the rest.
  {
    ScopedFault fault(util::faults::kCsvCorruptRow, /*skip=*/3, /*count=*/2);
    auto res = core::DetectionPipeline::run_checked(cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const auto& p = *res.value();
    EXPECT_EQ(p.report().quarantined, 2u);
    EXPECT_EQ(p.report().by_stage.at("csv"), 2u);
    EXPECT_EQ(p.report().samples_used, 70u);
  }

  // Strict mode names the offending cell.
  {
    ScopedFault fault(util::faults::kCsvCorruptRow, /*skip=*/3, /*count=*/2);
    auto strict_cfg = cfg;
    strict_cfg.mode = core::RobustnessMode::kStrict;
    auto res = core::DetectionPipeline::run_checked(strict_cfg);
    ASSERT_FALSE(res.is_ok());
    EXPECT_NE(res.status().to_string().find("csv.corrupt_row"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Pipeline: model / scaler load degradation

TEST_F(RobustnessTest, PipelineFallsBackWhenModelOrScalerFilesAreTruncated) {
  const std::string model_path = temp_path("pipeline_model.bin");
  const std::string scaler_path = temp_path("pipeline_scaler.bin");

  auto cfg = tiny_config();
  {
    auto res = core::DetectionPipeline::run_checked(cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    ScopedFault model_fault(util::faults::kModelTruncate);
    ScopedFault scaler_fault(util::faults::kScalerTruncate);
    ASSERT_TRUE(res.value()->model().save_checked(model_path).is_ok());
    ASSERT_TRUE(res.value()->scaler().save(scaler_path).is_ok());
  }

  // Lenient: both loads fail, the run degrades (refit + retrain) and says so.
  {
    auto degraded_cfg = cfg;
    degraded_cfg.weights_in = model_path;
    degraded_cfg.scaler_in = scaler_path;
    auto res = core::DetectionPipeline::run_checked(degraded_cfg);
    ASSERT_TRUE(res.is_ok()) << res.status().to_string();
    const auto& p = *res.value();
    EXPECT_FALSE(p.report().clean());
    ASSERT_EQ(p.report().notes.size(), 2u);
    EXPECT_NE(p.report().notes[0].find("scaler load failed"), std::string::npos);
    EXPECT_NE(p.report().notes[1].find("weights load failed"), std::string::npos);
    EXPECT_GT(p.test_metrics().accuracy(), 0.5);
  }

  // Strict: the scaler (loaded first) aborts the run.
  {
    auto strict_cfg = cfg;
    strict_cfg.scaler_in = scaler_path;
    strict_cfg.mode = core::RobustnessMode::kStrict;
    auto res = core::DetectionPipeline::run_checked(strict_cfg);
    ASSERT_FALSE(res.is_ok());
    EXPECT_NE(res.status().to_string().find("truncated scaler file"),
              std::string::npos);
  }
  {
    auto strict_cfg = cfg;
    strict_cfg.weights_in = model_path;
    strict_cfg.mode = core::RobustnessMode::kStrict;
    auto res = core::DetectionPipeline::run_checked(strict_cfg);
    ASSERT_FALSE(res.is_ok());
    EXPECT_NE(res.status().to_string().find("Model::load"), std::string::npos);
  }

  // Intact files: loads succeed, no notes, training is skipped.
  {
    auto run1 = core::DetectionPipeline::run_checked(cfg);
    ASSERT_TRUE(run1.is_ok());
    ASSERT_TRUE(run1.value()->model().save_checked(model_path).is_ok());
    ASSERT_TRUE(run1.value()->scaler().save(scaler_path).is_ok());
    auto reload_cfg = cfg;
    reload_cfg.weights_in = model_path;
    reload_cfg.scaler_in = scaler_path;
    auto run2 = core::DetectionPipeline::run_checked(reload_cfg);
    ASSERT_TRUE(run2.is_ok()) << run2.status().to_string();
    EXPECT_TRUE(run2.value()->report().clean());
    EXPECT_EQ(run2.value()->test_metrics().accuracy(),
              run1.value()->test_metrics().accuracy());
  }
}

// ---------------------------------------------------------------------------
// GEA splicing invariants + harness degradation

TEST_F(RobustnessTest, EmbedGraphRejectsDanglingReferences) {
  graph::DiGraph a(3), b(2);
  a.add_edge(0, 1);
  a.add_edge(1, 2);
  b.add_edge(0, 1);
  // Valid call.
  auto merged = aug::embed_graph(a, 0, {2}, b, 0, {1});
  EXPECT_EQ(merged.num_nodes(), 3u + 2u + 2u);
  // Dangling entry / exit references.
  EXPECT_THROW(aug::embed_graph(a, 9, {2}, b, 0, {1}), std::invalid_argument);
  EXPECT_THROW(aug::embed_graph(a, 0, {7}, b, 0, {1}), std::invalid_argument);
  EXPECT_THROW(aug::embed_graph(a, 0, {2}, b, 5, {1}), std::invalid_argument);
}

TEST_F(RobustnessTest, EmbedWithCfgEnforcesPostcondition) {
  util::Rng rng(11);
  const auto orig =
      bingen::generate_program(bingen::Family::kGafgytLike, rng, {});
  const auto sel =
      bingen::generate_program(bingen::Family::kBenignUtility, rng, {});
  const auto result = aug::embed_with_cfg(orig, sel, {});
  EXPECT_TRUE(cfg::validate(result.cfg).is_ok());
  EXPECT_TRUE(aug::functionally_equivalent(orig, result.program));
}

TEST_F(RobustnessTest, GeaHarnessQuarantinesPerSampleFailuresAndFinishes) {
  auto res = core::DetectionPipeline::run_checked(tiny_config());
  ASSERT_TRUE(res.is_ok()) << res.status().to_string();
  auto& p = *res.value();

  aug::GeaHarness harness(p.corpus(), p.scaler(), p.classifier());
  const auto targets = p.corpus().indices_of(dataset::kBenign);
  ASSERT_FALSE(targets.empty());

  aug::GeaHarnessOptions opts;
  opts.verify_every = 0;
  opts.skip_already_misclassified = false;
  opts.max_samples = 10;

  // Crafted features turn NaN for two samples: quarantined, sweep finishes.
  constexpr std::size_t kInjected = 2;
  util::LogCapture capture;
  ScopedFault fault(util::faults::kFeatureNaN, /*skip=*/1, /*count=*/kInjected);
  const auto row =
      harness.attack_with_target(dataset::kMalicious, targets.front(), opts);
  EXPECT_EQ(row.quarantined, kInjected);
  EXPECT_EQ(row.samples, 10u);
  EXPECT_EQ(row.diagnostics.size(), kInjected);
  EXPECT_EQ(capture.count_containing("quarantined"), kInjected);

  // Strict mode rethrows instead.
  FaultInjector::instance().reset();
  ScopedFault again(util::faults::kFeatureNaN, /*skip=*/1, /*count=*/1);
  auto strict_opts = opts;
  strict_opts.strict = true;
  EXPECT_THROW(harness.attack_with_target(dataset::kMalicious, targets.front(),
                                          strict_opts),
               std::runtime_error);
}

TEST_F(RobustnessTest, AttackHarnessQuarantinesMalformedRows) {
  util::Rng rng(3);
  ml::Model model = ml::make_mlp_baseline(features::kNumFeatures, 2);
  model.init(rng);
  ml::ModelClassifier clf(model, features::kNumFeatures, 2);

  std::vector<std::vector<double>> rows(4,
                                        std::vector<double>(features::kNumFeatures, 0.4));
  std::vector<std::uint8_t> labels = {0, 1, 0, 1};
  rows[1][5] = std::numeric_limits<double>::quiet_NaN();  // poisoned row
  rows[2].resize(7);                                      // wrong width

  attacks::Fgsm fgsm(attacks::FgsmConfig{.epsilon = 0.1});
  attacks::HarnessOptions opts;
  opts.skip_already_misclassified = false;
  const auto row = attacks::run_attack(fgsm, clf, rows, labels, nullptr, opts);
  EXPECT_EQ(row.quarantined, 2u);
  EXPECT_EQ(row.samples, 2u);

  auto strict = opts;
  strict.strict = true;
  EXPECT_THROW(attacks::run_attack(fgsm, clf, rows, labels, nullptr, strict),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Logging counters + capture (satellite)

TEST_F(RobustnessTest, LogCountersTrackEmittedLinesPerLevel) {
  util::reset_log_counts();
  const auto level_before = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  util::LogCapture capture;

  util::log_debug("swallowed");
  util::log_info("swallowed too");
  util::log_warn("kept ", 1);
  util::log_warn("kept ", 2);
  util::log_error("kept as well");

  util::set_log_level(level_before);
  const auto counts = util::log_counts();
  EXPECT_EQ(counts.debug, 0u);
  EXPECT_EQ(counts.info, 0u);
  EXPECT_EQ(counts.warn, 2u);
  EXPECT_EQ(counts.error, 1u);
  EXPECT_EQ(counts.total(), 3u);
  EXPECT_EQ(counts.at(util::LogLevel::kWarn), 2u);

  ASSERT_EQ(capture.records().size(), 3u);
  EXPECT_EQ(capture.records()[0].message, "kept 1");
  EXPECT_EQ(capture.count(util::LogLevel::kWarn), 2u);
  EXPECT_EQ(capture.count(util::LogLevel::kError), 1u);
  EXPECT_EQ(capture.count_containing("kept"), 3u);
}

TEST_F(RobustnessTest, LogCapturesNestInnermostWins) {
  util::LogCapture outer;
  util::log_warn("to outer");
  {
    util::LogCapture inner;
    util::log_warn("to inner");
    EXPECT_EQ(inner.count(util::LogLevel::kWarn), 1u);
  }
  util::log_warn("to outer again");
  EXPECT_EQ(outer.count(util::LogLevel::kWarn), 2u);
  EXPECT_EQ(outer.count_containing("outer"), 2u);
}

TEST_F(RobustnessTest, LogLevelIsSafeToFlipWhileOtherThreadsLog) {
  // The level is an atomic: flipping it mid-run races benignly (each line
  // sees old or new level, never a torn value). TSan-clean by construction;
  // here we assert the flip itself round-trips and nothing deadlocks.
  const auto level_before = util::log_level();
  util::LogCapture capture;
  std::atomic<bool> stop{false};
  std::thread logger([&] {
    while (!stop.load()) util::log_warn("chatter");
  });
  for (int i = 0; i < 200; ++i) {
    util::set_log_level(i % 2 == 0 ? util::LogLevel::kError
                                   : util::LogLevel::kDebug);
  }
  stop.store(true);
  logger.join();
  util::set_log_level(util::LogLevel::kDebug);
  EXPECT_EQ(util::log_level(), util::LogLevel::kDebug);
  util::set_log_level(level_before);
}

TEST_F(RobustnessTest, JsonLogSinkWritesOneObjectPerLine) {
  const std::filesystem::path path = test::unique_temp_path("log_sink.jsonl");
  std::filesystem::remove(path);
  util::set_log_json(path.string());
  util::log_warn("hello \"quoted\"\nsecond line");
  util::log_error("plain");
  util::set_log_json("");  // close so the read below sees flushed content

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(lines[0].find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(lines[0].find("\\n"), std::string::npos);  // newline escaped
  EXPECT_NE(lines[0].find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(lines[1].find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"msg\":\"plain\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST_F(RobustnessTest, JsonLogSinkYieldsToActiveCapture) {
  const std::filesystem::path path = test::unique_temp_path("log_sink.jsonl");
  std::filesystem::remove(path);
  util::set_log_json(path.string());
  {
    util::LogCapture capture;
    util::log_warn("captured, not sunk");
    EXPECT_EQ(capture.count_containing("captured"), 1u);
  }
  util::log_warn("sunk after capture");
  util::set_log_json("");
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("sunk after capture"), std::string::npos);
}

}  // namespace
}  // namespace gea
