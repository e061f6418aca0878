#include <gtest/gtest.h>

#include <filesystem>
#include <set>

#include "dataset/corpus.hpp"
#include "dataset/io.hpp"
#include "dataset/split.hpp"
#include "isa/interpreter.hpp"
#include "temp_path.hpp"

namespace {

using namespace gea;
using namespace gea::dataset;
using gea::util::Rng;

CorpusConfig small_config() {
  CorpusConfig cfg;
  cfg.num_malicious = 90;
  cfg.num_benign = 30;
  cfg.seed = 7;
  return cfg;
}

const Corpus& small_corpus() {
  static const Corpus* c = new Corpus(Corpus::generate(small_config()));
  return *c;
}

TEST(Corpus, CountsMatchConfig) {
  const auto& c = small_corpus();
  EXPECT_EQ(c.size(), 120u);
  EXPECT_EQ(c.count_label(kBenign), 30u);
  EXPECT_EQ(c.count_label(kMalicious), 90u);
}

TEST(Corpus, TableOneRatios) {
  // The default config reproduces Table I exactly.
  const CorpusConfig def;
  EXPECT_EQ(def.num_malicious, 2281u);
  EXPECT_EQ(def.num_benign, 276u);
  const double total = 2281.0 + 276.0;
  EXPECT_NEAR(276.0 / total, 0.1079, 5e-4);   // 10.79%
  EXPECT_NEAR(2281.0 / total, 0.8921, 5e-4);  // 89.21%
}

TEST(Corpus, LabelsMatchFamilies) {
  for (const auto& s : small_corpus().samples()) {
    EXPECT_EQ(s.label == kMalicious, bingen::is_malicious(s.family));
  }
}

TEST(Corpus, SamplesFullyPopulated) {
  for (const auto& s : small_corpus().samples()) {
    EXPECT_FALSE(s.program.empty());
    EXPECT_GE(s.cfg.num_nodes(), 1u);
    EXPECT_EQ(s.features[features::kNumNodes],
              static_cast<double>(s.cfg.num_nodes()));
    EXPECT_EQ(s.features[features::kNumEdges],
              static_cast<double>(s.cfg.num_edges()));
  }
}

TEST(Corpus, IdsAreUniqueAndDense) {
  std::set<std::uint32_t> ids;
  for (const auto& s : small_corpus().samples()) ids.insert(s.id);
  EXPECT_EQ(ids.size(), small_corpus().size());
  EXPECT_EQ(*ids.rbegin(), small_corpus().size() - 1);
}

TEST(Corpus, DeterministicForSeed) {
  const auto a = Corpus::generate(small_config());
  const auto b = Corpus::generate(small_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.samples()[i].program, b.samples()[i].program);
  }
}

TEST(Corpus, DifferentSeedsDiffer) {
  auto cfg2 = small_config();
  cfg2.seed = 8;
  const auto b = Corpus::generate(cfg2);
  const auto& a = small_corpus();
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || !(a.samples()[i].program == b.samples()[i].program);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Corpus, FamilyHistogramCoversAllClasses) {
  const auto h = small_corpus().family_histogram();
  std::size_t benign = 0, malicious = 0;
  for (const auto& [family, count] : h) {
    (bingen::is_malicious(family) ? malicious : benign) += count;
  }
  EXPECT_EQ(benign, 30u);
  EXPECT_EQ(malicious, 90u);
  EXPECT_GE(h.size(), 4u);  // mix actually mixes
}

TEST(Corpus, AllSamplesExecuteNormally) {
  for (const auto& s : small_corpus().samples()) {
    const auto r = isa::execute(s.program);
    EXPECT_TRUE(isa::ExecResult::is_normal(r.reason))
        << "sample " << s.id << " family " << bingen::family_name(s.family);
  }
}

TEST(Corpus, IndicesOfPartitions) {
  const auto b = small_corpus().indices_of(kBenign);
  const auto m = small_corpus().indices_of(kMalicious);
  EXPECT_EQ(b.size() + m.size(), small_corpus().size());
}

TEST(Corpus, FeatureRowsAndLabelsAligned) {
  const auto rows = small_corpus().feature_rows();
  const auto labels = small_corpus().labels();
  EXPECT_EQ(rows.size(), labels.size());
  EXPECT_EQ(rows[0], small_corpus().samples()[0].features);
}

// ---------------------------------------------------------------------------
// Split

TEST(Split, StratificationKeepsClassBalance) {
  Rng rng(3);
  const auto split = stratified_split(small_corpus(), 0.25, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), small_corpus().size());

  auto count = [&](const std::vector<std::size_t>& idx, std::uint8_t label) {
    std::size_t n = 0;
    for (std::size_t i : idx) n += small_corpus().samples()[i].label == label;
    return n;
  };
  // 25% of 30 benign ≈ 8; 25% of 90 malicious ≈ 22-23.
  EXPECT_NEAR(static_cast<double>(count(split.test, kBenign)), 7.5, 1.5);
  EXPECT_NEAR(static_cast<double>(count(split.test, kMalicious)), 22.5, 1.5);
}

TEST(Split, NoOverlapAndComplete) {
  Rng rng(4);
  const auto split = stratified_split(small_corpus(), 0.3, rng);
  std::set<std::size_t> seen(split.train.begin(), split.train.end());
  for (std::size_t i : split.test) EXPECT_FALSE(seen.count(i));
  seen.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(seen.size(), small_corpus().size());
}

TEST(Split, InvalidFractionThrows) {
  Rng rng(5);
  EXPECT_THROW(stratified_split(small_corpus(), 0.0, rng), std::invalid_argument);
  EXPECT_THROW(stratified_split(small_corpus(), 1.0, rng), std::invalid_argument);
}

TEST(Split, RowsForAndLabelsFor) {
  const auto rows = small_corpus().feature_rows();
  const auto labels = small_corpus().labels();
  const std::vector<std::size_t> idx = {2, 0};
  const auto r = rows_for(rows, idx);
  const auto l = labels_for(labels, idx);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], std::vector<double>(rows[2].begin(), rows[2].end()));
  EXPECT_EQ(l[1], labels[0]);
}

// ---------------------------------------------------------------------------
// CSV I/O

TEST(Io, FeatureCsvRoundTrip) {
  const auto path = test::unique_temp_path("feat.csv");
  write_features_csv(small_corpus(), path);
  const auto loaded = read_features_csv(path);
  ASSERT_EQ(loaded.rows.size(), small_corpus().size());
  for (std::size_t i = 0; i < loaded.rows.size(); ++i) {
    EXPECT_EQ(loaded.labels[i], small_corpus().samples()[i].label);
    EXPECT_EQ(loaded.families[i],
              bingen::family_name(small_corpus().samples()[i].family));
    for (std::size_t j = 0; j < features::kNumFeatures; ++j) {
      EXPECT_NEAR(loaded.rows[i][j], small_corpus().samples()[i].features[j],
                  1e-5);
    }
  }
  std::filesystem::remove(path);
}

TEST(Io, ReadMissingFileThrows) {
  EXPECT_THROW(read_features_csv("/no_such_gea_file.csv"), std::runtime_error);
}

}  // namespace
