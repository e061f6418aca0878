// Google-benchmark microbenchmarks for the primitives every experiment
// leans on: centrality computation, CFG extraction, the 23-feature
// extraction, CNN forward/backward, program generation, GEA splicing and
// interpretation — plus a serial-vs-parallel corpus featurization sweep
// written to BENCH_parallel.json (custom main below).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "dataset/corpus.hpp"
#include "features/features.hpp"
#include "gea/embed.hpp"
#include "graph/centrality.hpp"
#include "graph/generators.hpp"
#include "kernels/config.hpp"
#include "isa/interpreter.hpp"
#include "ml/trainer.hpp"
#include "ml/zoo.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea;

void BM_BetweennessCentrality(benchmark::State& state) {
  util::Rng rng(1);
  const auto g = graph::random_cfg_shape(
      static_cast<std::size_t>(state.range(0)), 0.4, 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::betweenness_centrality(g));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BetweennessCentrality)->Range(16, 512)->Complexity();

void BM_ClosenessCentrality(benchmark::State& state) {
  util::Rng rng(2);
  const auto g = graph::random_cfg_shape(
      static_cast<std::size_t>(state.range(0)), 0.4, 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::closeness_centrality(g));
  }
}
BENCHMARK(BM_ClosenessCentrality)->Range(16, 512);

void BM_FeatureExtraction(benchmark::State& state) {
  util::Rng rng(3);
  const auto g = graph::random_cfg_shape(
      static_cast<std::size_t>(state.range(0)), 0.4, 0.2, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(features::extract_features(g));
  }
}
BENCHMARK(BM_FeatureExtraction)->Range(16, 512);

void BM_ProgramGeneration(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bingen::generate_program(bingen::Family::kMiraiLike, rng));
  }
}
BENCHMARK(BM_ProgramGeneration);

void BM_CfgExtraction(benchmark::State& state) {
  util::Rng rng(5);
  const auto p = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cfg::extract_cfg(p));
  }
}
BENCHMARK(BM_CfgExtraction);

void BM_GeaEmbed(benchmark::State& state) {
  util::Rng rng(6);
  const auto a = bingen::generate_program(bingen::Family::kMiraiLike, rng);
  const auto b = bingen::generate_program(bingen::Family::kBenignDaemon, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aug::embed_program(a, b));
  }
}
BENCHMARK(BM_GeaEmbed);

void BM_Interpreter(benchmark::State& state) {
  util::Rng rng(7);
  const auto p = bingen::generate_program(bingen::Family::kGafgytLike, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::execute(p));
  }
}
BENCHMARK(BM_Interpreter);

/// Give x[0] a value it did not hold on the previous iteration, so the
/// model's forward memo (which answers a repeated input without running
/// the layers) never hits and every iteration times a real forward.
void perturb(ml::Tensor& x, std::size_t iter) {
  x[0] = static_cast<float>(iter % 1024) / 1024.0f;
}

void BM_CnnForward(benchmark::State& state) {
  util::Rng drng(8);
  auto model = ml::make_paper_cnn(23, 2, drng);
  util::Rng wrng(9);
  model.init(wrng);
  const auto n = static_cast<std::size_t>(state.range(0));
  ml::Tensor x({n, 1, 23});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(wrng.uniform());
  }
  std::size_t iter = 0;
  for (auto _ : state) {
    perturb(x, iter++);
    benchmark::DoNotOptimize(model.forward(x, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CnnForward)->Arg(1)->Arg(32)->Arg(100);

void BM_CnnForwardBackward(benchmark::State& state) {
  util::Rng drng(10);
  auto model = ml::make_paper_cnn(23, 2, drng);
  util::Rng wrng(11);
  model.init(wrng);
  ml::Tensor x({1, 1, 23});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(wrng.uniform());
  }
  ml::Tensor seed({1, 2});
  seed[0] = 1.0f;
  std::size_t iter = 0;
  for (auto _ : state) {
    perturb(x, iter++);
    benchmark::DoNotOptimize(model.forward(x, false));
    benchmark::DoNotOptimize(model.backward(seed));
  }
}
BENCHMARK(BM_CnnForwardBackward);

// ---------------------------------------------------------------------------
// Parallel featurization speedup, written to BENCH_parallel.json.
//
// Times the corpus featurize phase (the parallel_for over CFG + feature
// extraction) at 1/2/4 workers; program generation is serial by design and
// excluded via SynthesisReport::featurize_wall_ms. Results are bitwise
// identical at every thread count, so this measures pure scheduling gain.

double featurize_ms(std::size_t threads) {
  dataset::CorpusConfig cfg;
  cfg.num_malicious = 300;
  cfg.num_benign = 100;
  cfg.seed = 1234;
  cfg.threads = threads;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {  // best-of-3 to damp scheduler noise
    dataset::SynthesisReport rep_out;
    auto res = dataset::Corpus::generate_checked(cfg, &rep_out);
    if (!res.is_ok()) {
      std::cerr << "BENCH_parallel: " << res.status().to_string() << "\n";
      return 0.0;
    }
    const double ms = rep_out.featurize_wall_ms;
    best = rep == 0 ? ms : std::min(best, ms);
  }
  return best;
}

void write_parallel_bench() {
  const std::vector<std::size_t> counts = {1, 2, 4};
  std::vector<double> ms;
  for (std::size_t t : counts) ms.push_back(featurize_ms(t));
  std::ofstream out("BENCH_parallel.json");
  out << "{\n  \"benchmark\": \"corpus_featurize\",\n"
      << "  \"samples\": 400,\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
      << ",\n  \"kernel_config\": \"" << kernels::active_config_summary()
      << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double speedup = ms[i] > 0.0 ? ms[0] / ms[i] : 0.0;
    out << "    {\"threads\": " << counts[i] << ", \"featurize_wall_ms\": "
        << ms[i] << ", \"speedup\": " << speedup << "}"
        << (i + 1 < counts.size() ? "," : "") << "\n";
    std::cout << "parallel featurize: threads=" << counts[i] << " wall="
              << ms[i] << "ms speedup=" << speedup << "x\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_parallel.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  write_parallel_bench();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
