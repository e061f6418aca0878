// The per-layer side of the traced run: the metric catalogue (which
// end-to-end metric each layer metric should move, on which workload) and
// the decomposition pass that replays a workload's own inputs through each
// layer's public function one call at a time.
#include <cstdio>
#include <deque>
#include <string>
#include <tuple>

#include "features/scaler.hpp"
#include "features/validator.hpp"
#include "kernels/conv.hpp"
#include "ml/loss.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gea;

namespace {

/// The paper CNN's kernel calls at L = 23 (see ml::make_paper_cnn).
struct KernelShape {
  const char* name;
  bool conv;
  std::size_t in_ch, l_in, out_ch;  // conv: channels/length; dense: in/out
  bool same;
};
const KernelShape kShapes[] = {
    {"conv1", true, 1, 23, 46, true},   {"conv2", true, 46, 23, 46, false},
    {"conv3", true, 46, 10, 92, true},  {"conv4", true, 92, 10, 92, false},
    {"dense1", false, 368, 0, 512, false}, {"dense2", false, 512, 0, 2, false},
};

constexpr const char* kWireMoves = "latency_p50_ms, latency_p99_ms, slo_rps, cpu_us_per_op";
constexpr const char* kQueueMoves = "latency_p99_ms, slo_rps";
constexpr const char* kInferMoves = "cpu_us_per_op, slo_rps";
constexpr const char* kAttackMoves = "throughput_ops, latency_p50_ms";
constexpr const char* kProgramMoves = "cpu_us_per_op, throughput_ops, latency_p50_ms";
constexpr const char* kWire = "wire_features";
constexpr const char* kServing = "serving workloads";

std::vector<LayerMetric> build_catalogue() {
  std::vector<LayerMetric> c = {
      {"net.frame_encode_us", "us", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"net.frame_decode_us", "us", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"net.bytes_per_op", "B", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"transport.payload_codec_us", "us", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"transport.outside_server_ms", "ms", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"transport.outside_server_ms_p99", "ms", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"transport.shed", "count", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"transport.quarantined", "count", kWireMoves, kWire, "inproc_programs, attack_campaign"},
      {"serve.queue_wait_ms", "ms", kQueueMoves, kWire, "attack_campaign"},
      {"serve.queue_wait_ms_p99", "ms", kQueueMoves, kWire, "attack_campaign"},
      {"serve.batch_mean", "count", kQueueMoves, kWire, "attack_campaign"},
      {"serve.batch1_share", "ratio", kQueueMoves, kWire, "attack_campaign"},
      {"gen.late_ms_p99", "ms", kQueueMoves, kWire, "attack_campaign"},
      {"serve.infer_ms", "ms", kInferMoves, "wire_features at high rungs", "attack_campaign"},
      {"serve.infer_ms_p99", "ms", kInferMoves, "wire_features at high rungs", "attack_campaign"},
      {"ml.infer_b16_us", "us", kInferMoves, "wire_features at high rungs", "attack_campaign"},
      {"ml.softmax_us", "us", kInferMoves, "wire_features at high rungs", "attack_campaign"},
  };
  static std::deque<std::string> names;  // stable storage for built names
  const auto per_kernel = [&](const std::string& suffix, const char* unit,
                              const char* moves, const char* on,
                              const char* not_on) {
    for (const auto& k : kShapes) {
      names.push_back(std::string("kernels.") + k.name + "." + suffix);
      c.push_back({names.back().c_str(), unit, moves, on, not_on});
    }
  };
  per_kernel("fwd_b16_us", "us", kInferMoves, "wire_features at high rungs", "attack_campaign");
  c.push_back({"ml.infer_b1_us", "us", "latency_p50_ms",
               "wire_features at the operating point, inproc_programs", "none"});
  per_kernel("fwd_b1_us", "us", "latency_p50_ms",
             "wire_features at the operating point, inproc_programs", "none");
  per_kernel("bwd_b1_us", "us", kAttackMoves, "attack_campaign", kServing);
  c.push_back({"ml.grad_us", "us", kAttackMoves, "attack_campaign", kServing});
  for (const char* a : {"fgsm", "pgd", "deepfool", "jsma"}) {
    for (const auto& [suffix, unit] :
         {std::pair<const char*, const char*>{"craft_ms", "ms"},
          {"grad_calls_per_ae", "count"},
          {"mr", "ratio"}}) {
      names.push_back(std::string("attacks.") + a + "." + suffix);
      c.push_back({names.back().c_str(), unit, kAttackMoves, "attack_campaign", kServing});
    }
  }
  c.push_back({"attacks.out_of_box_ae", "count",
               "none (known defect: examples outside [0,1]^23 from rows "
               "outside it)",
               "attack_campaign", kServing});
  const char* prog_on = "inproc_programs (and attack_campaign through GEA)";
  for (const auto& [n, u] : std::vector<std::pair<const char*, const char*>>{
           {"cfg.extract_us", "us"}, {"cfg.extract_us_p99", "us"},
           {"cfg.nodes_p50", "count"}, {"cfg.nodes_p99", "count"},
           {"features.extract_us", "us"}, {"features.extract_us_p99", "us"},
           {"features.cache_hit_ratio", "ratio"}, {"features.scale_us", "us"},
           {"serve.submit_ms", "ms"}, {"serve.submit_ms_p99", "ms"}}) {
    c.push_back({n, u, kProgramMoves, prog_on, kWire});
  }
  for (const auto& [n, u] : std::vector<std::pair<const char*, const char*>>{
           {"gea.embed_us", "us"}, {"gea.featurize_us", "us"},
           {"gea.featurize_us_p99", "us"}, {"gea.verify_us", "us"},
           {"gea.equiv_fraction", "ratio"}}) {
    c.push_back({n, u, "throughput_ops", "attack_campaign", kServing});
  }
  for (const char* n : {"serve.stats_snapshot_ms", "admin.metrics_scrape_ms",
                        "admin.statusz_scrape_ms", "admin.statusz_scrape_ms_p99"}) {
    c.push_back({n, "ms", "latency_p99_ms, peak_rss_mib", kWire, "none"});
  }
  c.push_back({"features.validate_us", "us",
               "sizes the latency_p50_ms that serving-path validation will add",
               kServing, "none"});
  const char* computed = "none (computed from shapes, not measured)";
  per_kernel("fwd_b1_mflop", "MFLOP", computed, "all", "none");
  per_kernel("bwd_b1_mflop", "MFLOP", computed, "all", "none");
  per_kernel("fwd_b1_kib", "KiB", computed, "all", "none");
  c.push_back({"trace_overhead_pct", "%", "none (diagnostic)", "all", "none"});
  c.push_back({"layers.coverage_p50", "ratio", "none (diagnostic)", "all", "none"});
  return c;
}

template <typename F>
Dist time_us(std::size_t reps, F&& f) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f(i);
    us.push_back(seconds_since(t0) * 1e6);
  }
  return summarize(std::move(us));
}

std::vector<float> random_floats(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Median µs of one kernel call at batch n (backward when `bwd`).
double kernel_us(const KernelShape& k, std::size_t n, bool bwd, util::Rng& rng,
                 SpanLog& log, const std::string& span) {
  constexpr std::size_t kReps = 48;
  std::vector<double> us;
  if (k.conv) {
    const kernels::Conv1DShape s{n, k.in_ch, k.l_in, k.out_ch, 3, k.same};
    const auto x = random_floats(rng, n * k.in_ch * k.l_in);
    const auto w = random_floats(rng, k.out_ch * k.in_ch * 3);
    const auto b = random_floats(rng, k.out_ch);
    const auto g = random_floats(rng, n * k.out_ch * s.l_out());
    std::vector<float> y(n * k.out_ch * s.l_out()), gin(x.size()), gw(w.size()),
        gb(b.size());
    for (std::size_t r = 0; r < kReps; ++r) {
      std::fill(gin.begin(), gin.end(), 0.0f);
      const auto t0 = Clock::now();
      if (bwd) {
        kernels::conv1d_backward(s, x.data(), w.data(), g.data(), gin.data(),
                                 gw.data(), gb.data());
      } else {
        kernels::conv1d_forward(s, x.data(), w.data(), b.data(), y.data());
      }
      const auto t1 = Clock::now();
      log.add(span.c_str(), 0, t0, t1);
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  } else {
    const auto x = random_floats(rng, n * k.in_ch);
    const auto w = random_floats(rng, k.in_ch * k.out_ch);
    const auto b = random_floats(rng, k.out_ch);
    const auto g = random_floats(rng, n * k.out_ch);
    std::vector<float> y(n * k.out_ch), gin(x.size()), gw(w.size()), gb(b.size());
    for (std::size_t r = 0; r < kReps; ++r) {
      const auto t0 = Clock::now();
      if (bwd) {
        kernels::dense_backward(n, k.in_ch, k.out_ch, x.data(), w.data(),
                                g.data(), gin.data(), gw.data(), gb.data());
      } else {
        kernels::dense_forward(n, k.in_ch, k.out_ch, x.data(), w.data(),
                               b.data(), y.data());
      }
      const auto t1 = Clock::now();
      log.add(span.c_str(), 0, t0, t1);
      us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
  }
  return summarize(std::move(us)).p50;
}

}  // namespace

const std::vector<LayerMetric>& layer_catalogue() {
  static const std::vector<LayerMetric> catalogue = build_catalogue();
  return catalogue;
}

void print_layer_table(const Report& rep) {
  for (const auto& m : layer_catalogue()) {
    std::printf("layer: %-34s %14.6g %-6s | moves: %s | on: %s | not on: %s\n",
                m.name, rep.has(m.name) ? rep.get(m.name) : 0.0, m.unit,
                m.moves, m.on, m.not_on);
  }
}

void decompose(const Options& opt, const LayerInputs& in, Report& rep,
               SpanLog& log) {
  auto ckpt_r = serve::Checkpoint::load(in.ckpt_dir, "decompose");
  if (!ckpt_r.is_ok()) throw std::runtime_error(ckpt_r.status().to_string());
  const auto& ckpt = *ckpt_r.value();
  const auto& scaler = *ckpt.scaler();
  const std::size_t dim = ckpt.spec().input_dim;
  auto model = ckpt.clone_model();
  ml::ModelClassifier clf(model, dim, ckpt.spec().num_classes());

  // cfg and the uncached feature sweep on the workload's programs.
  const std::size_t n_prog = std::min<std::size_t>(256, in.programs.size());
  std::vector<cfg::Cfg> graphs(n_prog);
  const auto cfg_d = time_us(n_prog, [&](std::size_t i) {
    graphs[i] = cfg::extract_cfg(*in.programs[i].program, server_cfg_options());
  });
  std::vector<double> nodes;
  for (const auto& g : graphs) nodes.push_back(static_cast<double>(g.num_nodes()));
  features::FeatureEngine engine;
  const auto feat_d = time_us(n_prog, [&](std::size_t i) {
    (void)engine.extract(graphs[i].graph, nullptr);
  });
  const auto nd = summarize(nodes);
  rep.set("cfg.extract_us", cfg_d.p50, "us");
  rep.set("cfg.extract_us_p99", cfg_d.p99, "us");
  rep.set("cfg.nodes_p50", nd.p50, "count");
  rep.set("cfg.nodes_p99", nd.p99, "count");
  rep.set("features.extract_us", feat_d.p50, "us");
  rep.set("features.extract_us_p99", feat_d.p99, "us");

  // Scaler, validator, inference, softmax and input gradients on the rows.
  const std::size_t n_rows = std::min<std::size_t>(256, in.rows.size());
  std::vector<features::FeatureVector> raw(n_rows), scaled(n_rows);
  for (std::size_t i = 0; i < n_rows; ++i) {
    std::copy(in.rows[i].features.begin(), in.rows[i].features.end(), raw[i].begin());
  }
  const auto scale_d = time_us(n_rows, [&](std::size_t i) {
    scaled[i] = scaler.transform(raw[i]);
  });
  features::DistortionValidator validator(scaler);
  const auto val_d = time_us(n_rows, [&](std::size_t i) {
    (void)validator.validate(scaled[i]);
  });
  const auto batch = [&](std::size_t first, std::size_t n) {
    ml::Tensor t({n, 1, dim});
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t j = 0; j < dim; ++j) {
        t[r * dim + j] = static_cast<float>(scaled[(first + r) % n_rows][j]);
      }
    }
    return t;
  };
  const auto b1 = time_us(n_rows, [&, t = ml::Tensor()](std::size_t i) mutable {
    t = batch(i, 1);
    (void)model.infer(t);
  });
  ml::Tensor logits16;
  const auto b16 = time_us(std::max<std::size_t>(16, n_rows / 16), [&](std::size_t i) {
    logits16 = model.infer(batch(i * 16, 16));
  });
  const auto sm = time_us(64, [&](std::size_t) { (void)ml::softmax(logits16); });
  const auto grad = time_us(n_rows, [&](std::size_t i) {
    (void)clf.grad_logit({scaled[i].begin(), scaled[i].end()}, i % 2);
  });
  rep.set("features.scale_us", scale_d.p50, "us");
  rep.set("features.validate_us", val_d.p50, "us");
  rep.set("ml.infer_b1_us", b1.p50, "us");
  rep.set("ml.infer_b16_us", b16.p50, "us");
  rep.set("ml.softmax_us", sm.p50, "us");
  rep.set("ml.grad_us", grad.p50, "us");

  // Kernels on the paper-CNN shapes, plus their computed cost.
  util::Rng rng(opt.seed ^ 0x6b65726e656c73ULL);
  for (const auto& k : kShapes) {
    const std::string base = std::string("kernels.") + k.name;
    for (const auto& [suffix, n, bwd] :
         {std::tuple<const char*, std::size_t, bool>{"fwd_b1_us", 1, false},
          {"fwd_b16_us", 16, false},
          {"bwd_b1_us", 1, true}}) {
      rep.set(base + "." + suffix, kernel_us(k, n, bwd, rng, log, base + "." + suffix), "us");
    }
    const auto fwd = k.conv ? conv1d_cost(1, k.in_ch, k.l_in, k.out_ch, 3, k.same, false)
                            : dense_cost(1, k.in_ch, k.out_ch, false);
    const auto bwd = k.conv ? conv1d_cost(1, k.in_ch, k.l_in, k.out_ch, 3, k.same, true)
                            : dense_cost(1, k.in_ch, k.out_ch, true);
    rep.set(base + ".fwd_b1_mflop", fwd.flops / 1e6, "MFLOP");
    rep.set(base + ".bwd_b1_mflop", bwd.flops / 1e6, "MFLOP");
    rep.set(base + ".fwd_b1_kib", fwd.bytes / 1024.0, "KiB");
  }
}

}  // namespace perfbench
