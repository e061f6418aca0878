// inproc_programs: closed loop of DetectionServer::submit(const isa::Program&).
//
// Why: CFG extraction and the feature sweep dominate here and the wire does
// nothing. Two caller threads submit programs with their natural size spread;
// about half the requests resubmit a program from a hot set smaller than the
// server's 256-entry feature cache, the rest are programs drawn from a pool
// 12x the cache, so each is long evicted before it comes round again. The mix
// exercises the feature cache both ways.
#include <atomic>
#include <cstdio>
#include <thread>

#include "features/features.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace gea;

namespace {

constexpr std::size_t kHot = 64;         // < 256-entry server cache
constexpr std::size_t kColdPool = 3072;  // 12x the cache
constexpr double kHotShare = 0.5;
constexpr std::size_t kRefEvery = 16;    // cold programs reference-checked

struct ClosedStats {
  std::size_t sent = 0, ok = 0, failed = 0, mismatched = 0, right_class = 0,
              hot = 0;
  std::vector<double> latency_ms, submit_ms, queue_ms, infer_ms, coverage;
  std::vector<const ProgramInput*> programs;
  std::vector<Timed> timed_latency;  // by completion, seconds into the loop
  double wall_s = 0.0, cpu_s = 0.0;
  std::uint64_t cache_hits = 0, cache_misses = 0;

  void merge(const ClosedStats& o) {
    sent += o.sent;
    ok += o.ok;
    failed += o.failed;
    mismatched += o.mismatched;
    right_class += o.right_class;
    hot += o.hot;
    const auto cat = [](auto& a, const auto& b) { a.insert(a.end(), b.begin(), b.end()); };
    cat(latency_ms, o.latency_ms);
    cat(submit_ms, o.submit_ms);
    cat(queue_ms, o.queue_ms);
    cat(infer_ms, o.infer_ms);
    cat(coverage, o.coverage);
    cat(programs, o.programs);
    cat(timed_latency, o.timed_latency);
  }
};

/// Request i resubmits hot program choice[i] (< hot) or the next cold one.
struct Plan {
  std::vector<std::uint32_t> choice;  // index into inputs
  std::vector<std::uint8_t> is_hot;
};

Plan make_plan(std::uint64_t seed, std::size_t hot, std::size_t total,
               std::size_t n) {
  Plan p;
  util::Rng rng(seed ^ 0x51ed270b27e3a1c5ULL);
  std::size_t cold = hot;
  for (std::size_t i = 0; i < n; ++i) {
    const bool h = rng.uniform() < kHotShare;
    p.is_hot.push_back(h ? 1 : 0);
    if (h) {
      p.choice.push_back(static_cast<std::uint32_t>(rng.uniform_int(0, hot - 1)));
    } else {
      p.choice.push_back(static_cast<std::uint32_t>(cold));
      cold = cold + 1 < total ? cold + 1 : hot;
    }
  }
  return p;
}

/// Two caller threads, each submit -> wait, until `seconds` pass.
ClosedStats closed_loop(Stack& stack, const std::vector<ProgramInput>& inputs,
                        const Plan& plan, std::atomic<std::size_t>& next,
                        double seconds, std::vector<SpanLog>* logs) {
  auto& cache = *stack.server->feature_cache();
  const auto h0 = cache.hits(), m0 = cache.misses();
  const double cpu0 = process_cpu_s();
  const auto start = Clock::now();
  std::vector<ClosedStats> per(kLoadThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      SpanLog* log = logs ? &(*logs)[t] : nullptr;
      auto& st = per[t];
      while (seconds_since(start) < seconds) {
        const std::size_t i = next.fetch_add(1) % plan.choice.size();
        const auto& in = inputs[plan.choice[i]];
        const auto t0 = Clock::now();
        auto fut = stack.server->submit(*in.program);
        const auto t1 = Clock::now();
        auto r = fut.get();
        const auto t2 = Clock::now();
        ++st.sent;
        st.hot += plan.is_hot[i];
        st.programs.push_back(&in);
        if (!r.is_ok()) {
          ++st.failed;
          continue;
        }
        ++st.ok;
        const auto& v = r.value();
        const double lat = std::chrono::duration<double, std::milli>(t2 - t0).count();
        const double sub = std::chrono::duration<double, std::milli>(t1 - t0).count();
        st.latency_ms.push_back(lat);
        st.timed_latency.push_back(
            {std::chrono::duration<double>(t2 - start).count(), lat});
        st.submit_ms.push_back(sub);
        st.queue_ms.push_back(v.queue_ms);
        st.infer_ms.push_back(v.infer_ms);
        if (log) {
          log->add("serve.submit", st.sent, t0, t1);
          st.coverage.push_back((sub + v.queue_ms + v.infer_ms) / lat);
        }
        if (!in.ref_logits.empty() && !bitwise_equal(v.logits, in.ref_logits)) {
          ++st.mismatched;
        }
        if (v.predicted == in.label) ++st.right_class;
      }
    });
  }
  for (auto& th : threads) th.join();
  ClosedStats all;
  for (const auto& s : per) all.merge(s);
  all.wall_s = seconds_since(start);
  all.cpu_s = process_cpu_s() - cpu0;
  all.cache_hits = cache.hits() - h0;
  all.cache_misses = cache.misses() - m0;
  return all;
}

void check(const char* phase, const ClosedStats& st, Report& rep) {
  std::printf("phase: inproc %-8s sent=%zu ok=%zu failed=%zu\n", phase, st.sent,
              st.ok, st.failed);
  rep.attempted += st.sent;
  rep.failed += st.failed;
  if (st.mismatched > 0) {
    rep.fail(std::string("inproc ") + phase + ": " + std::to_string(st.mismatched) +
             " verdicts differ from the per-sample Model::forward reference");
  }
}

double hit_ratio(const ClosedStats& st) {
  const auto n = st.cache_hits + st.cache_misses;
  return n ? double(st.cache_hits) / n : 0.0;
}

void closed_layers(const ClosedStats& st, Report& rep) {
  const auto s = summarize(st.submit_ms);
  const auto q = summarize(st.queue_ms);
  const auto i = summarize(st.infer_ms);
  rep.set("serve.submit_ms", s.p50, "ms");
  rep.set("serve.submit_ms_p99", s.p99, "ms");
  rep.set("features.cache_hit_ratio", hit_ratio(st), "ratio");
  rep.set("serve.queue_wait_ms", q.p50, "ms");
  rep.set("serve.queue_wait_ms_p99", q.p99, "ms");
  rep.set("serve.infer_ms", i.p50, "ms");
  rep.set("serve.infer_ms_p99", i.p99, "ms");
}

/// Inputs: `hot` programs then the cold pool, with nodes counted and the
/// reference logits of the hot set and every kRefEvery-th cold program.
std::vector<ProgramInput> make_inputs(std::vector<TrafficSample>& traffic,
                                      std::size_t hot, Reference& ref) {
  std::vector<ProgramInput> inputs;
  inputs.reserve(traffic.size());
  features::FeatureEngine engine;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    auto& s = traffic[i];
    ProgramInput in{&s.program, s.label, 0, {}};
    if (i < hot || i % kRefEvery == 0) {
      in.ref_logits = ref.logits(featurize(s.program, engine, &in.nodes));
    } else {
      in.nodes = cfg::extract_cfg(s.program, server_cfg_options()).num_nodes();
    }
    s.nodes = in.nodes;
    inputs.push_back(std::move(in));
  }
  return inputs;
}

std::unique_ptr<Stack> timed_setup(const std::string& ckpt_dir,
                                   const ProgramInput& first, double* seconds) {
  const auto t0 = Clock::now();
  std::string err;
  auto stack = start_stack(ckpt_dir, {}, &err);
  if (!stack) throw std::runtime_error("inproc set-up failed: " + err);
  auto r = stack->server->detect(*first.program);
  if (!r.is_ok()) throw std::runtime_error("inproc first verdict failed");
  *seconds = seconds_since(t0);
  return stack;
}

}  // namespace

void run_inproc(const Options& opt, Report& rep, std::vector<Span>& spans) {
  const RunCheckpoint ckpt(opt);
  const std::string& ckpt_dir = ckpt.dir();
  auto probe = serve::Checkpoint::load(ckpt_dir, "reference");
  if (!probe.is_ok()) throw std::runtime_error(probe.status().to_string());
  Reference ref(*probe.value());
  auto traffic = make_traffic(opt.seed, kHot + kColdPool, false);
  const auto inputs = make_inputs(traffic, kHot, ref);
  const auto plan = make_plan(opt.seed, kHot, inputs.size(), 1 << 18);
  // Set-up, callers and server workers all run on one CPU. Each op hands off
  // caller -> worker -> caller; spread over several vCPUs of a shared host,
  // it stalls whenever any of them is descheduled, which made throughput and
  // p99 swing with the neighbours' load. On one CPU the op costs what its CPU
  // work costs, and the 2 callers keep that CPU busy.
  pin_to_one_cpu();

  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  const int reps = opt.trace ? 1 : 25;
  for (int i = 0; i < reps; ++i) {
    stack.reset();
    double s = 0.0;
    // A cold program each time, so every set-up pays one featurization.
    stack = timed_setup(ckpt_dir, inputs[kHot + i], &s);
    setups.push_back(s);
  }
  // Warm-up (not measured): every hot program once, then 0.3 s of the mix.
  for (std::size_t i = 0; i < kHot; ++i) (void)stack->server->detect(*inputs[i].program);
  std::atomic<std::size_t> next{0};
  (void)closed_loop(*stack, inputs, plan, next, 0.3, nullptr);

  if (!opt.trace) {
    auto st = closed_loop(*stack, inputs, plan, next, opt.seconds, nullptr);
    check("measure", st, rep);
    // Throughput, CPU and goodput are over the whole measured phase; p50 and
    // p99 are the medians of the phase's one-second windows (measure.hpp).
    const auto lat = summarize(st.latency_ms);
    const auto win = windowed(st.timed_latency, 1.0);
    std::printf("latency: closed n=%zu p50=%.4f p99=%.4f tail_p=%g wall_s=%.3f "
                "windows=%zu window_p50=%.4f window_p99=%.4f\n",
                lat.n, lat.p50, lat.p99, lat.tail_p, st.wall_s, win.windows,
                win.p50, win.p99);
    std::size_t good = 0;
    for (double l : st.latency_ms) good += l <= opt.slo_p99_ms;
    rep.set("setup_s", summarize(setups).p50, "s");
    rep.set("throughput_ops", st.ok / st.wall_s, "ops/s");
    rep.set("cpu_us_per_op", st.ok ? st.cpu_s / st.ok * 1e6 : 0.0, "us");
    rep.set("latency_p50_ms", win.p50, "ms");
    rep.set("latency_p99_ms", win.p99, "ms");
    // Goodput: ops that met the latency limit per wall-clock second.
    rep.set("slo_rps", good / st.wall_s, "req/s");
    rep.set("accuracy", st.ok ? double(st.right_class) / st.ok : 0.0, "ratio");
    std::vector<const TrafficSample*> sent;
    for (const auto* p : st.programs) {
      sent.push_back(&traffic[static_cast<std::size_t>(p - inputs.data())]);
    }
    print_traffic("inproc_programs", sent,
                  st.sent ? double(st.hot) / st.sent : 0.0, hit_ratio(st));
    return;
  }

  // Traced run: untraced then traced closed loop (the CPU gap per op is the
  // tracing overhead), then companions and the decomposition.
  std::vector<SpanLog> logs;
  const auto epoch = Clock::now();
  for (std::size_t i = 0; i < kLoadThreads; ++i) logs.emplace_back(epoch, i + 1);
  auto plain = closed_loop(*stack, inputs, plan, next, 0.3 * opt.seconds, nullptr);
  check("plain", plain, rep);
  const auto before = stack->server->stats();
  auto traced = closed_loop(*stack, inputs, plan, next, 0.4 * opt.seconds, &logs);
  const auto after = stack->server->stats();
  check("traced", traced, rep);
  stack.reset();
  batch_metrics(before, after, rep);
  const double cpu_plain = plain.cpu_s / std::max<std::size_t>(1, plain.ok);
  const double cpu_traced = traced.cpu_s / std::max<std::size_t>(1, traced.ok);
  rep.set("trace_overhead_pct", (cpu_traced - cpu_plain) / cpu_plain * 100.0, "%");
  rep.set("layers.coverage_p50", summarize(traced.coverage).p50, "ratio");
  closed_layers(traced, rep);
  SpanLog merged(epoch, 0);
  for (const auto& l : logs) merged.append(l);

  LayerInputs in;
  in.ckpt_dir = ckpt_dir;
  features::FeatureEngine engine;
  for (std::size_t i = 0; i < inputs.size() && in.rows.size() < 512; ++i) {
    if (inputs[i].ref_logits.empty()) continue;
    in.rows.push_back({featurize(*inputs[i].program, engine), inputs[i].label,
                       inputs[i].ref_logits});
  }
  for (std::size_t i = 0; i < 512 && i < inputs.size(); ++i) in.programs.push_back(inputs[i]);
  wire_layers(opt, in, rep, merged);
  attack_layers(opt, in, rep, merged);
  decompose(opt, in, rep, merged);
  spans = merged.spans();
}

void inproc_layers(const Options& opt, const LayerInputs& in, Report& rep,
                   SpanLog& log) {
  double s = 0.0;
  auto stack = timed_setup(in.ckpt_dir, in.programs.front(), &s);
  const std::size_t hot = std::min<std::size_t>(kHot, in.programs.size() / 4);
  const auto plan = make_plan(opt.seed, std::max<std::size_t>(1, hot),
                              in.programs.size(), 4096);
  std::atomic<std::size_t> next{0};
  std::vector<SpanLog> logs;
  const auto epoch = Clock::now();
  for (std::size_t i = 0; i < kLoadThreads; ++i) logs.emplace_back(epoch, 200 + i);
  (void)closed_loop(*stack, in.programs, plan, next, 0.2, nullptr);
  auto st = closed_loop(*stack, in.programs, plan, next, 0.5, &logs);
  check("companion", st, rep);
  Report own;
  closed_layers(st, own);
  for (const auto& m : layer_catalogue()) {
    if (!rep.has(m.name) && own.has(m.name)) rep.set(m.name, own.get(m.name), m.unit);
  }
  for (const auto& l : logs) log.append(l);
}

}  // namespace perfbench
