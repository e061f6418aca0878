#include "common.hpp"

#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "core/pipeline.hpp"
#include "features/features.hpp"
#include "kernels/config.hpp"
#include "net/socket.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using namespace gea;

// --- Report ---------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

double Report::get(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("metric not recorded: " + name);
}

void Report::fail(const std::string& what) {
  if (failures_.size() < 32) failures_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

std::string Report::json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : names) {
    const Metric* m = nullptr;
    for (const auto& x : metrics_) {
      if (x.name == name) m = &x;
    }
    if (m == nullptr) throw std::logic_error("metric not measured: " + name);
    if (!std::isfinite(m->value)) {
      throw std::logic_error("metric not finite: " + name);
    }
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m->value);
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m->unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Environment ------------------------------------------------------------

namespace {

/// A fixed amount of dependent floating-point work.
double spin(std::uint64_t iters) {
  double x = 1.0;
  for (std::uint64_t i = 0; i < iters; ++i) x = x * 1.0000001 + 1e-9;
  return x;
}

double spin_wall_s(unsigned threads, std::uint64_t iters) {
  std::atomic<double> sink{0.0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] { sink.store(spin(iters)); });
  }
  for (auto& th : pool) th.join();
  return seconds_since(t0);
}

}  // namespace

CpuTicks read_cpu_ticks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int field = 0; field < 10; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    if (field < 8) t.total += v;  // guest time is already in user/nice
    if (field == 7) t.steal = v;
  }
  return t;
}

void print_host_steal(const Environment& env) {
  const auto now = read_cpu_ticks();
  const double total = now.total - env.ticks.total;
  std::printf("host: steal_share=%.4f of the VM's CPU time during the run\n",
              total > 0.0 ? (now.steal - env.ticks.steal) / total : 0.0);
}

Environment probe_environment() {
  Environment env;
  env.ticks = read_cpu_ticks();
  env.hardware_concurrency = std::thread::hardware_concurrency();
  // Calibrate the spin to ~40 ms on one thread, then time it at 1, 2 and
  // nproc threads; taking the best of three damps scheduler noise.
  std::uint64_t iters = 1 << 20;
  while (spin_wall_s(1, iters) < 0.04 && iters < (1ull << 34)) iters *= 2;
  std::vector<unsigned> counts = {1, 2};
  if (env.hardware_concurrency > 2) counts.push_back(env.hardware_concurrency);
  double t1 = 0.0;
  for (unsigned t : counts) {
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) best = std::min(best, spin_wall_s(t, iters));
    if (t == 1) {
      t1 = best;
      env.spin_ns = best / static_cast<double>(iters) * 1e9;
    }
    env.effective_parallelism.emplace_back(t, t * t1 / best);
  }
  const auto kc = kernels::active_config();
  env.kernel_config = kc.summary();
  env.kernel_source = kernels::source_name(kc.source);
  env.build_type = PERFBENCH_BUILD_TYPE;
  return env;
}

void print_environment(const Environment& env, const Options& opt) {
  std::printf("env: workload=%s seed=%llu seconds=%g trace=%d build=%s "
              "hardware_concurrency=%u",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, env.build_type.c_str(),
              env.hardware_concurrency);
  for (const auto& [t, e] : env.effective_parallelism) {
    std::printf(" eff_par@%u=%.2f", t, e);
  }
  std::printf(" spin_ns=%.4f", env.spin_ns);
  std::printf(" kernel_config=\"%s\" kernel_source=%s\n",
              env.kernel_config.c_str(), env.kernel_source.c_str());
}

// --- Traffic --------------------------------------------------------------

namespace {

using bingen::Family;

Family draw(util::Rng& rng, const std::vector<std::pair<Family, double>>& mix) {
  double u = rng.uniform();
  for (const auto& [f, w] : mix) {
    if (u < w) return f;
    u -= w;
  }
  return mix.back().first;
}

}  // namespace

std::vector<TrafficSample> make_traffic(std::uint64_t seed, std::size_t n,
                                        bool with_features) {
  static const std::vector<std::pair<Family, double>> benign = {
      {Family::kBenignUtility, 0.50},
      {Family::kBenignNetTool, 0.30},
      {Family::kBenignDaemon, 0.20}};
  static const std::vector<std::pair<Family, double>> malicious = {
      {Family::kGafgytLike, 0.55},
      {Family::kMiraiLike, 0.35},
      {Family::kTsunamiLike, 0.10}};
  constexpr double kMaliciousShare = 2281.0 / (2281.0 + 276.0);  // Table I

  util::Rng rng(seed);
  features::FeatureEngine engine;
  std::vector<TrafficSample> out(n);
  for (auto& s : out) {
    const bool mal = rng.uniform() < kMaliciousShare;
    s.family = draw(rng, mal ? malicious : benign);
    s.label = mal ? 1 : 0;
    s.program = bingen::generate_program(s.family, rng);
    if (with_features) s.features = featurize(s.program, engine, &s.nodes);
  }
  return out;
}

cfg::CfgOptions server_cfg_options() {
  cfg::CfgOptions opts;
  opts.main_only = true;
  opts.label_blocks = false;
  return opts;
}

std::vector<double> featurize(const isa::Program& program,
                              features::FeatureEngine& engine,
                              std::size_t* nodes) {
  const auto g = cfg::extract_cfg(program, server_cfg_options());
  if (nodes != nullptr) *nodes = g.num_nodes();
  const auto fv = engine.extract(g.graph, nullptr);
  return {fv.begin(), fv.end()};
}

void print_traffic(const std::string& workload,
                   const std::vector<const TrafficSample*>& sent,
                   double hot_share, double cache_hit_ratio) {
  std::map<std::string, std::size_t> mix;
  std::size_t mal = 0;
  std::vector<double> nodes;
  for (const auto* s : sent) {
    ++mix[bingen::family_name(s->family)];
    mal += s->label;
    if (s->nodes > 0) nodes.push_back(static_cast<double>(s->nodes));
  }
  const auto d = summarize(nodes);
  std::printf("traffic: workload=%s ops=%zu malicious_share=%.4f", workload.c_str(),
              sent.size(),
              sent.empty() ? 0.0 : static_cast<double>(mal) / sent.size());
  for (const auto& [name, count] : mix) std::printf(" %s=%zu", name.c_str(), count);
  std::printf(" cfg_nodes_p50=%.1f cfg_nodes_p99=%.1f (n=%zu)", d.p50, d.p99,
              d.n);
  if (hot_share >= 0.0) std::printf(" hot_share=%.4f", hot_share);
  if (cache_hit_ratio >= 0.0) std::printf(" cache_hit_ratio=%.4f", cache_hit_ratio);
  std::printf("\n");
}

// --- Model --------------------------------------------------------------

RunCheckpoint::RunCheckpoint(const Options& opt,
                             core::DetectionPipeline* trained) {
  namespace fs = std::filesystem;
  std::unique_ptr<core::DetectionPipeline> own;
  if (trained == nullptr) {
    const auto t0 = Clock::now();
    auto res = core::DetectionPipeline::run_checked(core::quick_config());
    if (!res.is_ok()) throw std::runtime_error(res.status().to_string());
    own = std::move(res.value());
    trained = own.get();
    std::printf("setup: trained the quick-config detector in %.3f s (not part "
                "of setup_s)\n", seconds_since(t0));
  }
  dir_ = opt.work_dir + "/ckpt-" + std::to_string(::getpid());
  fs::remove_all(dir_);
  auto st = serve::Checkpoint::write(dir_, trained->model(), &trained->scaler());
  if (!st.is_ok()) throw std::runtime_error(st.to_string());
}

RunCheckpoint::~RunCheckpoint() {
  std::error_code ec;
  std::filesystem::remove_all(dir_, ec);
}

Reference::Reference(const serve::Checkpoint& ckpt)
    : ckpt_(&ckpt), model_(ckpt.clone_model()) {}

std::vector<double> Reference::scaled(const std::vector<double>& raw) const {
  features::FeatureVector fv{};
  std::copy(raw.begin(), raw.end(), fv.begin());
  const auto s = ckpt_->scaler()->transform(fv);
  return {s.begin(), s.end()};
}

std::vector<double> Reference::logits(const std::vector<double>& raw) {
  ml::ModelClassifier clf(model_, ckpt_->spec().input_dim,
                          ckpt_->spec().num_classes());
  return clf.logits(scaled(raw));
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- Serving stack ---------------------------------------------------------

Stack::~Stack() {
  if (admin) admin->stop();
  if (transport) transport->stop();
  if (server) server->stop();
  admin.reset();
  transport.reset();
  server.reset();
}

std::unique_ptr<Stack> start_stack(const std::string& ckpt_dir,
                                   const StackConfig& cfg, std::string* error) {
  auto stack = std::make_unique<Stack>();
  if (auto st = stack->registry.load("quick", ckpt_dir); !st.is_ok()) {
    *error = st.to_string();
    return nullptr;
  }
  serve::ServerConfig scfg;
  scfg.workers = cfg.workers;
  stack->server = std::make_unique<serve::DetectionServer>(stack->registry, scfg);
  if (cfg.transport) {
    serve::TransportConfig tcfg;
    tcfg.fault_injection = false;
    stack->transport =
        std::make_unique<serve::TransportServer>(*stack->server, tcfg);
    if (auto st = stack->transport->start(); !st.is_ok()) {
      *error = st.to_string();
      return nullptr;
    }
  }
  if (cfg.admin) {
    serve::AdminConfig acfg;
    acfg.fault_injection = false;
    serve::AdminHooks hooks;
    hooks.server = stack->server.get();
    hooks.transport = stack->transport.get();
    stack->admin = std::make_unique<serve::AdminServer>(acfg, hooks);
    if (auto st = stack->admin->start(); !st.is_ok()) {
      *error = st.to_string();
      return nullptr;
    }
  }
  return stack;
}

int pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) CPU_SET(cpu, &set);
  const bool ok = cpu >= 0 && sched_setaffinity(0, sizeof set, &set) == 0;
  std::printf("pin: cpu=%d%s\n", ok ? cpu : -1, ok ? "" : " (binding failed, unbound)");
  return ok ? cpu : -1;
}

std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& target,
                                    int timeout_ms) {
  auto sock = net::connect_to("127.0.0.1", port, timeout_ms);
  if (!sock.is_ok()) return std::nullopt;
  auto& s = sock.value();
  const std::string req = "GET " + target + " HTTP/1.0\r\n\r\n";
  const auto t0 = Clock::now();
  const auto expired = [&] { return seconds_since(t0) * 1000.0 > timeout_ms; };
  std::size_t sent = 0;
  while (sent < req.size()) {
    auto io = s.write_some(reinterpret_cast<const std::uint8_t*>(req.data()) + sent,
                           req.size() - sent);
    if (!io.ok() || io.eof) return std::nullopt;
    sent += io.bytes;
    if (io.would_block) {
      if (expired()) return std::nullopt;
      (void)s.poll_one(POLLOUT, 10);
    }
  }
  std::string out;
  std::uint8_t buf[8192];
  for (;;) {
    auto io = s.read_some(buf, sizeof buf);
    if (!io.ok()) return std::nullopt;
    out.append(reinterpret_cast<const char*>(buf), io.bytes);
    if (io.eof) break;
    if (io.would_block) {
      if (expired()) return std::nullopt;
      (void)s.poll_one(POLLIN, 10);
    }
  }
  return out;
}

/// Server-side batch shape from the DetectionServer's own histogram delta.
void batch_metrics(const serve::StatsSnapshot& before,
                   const serve::StatsSnapshot& after, Report& rep) {
  std::uint64_t batches = 0, items = 0, ones = 0;
  for (const auto& [size, count] : after.batch_sizes) {
    auto it = before.batch_sizes.find(size);
    const std::uint64_t c = count - (it == before.batch_sizes.end() ? 0 : it->second);
    batches += c;
    items += c * size;
    if (size == 1) ones += c;
  }
  rep.set("serve.batch_mean", batches ? double(items) / batches : 0.0, "count");
  rep.set("serve.batch1_share", batches ? double(ones) / batches : 0.0, "ratio");
}

double process_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %llu}}%s\n",
                  s.name.c_str(), s.thread, s.start_us, s.dur_us,
                  static_cast<unsigned long long>(s.op),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace perfbench
