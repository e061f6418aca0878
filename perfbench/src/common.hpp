// Shared pieces of the benchmark: options, the metric report, traffic made
// by bingen, the trained checkpoint, the serving stack and small helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bingen/families.hpp"
#include "cfg/cfg.hpp"
#include "features/engine.hpp"
#include "isa/program.hpp"
#include "measure.hpp"
#include "ml/model.hpp"
#include "serve/admin.hpp"
#include "serve/checkpoint.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace gea::core {
class DetectionPipeline;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Latency limit on p99 that a rate-ladder rung must meet (also the limit
  /// behind the goodput form of slo_rps on the other workloads).
  double slo_p99_ms = 50.0;
  /// Where the run's checkpoint and the span files go (inside the checkout).
  std::string work_dir = ".bench_build/perfbench-work";
};

/// Metrics by name with units, plus the correctness verdict of the run.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;
  double get(const std::string& name) const;
  /// A failed correctness check: the run prints its metrics and exits 1.
  void fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
};

// --- Environment ------------------------------------------------------------

/// All-CPU tick counters of the host (first line of /proc/stat): total and
/// the part the hypervisor stole. Zero when /proc/stat cannot be read.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks read_cpu_ticks();

struct Environment {
  unsigned hardware_concurrency = 0;
  std::vector<std::pair<unsigned, double>> effective_parallelism;
  /// One thread's speed on the calibrated spin (ns per iteration): a run on a
  /// host whose CPUs are slowed by neighbours shows it here.
  double spin_ns = 0.0;
  /// /proc/stat's all-CPU tick counters when the run started.
  CpuTicks ticks;
  std::string kernel_config;
  std::string kernel_source;
  std::string build_type;
};

/// hardware_concurrency, a calibrated spin at 1, 2 and nproc threads
/// (effective parallelism = threads x t1 / tN), and the active KernelConfig.
Environment probe_environment();
void print_environment(const Environment& env, const Options& opt);
/// Prints the share of the host's CPU time stolen since the run started.
void print_host_steal(const Environment& env);

// --- Traffic --------------------------------------------------------------

/// One generated program with its ground truth. `features` and `nodes` are
/// filled only when the caller asked for featurization.
struct TrafficSample {
  gea::bingen::Family family{};
  std::uint8_t label = 0;  // 0 benign, 1 malicious (binary schema order)
  gea::isa::Program program;
  std::vector<double> features;
  std::size_t nodes = 0;
};

/// Table I class mix: 2281 malicious of 2557 (89%); within a class, the
/// corpus family weights. Deterministic in `seed`.
std::vector<TrafficSample> make_traffic(std::uint64_t seed, std::size_t n,
                                        bool featurize);

/// The CFG options DetectionServer::submit(program) uses.
gea::cfg::CfgOptions server_cfg_options();

/// Uncached program -> 23 features, as the server computes them.
std::vector<double> featurize(const gea::isa::Program& program,
                              gea::features::FeatureEngine& engine,
                              std::size_t* nodes = nullptr);

/// Prints the class mix, CFG nodes p50/p99 and, when given, the hot-set
/// share and cache hit ratio of a workload's traffic.
void print_traffic(const std::string& workload,
                   const std::vector<const TrafficSample*>& sent,
                   double hot_share, double cache_hit_ratio);

// --- Model --------------------------------------------------------------

/// The quick-config checkpoint of one run, written under the work dir and
/// removed when the run ends. Nothing is cached between runs: every run
/// serves the model that the code under test trains.
class RunCheckpoint {
 public:
  /// Writes `trained`'s model and scaler; when null, first trains a fresh
  /// DetectionPipeline::run(quick_config()) (deterministic) and prints how
  /// long that took. Training is never part of setup_s.
  explicit RunCheckpoint(const Options& opt,
                         gea::core::DetectionPipeline* trained = nullptr);
  ~RunCheckpoint();
  RunCheckpoint(const RunCheckpoint&) = delete;
  RunCheckpoint& operator=(const RunCheckpoint&) = delete;
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

/// The per-sample reference: scale with the checkpoint's scaler, then one
/// Model::forward on a private replica.
class Reference {
 public:
  explicit Reference(const gea::serve::Checkpoint& ckpt);
  std::vector<double> logits(const std::vector<double>& raw_features);
  std::vector<double> scaled(const std::vector<double>& raw_features) const;

 private:
  const gea::serve::Checkpoint* ckpt_;
  gea::ml::Model model_;
};

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b);

// --- Serving stack ---------------------------------------------------------

struct StackConfig {
  bool transport = false;
  bool admin = false;
  std::size_t workers = 2;  // the host delivers about 2 cores
};

/// Registry + DetectionServer (+ TransportServer + AdminServer), torn down
/// in reverse order.
struct Stack {
  gea::serve::ModelRegistry registry;
  std::unique_ptr<gea::serve::DetectionServer> server;
  std::unique_ptr<gea::serve::TransportServer> transport;
  std::unique_ptr<gea::serve::AdminServer> admin;
  ~Stack();
};

/// Load the checkpoint and start the stack. Fails on any load/start error.
std::unique_ptr<Stack> start_stack(const std::string& ckpt_dir,
                                   const StackConfig& cfg,
                                   std::string* error);

/// serve.batch_mean and serve.batch1_share from the DetectionServer's own
/// batch-size histogram, between two snapshots.
void batch_metrics(const gea::serve::StatsSnapshot& before,
                   const gea::serve::StatsSnapshot& after, Report& rep);

/// GET over loopback HTTP/1.0 (close-delimited). nullopt on any failure.
std::optional<std::string> http_get(std::uint16_t port,
                                    const std::string& target,
                                    int timeout_ms = 2000);

/// Binds the calling thread, and every thread it starts afterwards, to the
/// CPU it is running on, and prints that CPU. Returns it, or -1 when the
/// binding failed (the run then goes on unbound and says so).
int pin_to_one_cpu();

/// Process user+sys CPU seconds (getrusage).
double process_cpu_s();
/// Peak resident set of the process in MiB.
double peak_rss_mib();

/// Writes spans as Chrome trace JSON (one event per span).
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
