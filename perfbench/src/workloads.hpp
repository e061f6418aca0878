// The three workloads and the per-layer decomposition pass.
//
//   wire_features    open loop over loopback TCP (net, transport, queue,
//                    batching; no featurization)
//   inproc_programs  closed loop of DetectionServer::submit(program) (CFG
//                    extraction, feature sweep, feature cache)
//   attack_campaign  offline batch of adversarial crafting (batch-1 forward
//                    plus backward, GEA grafts through cfg/features/isa)
//
// Each run_* fills the end-to-end metrics of its workload (untraced run) or
// the per-layer metrics (traced run). In a traced run, the layers a workload
// does not exercise itself are measured by the *_layers companions on that
// workload's own inputs, so every per-layer metric is reported every time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One wire request row: raw features, ground truth and the per-sample
/// reference logits every verdict for it must equal bit for bit.
struct WireRow {
  std::vector<double> features;
  std::uint8_t label = 0;
  std::vector<double> ref_logits;
};

/// Program input for the in-process and GEA paths.
struct ProgramInput {
  const gea::isa::Program* program = nullptr;
  std::uint8_t label = 0;
  std::size_t nodes = 0;
  /// Reference logits (empty = not reference-checked).
  std::vector<double> ref_logits;
};

/// Inputs every traced run hands to the decomposition pass and companions.
struct LayerInputs {
  std::string ckpt_dir;
  std::vector<WireRow> rows;           // raw features + reference
  std::vector<ProgramInput> programs;  // programs with labels
};

void run_wire(const Options& opt, Report& rep, std::vector<Span>& spans);
void run_inproc(const Options& opt, Report& rep, std::vector<Span>& spans);
void run_attack(const Options& opt, Report& rep, std::vector<Span>& spans);

/// Short traced passes of the other workloads' mechanisms on `in`; each
/// sets only the per-layer metrics not already in `rep`.
void wire_layers(const Options& opt, const LayerInputs& in, Report& rep,
                 SpanLog& log);
void inproc_layers(const Options& opt, const LayerInputs& in, Report& rep,
                   SpanLog& log);
void attack_layers(const Options& opt, const LayerInputs& in, Report& rep,
                   SpanLog& log);

/// Replays `in` through each layer's public function one call at a time
/// (codecs, cfg, features, scaler, validator, Model::infer b1/b16, softmax,
/// the paper-CNN kernels, grad_logit, GEA embed, isa::execute).
void decompose(const Options& opt, const LayerInputs& in, Report& rep,
               SpanLog& log);

/// Per-layer metric catalogue: name, unit, and which end-to-end metric it
/// should move on which workload (and where it should not move).
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
  const char* not_on;
};
const std::vector<LayerMetric>& layer_catalogue();

/// Prints the catalogue with the measured values.
void print_layer_table(const Report& rep);

/// Threads that drive load: at most nproc; the host delivers about 2 cores.
constexpr std::size_t kLoadThreads = 2;

}  // namespace perfbench
