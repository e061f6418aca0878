// Dense-math kernel bench, written to BENCH_gemm.json.
//
// Measures the tiled kernels (kernels::conv1d_* / dense_* over
// kernels::gemm) against the retained seed-era loop nests
// (kernels/reference.hpp) on the paper CNN's layer shapes — the exact
// forward/backward math one training step and one batched Model::infer
// spend their time in. Two timed paths per shape:
//
//   - reference: the seed loops — the pre-kernel baseline;
//   - tuned: the kernel layer on its compiled tile (the key keeps its old
//     name so baselines and gates stay comparable).
//
// The headline `tuned_speedup` (sum of reference times / sum of tuned
// times over the batched-inference forward shapes) is gated in CI by
// tools/bench_check.
//
// A second, ungated table times the batch-1 calls a served request and an
// attack gradient make for dense1 (368 -> 512) and conv2/3/4: forward and
// input gradient with W packed per call (the free functions without a
// pack) vs packed once (kernels::WeightPack, what ml::Dense and ml::Conv1D
// run). The packed outputs must be bitwise equal
// to the per-call ones ("batch1_bitwise_ok"), or the bench exits 1.
//
// Before timing, every shape's kernel output is checked ULP-bounded
// against the reference; a divergence aborts with exit 1 (a benchmark of
// a wrong result is worthless) and is reported as "ulp_ok": 0.
//
//   $ ./bench/gemm_bench [--smoke]
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/reference.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace gea;

/// One paper-CNN layer op to time: a conv (k > 0) or dense (k == 0) shape,
/// forward or backward.
struct LayerCase {
  std::string label;
  kernels::Conv1DShape conv;   // conv.k > 0 => conv case
  std::size_t in = 0, out = 0; // dense case
  bool backward = false;
  bool infer_shape = true;     // counted in the headline speedup
};

/// The four conv + two dense layers of the paper CNN (23-feature input),
/// at serving batch 16, forward and backward.
std::vector<LayerCase> paper_cnn_cases(std::size_t batch) {
  std::vector<LayerCase> cases;
  auto conv = [&](std::string label, std::size_t in_ch, std::size_t l_in,
                  std::size_t out_ch, bool same) {
    LayerCase c;
    c.label = std::move(label);
    c.conv = {batch, in_ch, l_in, out_ch, 3, same};
    cases.push_back(c);
    c.label += "_bwd";
    c.backward = true;
    c.infer_shape = false;
    cases.push_back(c);
  };
  auto dense = [&](std::string label, std::size_t in, std::size_t out) {
    LayerCase c;
    c.label = std::move(label);
    c.in = in;
    c.out = out;
    c.conv.n = batch;
    cases.push_back(c);
    c.label += "_bwd";
    c.backward = true;
    c.infer_shape = false;
    cases.push_back(c);
  };
  conv("conv1", 1, 23, 46, true);
  conv("conv2", 46, 23, 46, false);
  conv("conv3", 46, 10, 92, true);
  conv("conv4", 92, 10, 92, false);
  dense("dense1", 368, 512);
  dense("dense2", 512, 2);
  return cases;
}

struct CaseBuffers {
  std::vector<float> x, w, b, grad_out;
  std::vector<float> y, gx, gw, gb;
};

CaseBuffers make_buffers(const LayerCase& c, util::Rng& rng) {
  CaseBuffers buf;
  auto fill = [&](std::vector<float>& v, std::size_t n) {
    v.resize(n);
    for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  };
  if (c.conv.k > 0) {
    fill(buf.x, c.conv.n * c.conv.in_ch * c.conv.l_in);
    fill(buf.w, c.conv.out_ch * c.conv.in_ch * c.conv.k);
    fill(buf.b, c.conv.out_ch);
    fill(buf.grad_out, c.conv.n * c.conv.out_ch * c.conv.l_out());
    buf.y.resize(buf.grad_out.size());
    buf.gx.resize(buf.x.size());
    buf.gw.resize(buf.w.size());
    buf.gb.resize(buf.b.size());
  } else {
    fill(buf.x, c.conv.n * c.in);
    fill(buf.w, c.out * c.in);
    fill(buf.b, c.out);
    fill(buf.grad_out, c.conv.n * c.out);
    buf.y.resize(buf.grad_out.size());
    buf.gx.resize(buf.x.size());
    buf.gw.resize(buf.w.size());
    buf.gb.resize(buf.b.size());
  }
  return buf;
}

/// Run one case through either the kernel layer or the seed reference.
void run_case(const LayerCase& c, CaseBuffers& buf, bool reference) {
  if (c.conv.k > 0) {
    if (!c.backward) {
      if (reference) {
        kernels::reference::conv1d_forward(c.conv, buf.x.data(), buf.w.data(),
                                           buf.b.data(), buf.y.data());
      } else {
        kernels::conv1d_forward(c.conv, buf.x.data(), buf.w.data(),
                                buf.b.data(), buf.y.data());
      }
    } else {
      std::fill(buf.gx.begin(), buf.gx.end(), 0.0f);
      std::fill(buf.gw.begin(), buf.gw.end(), 0.0f);
      std::fill(buf.gb.begin(), buf.gb.end(), 0.0f);
      if (reference) {
        kernels::reference::conv1d_backward(c.conv, buf.x.data(), buf.w.data(),
                                            buf.grad_out.data(), buf.gx.data(),
                                            buf.gw.data(), buf.gb.data());
      } else {
        kernels::conv1d_backward(c.conv, buf.x.data(), buf.w.data(),
                                 buf.grad_out.data(), buf.gx.data(),
                                 buf.gw.data(), buf.gb.data());
      }
    }
  } else {
    const std::size_t n = c.conv.n;
    if (!c.backward) {
      if (reference) {
        kernels::reference::dense_forward(n, c.in, c.out, buf.x.data(),
                                          buf.w.data(), buf.b.data(),
                                          buf.y.data());
      } else {
        kernels::dense_forward(n, c.in, c.out, buf.x.data(), buf.w.data(),
                               buf.b.data(), buf.y.data());
      }
    } else {
      std::fill(buf.gx.begin(), buf.gx.end(), 0.0f);
      std::fill(buf.gw.begin(), buf.gw.end(), 0.0f);
      std::fill(buf.gb.begin(), buf.gb.end(), 0.0f);
      if (reference) {
        kernels::reference::dense_backward(n, c.in, c.out, buf.x.data(),
                                           buf.w.data(), buf.grad_out.data(),
                                           buf.gx.data(), buf.gw.data(),
                                           buf.gb.data());
      } else {
        kernels::dense_backward(n, c.in, c.out, buf.x.data(), buf.w.data(),
                                buf.grad_out.data(), buf.gx.data(),
                                buf.gw.data(), buf.gb.data());
      }
    }
  }
}

std::int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  auto key = [](float v) {
    auto bits = static_cast<std::int64_t>(std::bit_cast<std::int32_t>(v));
    return bits < 0 ? static_cast<std::int64_t>(INT32_MIN) - bits : bits;
  };
  const std::int64_t d = key(a) - key(b);
  return d < 0 ? -d : d;
}

bool close_enough(const std::vector<float>& a, const std::vector<float>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ulp_diff(a[i], b[i]) > 256 && std::fabs(a[i] - b[i]) > 1e-3f) {
      return false;
    }
  }
  return true;
}

/// ULP gate: kernel outputs vs the seed loops on this case's buffers.
bool case_matches_reference(const LayerCase& c, CaseBuffers& buf) {
  run_case(c, buf, /*reference=*/false);
  CaseBuffers want = buf;
  run_case(c, want, /*reference=*/true);
  if (!c.backward) return close_enough(buf.y, want.y);
  return close_enough(buf.gx, want.gx) && close_enough(buf.gw, want.gw) &&
         close_enough(buf.gb, want.gb);
}

/// Best-of-N mean microseconds per call of `f`.
template <typename F>
double best_us(int reps, int iters, F&& f) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    util::Stopwatch sw;
    for (int i = 0; i < iters; ++i) f();
    const double us = sw.elapsed_ms() * 1000.0 / iters;
    best = r == 0 ? us : std::min(best, us);
  }
  return best;
}

/// One row of the batch-1 table: per-call vs pre-packed weights.
struct Batch1Row {
  std::string label;
  double fwd_unpacked_us = 0, fwd_packed_us = 0;
  double grad_unpacked_us = 0, grad_packed_us = 0;
  bool bitwise_ok = false;
};

/// Time the forward and input gradient of a batch-1 case (c.conv.n == 1).
Batch1Row time_batch1(const LayerCase& c, int reps, int iters,
                      util::Rng& rng) {
  CaseBuffers buf = make_buffers(c, rng);
  const bool conv = c.conv.k > 0;
  const std::size_t in = conv ? c.conv.in_ch * c.conv.k : c.in;
  const std::size_t out = conv ? c.conv.out_ch : c.out;
  kernels::WeightPack pack;
  const kernels::PackedB* wt = pack.forward(1, in, out, buf.w.data());
  const kernels::PackedB* wp = pack.input_grad(1, in, out, buf.w.data());

  auto fwd = [&](const kernels::PackedB* p, std::vector<float>& y) {
    if (conv) {
      kernels::conv1d_forward(c.conv, buf.x.data(), buf.w.data(),
                              buf.b.data(), y.data(), p);
    } else {
      kernels::dense_forward(1, in, out, buf.x.data(), buf.w.data(),
                             buf.b.data(), y.data(), p);
    }
  };
  auto grad = [&](const kernels::PackedB* p, std::vector<float>& gx) {
    if (conv) {
      std::fill(gx.begin(), gx.end(), 0.0f);
      kernels::conv1d_input_grad(c.conv, buf.w.data(), buf.grad_out.data(),
                                 gx.data(), p);
    } else {
      kernels::dense_input_grad(1, in, out, buf.w.data(), buf.grad_out.data(),
                                gx.data(), p);
    }
  };
  std::vector<float> y_packed(buf.y.size()), gx_packed(buf.gx.size());
  Batch1Row r;
  r.label = c.label;
  r.fwd_unpacked_us = best_us(reps, iters, [&] { fwd(nullptr, buf.y); });
  r.fwd_packed_us = best_us(reps, iters, [&] { fwd(wt, y_packed); });
  r.grad_unpacked_us = best_us(reps, iters, [&] { grad(nullptr, buf.gx); });
  r.grad_packed_us = best_us(reps, iters, [&] { grad(wp, gx_packed); });
  r.bitwise_ok = std::memcmp(buf.y.data(), y_packed.data(),
                             y_packed.size() * sizeof(float)) == 0 &&
                 std::memcmp(buf.gx.data(), gx_packed.data(),
                             gx_packed.size() * sizeof(float)) == 0;
  return r;
}

/// Best-of-N wall time for `iters` runs of one case.
double best_of(int reps, int iters, const LayerCase& c, CaseBuffers& buf,
               bool reference) {
  return best_us(reps, iters, [&] { run_case(c, buf, reference); }) * iters /
         1000.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int reps = smoke ? 3 : 5;
  const int iters = smoke ? 40 : 200;
  const std::size_t batch = 16;

  std::printf("gemm bench: paper CNN layer shapes, batch %zu%s\n", batch,
              smoke ? " [smoke]" : "");

  auto cases = paper_cnn_cases(batch);
  util::Rng rng(20260809);

  // Correctness gate before any timing.
  std::vector<CaseBuffers> buffers;
  buffers.reserve(cases.size());
  bool ulp_ok = true;
  for (const auto& c : cases) {
    buffers.push_back(make_buffers(c, rng));
    if (!case_matches_reference(c, buffers.back())) {
      std::fprintf(stderr,
                   "gemm bench: kernel diverges from seed reference on %s — "
                   "refusing to time a wrong result\n",
                   c.label.c_str());
      ulp_ok = false;
    }
  }
  if (!ulp_ok) {
    std::ofstream out("BENCH_gemm.json");
    out << "{\n  \"benchmark\": \"gemm\",\n  \"ulp_ok\": 0\n}\n";
    return 1;
  }

  struct Row {
    std::string label;
    double ref_ms, tuned_ms;
    bool infer_shape;
  };
  std::vector<Row> rows;
  double infer_ref_ms = 0.0, infer_tuned_ms = 0.0;
  double total_ref_ms = 0.0, total_tuned_ms = 0.0;

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    auto& buf = buffers[i];
    Row row;
    row.label = c.label;
    row.infer_shape = c.infer_shape;
    row.ref_ms = best_of(reps, iters, c, buf, /*reference=*/true);
    row.tuned_ms = best_of(reps, iters, c, buf, /*reference=*/false);
    rows.push_back(row);
    total_ref_ms += row.ref_ms;
    total_tuned_ms += row.tuned_ms;
    if (c.infer_shape) {
      infer_ref_ms += row.ref_ms;
      infer_tuned_ms += row.tuned_ms;
    }
    std::printf("%-12s ref %8.3f ms  tuned %8.3f ms (%5.2fx)\n",
                row.label.c_str(), row.ref_ms, row.tuned_ms,
                row.tuned_ms > 0 ? row.ref_ms / row.tuned_ms : 0.0);
  }

  const double tuned_speedup =
      infer_tuned_ms > 0.0 ? infer_ref_ms / infer_tuned_ms : 0.0;
  const double train_speedup =
      total_tuned_ms > 0.0 ? total_ref_ms / total_tuned_ms : 0.0;
  std::printf("batched-inference speedup (tuned vs seed): %.2fx\n",
              tuned_speedup);
  std::printf("all-shapes speedup (fwd+bwd):              %.2fx\n",
              train_speedup);

  std::vector<Batch1Row> batch1;
  bool batch1_ok = true;
  for (const auto& c : paper_cnn_cases(1)) {
    if (c.backward || (c.label != "dense1" && c.label != "conv2" &&
                       c.label != "conv3" && c.label != "conv4")) {
      continue;
    }
    batch1.push_back(time_batch1(c, reps, smoke ? 200 : 1000, rng));
    const auto& r = batch1.back();
    std::printf("batch-1 %-6s fwd        per-call pack %8.2f us  pre-packed "
                "%8.2f us\n",
                r.label.c_str(), r.fwd_unpacked_us, r.fwd_packed_us);
    std::printf("batch-1 %-6s input grad per-call pack %8.2f us  pre-packed "
                "%8.2f us\n",
                r.label.c_str(), r.grad_unpacked_us, r.grad_packed_us);
    if (!r.bitwise_ok) {
      std::fprintf(stderr,
                   "gemm bench: pre-packed %s output differs from the "
                   "per-call path\n",
                   r.label.c_str());
      batch1_ok = false;
    }
  }

  std::ofstream out("BENCH_gemm.json");
  out << "{\n  \"benchmark\": \"gemm\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"batch\": " << batch << ",\n"
      << "  \"ulp_ok\": 1,\n"
      << "  \"kernel_config\": \"" << kernels::active_config_summary()
      << "\",\n"
      << "  \"shapes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    out << "    {\"label\": \"" << r.label << "\", \"reference_ms\": "
        << r.ref_ms << ", \"tuned_ms\": " << r.tuned_ms
        << ", \"infer_shape\": "
        << (r.infer_shape ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"tuned_speedup\": " << tuned_speedup << ",\n"
      << "  \"train_speedup\": " << train_speedup << ",\n";
  for (const auto& r : batch1) {
    const std::string key = "  \"batch1_" + r.label;
    out << key << "_fwd_unpacked_us\": " << r.fwd_unpacked_us << ",\n"
        << key << "_fwd_packed_us\": " << r.fwd_packed_us << ",\n"
        << key << "_input_grad_unpacked_us\": " << r.grad_unpacked_us
        << ",\n"
        << key << "_input_grad_packed_us\": " << r.grad_packed_us << ",\n";
  }
  out << "  \"batch1_bitwise_ok\": " << (batch1_ok ? 1 : 0) << "\n}\n";
  std::cout << "wrote BENCH_gemm.json\n";
  return batch1_ok ? 0 : 1;
}
