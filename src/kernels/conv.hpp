// Layer-facing entry points: Conv1D and Dense lowered onto kernels::gemm.
//
// Both layers read their weights W (out, in) as the B operand of every
// GEMM that touches W, so one WeightPack serves both (for Conv1D, in is
// in_ch * k). Conv1D forward is im2col + GEMM: the (in_ch * k) x
// (n * l_out) column matrix is materialized once per call into
// thread-local scratch (with a k=3-specialized builder for the paper's
// kernels, edge columns split out so the interior copies run without
// per-element bounds checks), then one GEMM per call computes
// C^T (n*l_out x out_ch) = col^T * W^T + b, transposed into the output
// one sample block at a time in 4x4 register tiles.
// The input gradient runs one GEMM per sample, dcol^T (l_out x in_ch*k) =
// G_i^T * W, scattered back by col2im; W is packed once per call, or not
// at all when the caller hands over a WeightPack. The weight gradient is
// G_i * col_i^T accumulated per sample. Dense forward/backward are direct
// GEMM mappings.
//
// Every backward is split in two: *_param_grads accumulates the weight and
// bias gradients, *_input_grad writes dL/dx, and *_backward runs both. An
// attack that only wants dL/dx calls the input half alone, which skips the
// weight-gradient GEMMs (and, for Conv1D, the im2col they read).
//
// Numeric contract (see kernels/reference.hpp for the preserved seed
// loops): every output element is one k-ordered accumulation chain, so
// results are independent of batch size and weight packing — per-sample
// forward and batched infer agree bitwise with each other — and ULP-bounded
// against the seed loops, whose only differences are per-input-channel
// regrouping and skipped zero terms.
#pragma once

#include <cstddef>

#include "kernels/gemm.hpp"

namespace gea::kernels {

/// Shape descriptor shared by the Conv1D ops. `same` selects zero padding
/// (l_out == l_in); otherwise valid padding (l_out == l_in - k + 1).
struct Conv1DShape {
  std::size_t n = 0;       // batch
  std::size_t in_ch = 0;
  std::size_t l_in = 0;
  std::size_t out_ch = 0;
  std::size_t k = 0;       // kernel taps (odd)
  bool same = true;
  std::size_t l_out() const { return same ? l_in : l_in - k + 1; }
};

/// y (n, out_ch, l_out) = conv(x (n, in_ch, l_in), w (out_ch, in_ch, k)) + b.
/// `wt_pack`, when given, is w pre-packed by WeightPack::forward with
/// in = in_ch * k, out = out_ch.
void conv1d_forward(const Conv1DShape& shape, const float* x, const float* w,
                    const float* b, float* y,
                    const PackedB* wt_pack = nullptr);

/// Accumulates gw (out_ch, in_ch, k) and gb (out_ch).
void conv1d_param_grads(const Conv1DShape& shape, const float* x,
                        const float* grad_out, float* gw, float* gb);

/// Adds dL/dx into grad_in (n, in_ch, l_in), which the caller zeroes.
/// `w_pack`, when given, is w pre-packed by WeightPack::input_grad with
/// in = in_ch * k, out = out_ch; otherwise w is packed once per call.
void conv1d_input_grad(const Conv1DShape& shape, const float* w,
                       const float* grad_out, float* grad_in,
                       const PackedB* w_pack = nullptr);

/// conv1d_param_grads then conv1d_input_grad.
void conv1d_backward(const Conv1DShape& shape, const float* x, const float* w,
                     const float* grad_out, float* grad_in, float* gw,
                     float* gb);

/// y (n, out) = x (n, in) * w^T (w is (out, in) row-major) + b. `wt_pack`,
/// when given, is w pre-packed by WeightPack::forward.
void dense_forward(std::size_t n, std::size_t in, std::size_t out,
                   const float* x, const float* w, const float* b, float* y,
                   const PackedB* wt_pack = nullptr);

/// Accumulates gw (out, in) and gb (out).
void dense_param_grads(std::size_t n, std::size_t in, std::size_t out,
                       const float* x, const float* grad_out, float* gw,
                       float* gb);

/// Writes grad_in (n, in) = grad_out * w. `w_pack`, when given, is w
/// pre-packed by WeightPack::input_grad.
void dense_input_grad(std::size_t n, std::size_t in, std::size_t out,
                      const float* w, const float* grad_out, float* grad_in,
                      const PackedB* w_pack = nullptr);

/// dense_param_grads then dense_input_grad.
void dense_backward(std::size_t n, std::size_t in, std::size_t out,
                    const float* x, const float* w, const float* grad_out,
                    float* grad_in, float* gw, float* gb);

/// A weight matrix w (out, in) packed once for the two GEMMs that read it
/// as B: w^T for the forward (dense_forward, conv1d_forward), w for the
/// input gradient (dense_input_grad, conv1d_input_grad), for a batch of n
/// samples. A pack that fits (same in and out) is returned as is.
/// Otherwise it is packed only when n < kMr, where a per-call pack would
/// cost more than the product itself; larger batches get nullptr and pack
/// per call, which keeps training (new weights every step) on the
/// unchanged path. The owner calls reset() whenever w may have changed.
class WeightPack {
 public:
  const PackedB* forward(std::size_t n, std::size_t in, std::size_t out,
                         const float* w);
  const PackedB* input_grad(std::size_t n, std::size_t in, std::size_t out,
                            const float* w);
  void reset() {
    wt_.reset();
    w_.reset();
  }

 private:
  PackedB wt_;
  PackedB w_;
};

}  // namespace gea::kernels
