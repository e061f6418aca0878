#include "kernels/conv.hpp"

#include <algorithm>
#include <cstring>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "kernels/gemm.hpp"
#include "kernels/scratch.hpp"

namespace gea::kernels {

namespace {

/// First input offset read by output position j: j + base + t for tap t.
inline std::ptrdiff_t pad_base(const Conv1DShape& s) {
  return s.same ? -static_cast<std::ptrdiff_t>(s.k / 2) : 0;
}

/// Write one im2col row: col_row[j] = x_row[j + base + t] for in-bounds
/// positions, 0 at the padded edges. The in-bounds j range is computed
/// once, so the interior is a straight memcpy — no per-element checks.
inline void im2col_row(const float* x_row, std::size_t l_in,
                       std::size_t l_out, std::ptrdiff_t shift,
                       float* col_row) {
  // In bounds when 0 <= j + shift < l_in.
  const std::size_t j_lo = shift < 0 ? static_cast<std::size_t>(-shift) : 0;
  const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(l_in) - shift;
  const std::size_t j_hi =
      hi <= 0 ? 0
              : std::min(l_out, static_cast<std::size_t>(hi));
  std::size_t j = 0;
  for (; j < std::min(j_lo, l_out); ++j) col_row[j] = 0.0f;
  if (j_hi > j) {
    std::memcpy(col_row + j, x_row + static_cast<std::ptrdiff_t>(j) + shift,
                (j_hi - j) * sizeof(float));
    j = j_hi;
  }
  for (; j < l_out; ++j) col_row[j] = 0.0f;
}

/// Materialize the column matrix for the whole batch: row (ic*k + t),
/// column (i*l_out + j) holds x[i][ic][j + base + t] (0 when padded).
/// k == 3 — every conv in the paper's CNN — takes an unrolled builder.
void im2col(const Conv1DShape& s, const float* x, float* col) {
  const std::size_t l_out = s.l_out();
  const std::size_t ncols = s.n * l_out;
  const std::ptrdiff_t base = pad_base(s);
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
      const float* x_row = x + (i * s.in_ch + ic) * s.l_in;
      float* col_base = col + (ic * s.k) * ncols + i * l_out;
      if (s.k == 3) {
        im2col_row(x_row, s.l_in, l_out, base + 0, col_base);
        im2col_row(x_row, s.l_in, l_out, base + 1, col_base + ncols);
        im2col_row(x_row, s.l_in, l_out, base + 2, col_base + 2 * ncols);
      } else {
        for (std::size_t t = 0; t < s.k; ++t) {
          im2col_row(x_row, s.l_in, l_out, base + static_cast<std::ptrdiff_t>(t),
                     col_base + t * ncols);
        }
      }
    }
  }
}

/// dst (cols, rows) = src (rows, cols)^T, both dense row-major. Full 4x4
/// tiles go through SSE registers (four row loads, one shuffle transpose,
/// four row stores), so neither side is walked one strided element at a
/// time; the ragged edges are copied element by element. Pure data
/// movement, so the output bits are the input bits.
void transpose(const float* src, std::size_t rows, std::size_t cols,
               float* dst) {
  std::size_t rows_t = 0;
  std::size_t cols_t = 0;
#if defined(__SSE__)
  rows_t = rows & ~std::size_t{3};
  cols_t = cols & ~std::size_t{3};
  for (std::size_t r = 0; r < rows_t; r += 4) {
    for (std::size_t c = 0; c < cols_t; c += 4) {
      const float* s = src + r * cols + c;
      __m128 r0 = _mm_loadu_ps(s);
      __m128 r1 = _mm_loadu_ps(s + cols);
      __m128 r2 = _mm_loadu_ps(s + 2 * cols);
      __m128 r3 = _mm_loadu_ps(s + 3 * cols);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      float* d = dst + c * rows + r;
      _mm_storeu_ps(d, r0);
      _mm_storeu_ps(d + rows, r1);
      _mm_storeu_ps(d + 2 * rows, r2);
      _mm_storeu_ps(d + 3 * rows, r3);
    }
  }
#endif
  // Columns past the last full tile in every row, then the rows past the
  // last full tile in the tiled columns.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = cols_t; c < cols; ++c) {
      dst[c * rows + r] = src[r * cols + c];
    }
  }
  for (std::size_t r = rows_t; r < rows; ++r) {
    for (std::size_t c = 0; c < cols_t; ++c) {
      dst[c * rows + r] = src[r * cols + c];
    }
  }
}

/// The forward GEMM's B side: W (out, in) row-major read as its (in, out)
/// transpose, so C (m, out) = A (m, in) * W^T. Dense runs it on its input
/// and Conv1D on col^T; WeightPack packs W^T from the same spec, so the
/// two cannot drift. The caller sets m, A, C and the bias.
GemmSpec forward_spec(std::size_t in, std::size_t out, const float* w) {
  GemmSpec spec;
  spec.n = out;
  spec.k = in;
  spec.b = w;
  spec.ldb = in;
  spec.trans_b = true;
  spec.ldc = out;
  return spec;
}

/// The input-gradient GEMM's B side: C (m, in) = G (m, out) * W. Dense runs
/// it on its gradient and Conv1D on each sample's G_i^T; WeightPack packs W
/// from the same spec.
GemmSpec input_grad_spec(std::size_t in, std::size_t out, const float* w) {
  GemmSpec spec;
  spec.n = in;
  spec.k = out;
  spec.b = w;
  spec.ldb = in;
  spec.ldc = in;
  return spec;
}

}  // namespace

void conv1d_forward(const Conv1DShape& s, const float* x, const float* w,
                    const float* b, float* y, const PackedB* wt_pack) {
  const std::size_t l_out = s.l_out();
  const std::size_t kdim = s.in_ch * s.k;
  const std::size_t ncols = s.n * l_out;
  if (ncols == 0 || s.out_ch == 0) return;
  KernelScratch& scratch = KernelScratch::tls();
  float* col = scratch.col(kdim * ncols);
  im2col(s, x, col);

  // C^T (n*l_out x out_ch) = col^T * W^T + b: W is the B operand, so a
  // pack of it is read in place of per-call packing.
  float* ct = scratch.cbuf(ncols * s.out_ch);
  GemmSpec spec = forward_spec(kdim, s.out_ch, w);
  spec.m = ncols;
  spec.a = col;
  spec.lda = ncols;
  spec.trans_a = true;
  spec.c = ct;
  spec.bias_col = b;
  spec.packed_b = wt_pack;
  gemm(spec);
  // Transpose each sample's (l_out, out_ch) block into (out_ch, l_out).
  const std::size_t block = l_out * s.out_ch;
  for (std::size_t i = 0; i < s.n; ++i) {
    transpose(ct + i * block, l_out, s.out_ch, y + i * block);
  }
}

void conv1d_param_grads(const Conv1DShape& s, const float* x,
                        const float* grad_out, float* gw, float* gb) {
  const std::size_t l_out = s.l_out();
  const std::size_t kdim = s.in_ch * s.k;
  const std::size_t ncols = s.n * l_out;
  if (ncols == 0 || s.out_ch == 0) return;

  // Bias gradient in the seed's order (sample-major, position-ascending).
  for (std::size_t i = 0; i < s.n; ++i) {
    for (std::size_t oc = 0; oc < s.out_ch; ++oc) {
      const float* g_row = grad_out + (i * s.out_ch + oc) * l_out;
      float acc = gb[oc];
      for (std::size_t j = 0; j < l_out; ++j) acc += g_row[j];
      gb[oc] = acc;
    }
  }

  float* col = KernelScratch::tls().col(kdim * ncols);
  im2col(s, x, col);
  for (std::size_t i = 0; i < s.n; ++i) {
    // gw += G_i * col_i^T: (out_ch x l_out) * (l_out x kdim), sample-major
    // accumulation matching the seed loop's order.
    GemmSpec wspec;
    wspec.m = s.out_ch;
    wspec.n = kdim;
    wspec.k = l_out;
    wspec.a = grad_out + i * s.out_ch * l_out;
    wspec.lda = l_out;
    wspec.b = col + i * l_out;  // column slice of sample i, transposed view
    wspec.ldb = ncols;
    wspec.trans_b = true;
    wspec.c = gw;
    wspec.ldc = kdim;
    wspec.accumulate = true;
    gemm(wspec);
  }
}

void conv1d_input_grad(const Conv1DShape& s, const float* w,
                       const float* grad_out, float* grad_in,
                       const PackedB* w_pack) {
  const std::size_t l_out = s.l_out();
  const std::size_t kdim = s.in_ch * s.k;
  if (s.n * l_out == 0 || s.out_ch == 0) return;
  const std::ptrdiff_t base = pad_base(s);
  float* dcol = KernelScratch::tls().dcol(l_out * kdim);

  // dcol^T (l_out x kdim) = G_i^T * W: (l_out x out_ch) * (out_ch x kdim).
  GemmSpec xspec = input_grad_spec(kdim, s.out_ch, w);
  xspec.m = l_out;
  xspec.lda = l_out;
  xspec.trans_a = true;
  xspec.c = dcol;
  xspec.packed_b = w_pack;
  if (w_pack == nullptr) {
    // Pack W once for every sample's GEMM instead of once per sample.
    thread_local PackedB per_call;
    per_call.pack(xspec);
    xspec.packed_b = &per_call;
  }
  for (std::size_t i = 0; i < s.n; ++i) {
    xspec.a = grad_out + i * s.out_ch * l_out;
    gemm(xspec);

    // col2im: scatter-add dcol^T columns back into the padded input
    // positions, in the seed's (ic, t, j) order.
    for (std::size_t ic = 0; ic < s.in_ch; ++ic) {
      float* gx_row = grad_in + (i * s.in_ch + ic) * s.l_in;
      for (std::size_t t = 0; t < s.k; ++t) {
        const float* d_col = dcol + ic * s.k + t;
        const std::ptrdiff_t shift = base + static_cast<std::ptrdiff_t>(t);
        const std::size_t j_lo =
            shift < 0 ? static_cast<std::size_t>(-shift) : 0;
        const std::ptrdiff_t hi = static_cast<std::ptrdiff_t>(s.l_in) - shift;
        const std::size_t j_hi =
            hi <= 0 ? 0 : std::min(l_out, static_cast<std::size_t>(hi));
        for (std::size_t j = j_lo; j < j_hi; ++j) {
          gx_row[static_cast<std::ptrdiff_t>(j) + shift] += d_col[j * kdim];
        }
      }
    }
  }
}

void conv1d_backward(const Conv1DShape& s, const float* x, const float* w,
                     const float* grad_out, float* grad_in, float* gw,
                     float* gb) {
  conv1d_param_grads(s, x, grad_out, gw, gb);
  conv1d_input_grad(s, w, grad_out, grad_in);
}

void dense_forward(std::size_t n, std::size_t in, std::size_t out,
                   const float* x, const float* w, const float* b, float* y,
                   const PackedB* wt_pack) {
  GemmSpec spec = forward_spec(in, out, w);
  spec.m = n;
  spec.a = x;
  spec.lda = in;
  spec.c = y;
  spec.bias_col = b;
  spec.packed_b = wt_pack;
  gemm(spec);
}

void dense_param_grads(std::size_t n, std::size_t in, std::size_t out,
                       const float* x, const float* grad_out, float* gw,
                       float* gb) {
  // Bias gradient in the seed's sample-major order.
  for (std::size_t i = 0; i < n; ++i) {
    const float* g_i = grad_out + i * out;
    for (std::size_t o = 0; o < out; ++o) gb[o] += g_i[o];
  }

  // gw += G^T * X: (out x n) * (n x in); k' = n is the sample-major
  // accumulation the seed loop performs.
  GemmSpec wspec;
  wspec.m = out;
  wspec.n = in;
  wspec.k = n;
  wspec.a = grad_out;  // (n, out) read as its (out, n) transpose
  wspec.lda = out;
  wspec.trans_a = true;
  wspec.b = x;
  wspec.ldb = in;
  wspec.c = gw;
  wspec.ldc = in;
  wspec.accumulate = true;
  gemm(wspec);
}

void dense_input_grad(std::size_t n, std::size_t in, std::size_t out,
                      const float* w, const float* grad_out, float* grad_in,
                      const PackedB* w_pack) {
  GemmSpec spec = input_grad_spec(in, out, w);
  spec.m = n;
  spec.a = grad_out;
  spec.lda = out;
  spec.c = grad_in;
  spec.packed_b = w_pack;
  gemm(spec);
}

void dense_backward(std::size_t n, std::size_t in, std::size_t out,
                    const float* x, const float* w, const float* grad_out,
                    float* grad_in, float* gw, float* gb) {
  dense_param_grads(n, in, out, x, grad_out, gw, gb);
  dense_input_grad(n, in, out, w, grad_out, grad_in);
}

namespace {

const PackedB* pack_for(PackedB& pack, std::size_t n, const GemmSpec& spec) {
  if (pack.fits(spec)) return &pack;
  if (n >= kMr) return nullptr;
  pack.pack(spec);
  return &pack;
}

}  // namespace

const PackedB* WeightPack::forward(std::size_t n, std::size_t in,
                                   std::size_t out, const float* w) {
  return pack_for(wt_, n, forward_spec(in, out, w));
}

const PackedB* WeightPack::input_grad(std::size_t n, std::size_t in,
                                      std::size_t out, const float* w) {
  return pack_for(w_, n, input_grad_spec(in, out, w));
}

}  // namespace gea::kernels
