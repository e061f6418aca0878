// Blocked, register-tiled, vectorizable single-precision GEMM.
//
// One entry point owns the dense-math hot path: Conv1D (via im2col
// lowering, see kernels/conv.hpp) and Dense forward/backward/batched-infer
// all reduce to gemm() calls. The implementation is a classic three-level
// blocking scheme (BLIS-style): B is packed into nr-wide column panels and
// A into mr-tall row panels per (kc x nc) / (mc x kc) cache block, and an
// mr x nr register-tile microkernel walks the shared dimension.
//
// Floating-point contract — the property every caller leans on:
//
//   Each output element C[i][j] is produced by ONE sequential accumulation
//   chain in k order: init (bias / existing C / zero), then
//   += A[i][p] * B[p][j] for p = 0 .. k-1, in order.
//
// Tiling never splits or reorders a chain: the k-block loop is outermost
// per column block and partial register tiles run the exact same unrolled
// code as full ones (zero-padded panels, masked stores). Consequently the
// result is independent of the tile parameters, the batch position an
// element lands in, and whether the tiled or scalar-fallback path ran —
// which is what keeps batched inference bitwise-identical to per-sample
// forward, and the whole layer ULP-bounded against the seed loops.
//
// Three speed paths live under the same contract:
//
//   * Pre-packed B. An operand reused across calls (a Dense or Conv1D
//     layer's weights) can be packed once into a PackedB, in exactly the
//     layout the per-call packing writes, and handed over as
//     GemmSpec::packed_b; the tiled path then reads its panels instead of
//     re-packing B. Only the panel source changes, never a chain.
//   * Small m. When m < mr (Dense layers at batch 1 .. mr-1) a register
//     tile would be mostly dead rows, so each row of C instead streams
//     several packed B panels at once. Every C[i][j] still keeps one
//     register-resident chain in k order, so the result is bitwise the
//     one the register tiles and the scalar fallback produce.
//   * AVX2 microkernels. The register tile and row kernels are compiled
//     for AVX2 and for the baseline ISA, and the CPU picks at load time.
//     FMA is left out on purpose, so every multiply and add is still
//     rounded on its own and the AVX2 clones produce the same bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "kernels/config.hpp"
#include "kernels/scratch.hpp"

namespace gea::kernels {

class PackedB;

/// C (m x n, leading dim ldc) = init + A * B, where A is logically m x k
/// and B is k x n. `trans_*` flips the storage interpretation: with
/// trans_a, A[i][p] is read from a[p * lda + i] (i.e. `a` holds the k x m
/// transpose), likewise for B. Exactly one of bias_row / bias_col may be
/// set; `accumulate` initializes chains from the existing C instead.
struct GemmSpec {
  std::size_t m = 0, n = 0, k = 0;
  const float* a = nullptr;
  std::size_t lda = 0;
  bool trans_a = false;
  const float* b = nullptr;
  std::size_t ldb = 0;
  bool trans_b = false;
  float* c = nullptr;
  std::size_t ldc = 0;
  const float* bias_row = nullptr;  // length m: C[i][*] starts at bias_row[i]
  const float* bias_col = nullptr;  // length n: C[*][j] starts at bias_col[j]
  bool accumulate = false;          // C += A*B (bias_* must be null)
  /// Optional pre-packed copy of B. Used when it fits this spec and the
  /// config (PackedB::fits); otherwise ignored, so `b` stays required —
  /// the scalar fallback and a mismatched pack read it.
  const PackedB* packed_b = nullptr;
};

/// The B operand of a GEMM packed once, in the k-blocked NR-panel layout
/// the tiled path packs per call: for the k block starting at p0 (depth
/// kb = min(kc, k - p0)), panel q holds columns [q*nr, q*nr + nr) with
/// B[p0 + kk][q*nr + t] at offset kk*nr + t, zero-padded past n. The
/// layout depends only on k, n, nr and kc, so a pack stays usable under
/// any mr/mc/nc and must be rebuilt when nr or kc changes.
///
/// A PackedB is a snapshot: it does not see later writes to the matrix it
/// was packed from. Its owner resets it whenever that matrix may change.
class PackedB {
 public:
  /// Pack `spec`'s B operand (b, ldb, trans_b over k x n) for `cfg`. A
  /// scalar config leaves the pack empty.
  void pack(const GemmSpec& spec, const KernelConfig& cfg);

  /// Forget the contents; the storage is kept for the next pack().
  void reset() { nr_ = 0; }

  /// True when the pack holds a k x n operand laid out for cfg's nr/kc.
  bool fits(const GemmSpec& spec, const KernelConfig& cfg) const {
    return nr_ != 0 && nr_ == cfg.nr && kc_ == cfg.kc && k_ == spec.k &&
           n_ == spec.n;
  }

  /// First panel of the k block starting at p0, from column j0 on (j0 a
  /// multiple of nr). Panels follow at a stride of nr * kb floats.
  const float* block(std::size_t p0, std::size_t j0) const {
    const std::size_t kb = std::min<std::size_t>(kc_, k_ - p0);
    return data_.get() + p0 * panels_ * nr_ + (j0 / nr_) * nr_ * kb;
  }

 private:
  // Left uninitialized on allocation: pack() writes every element.
  std::unique_ptr<float[]> data_;
  std::size_t capacity_ = 0;
  std::size_t k_ = 0, n_ = 0, panels_ = 0;
  std::uint32_t nr_ = 0, kc_ = 0;  // nr_ == 0: empty
};

/// Run the GEMM with an explicit config and scratch arena. Unsupported
/// configs silently take the scalar path (correct, untiled).
void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch);

/// Run with the process-wide active config and the calling thread's
/// scratch; records kernels.gemm_ms / kernels.{tuned,fallback} metrics.
void gemm(const GemmSpec& spec);

}  // namespace gea::kernels
