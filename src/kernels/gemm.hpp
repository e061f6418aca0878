// Blocked, register-tiled, vectorizable single-precision GEMM.
//
// One entry point owns the dense-math hot path: Conv1D (via im2col
// lowering, see kernels/conv.hpp) and Dense forward/backward/batched-infer
// all reduce to gemm() calls. The implementation is a classic three-level
// blocking scheme (BLIS-style): B is packed into kNr-wide column panels and
// A into kMr-tall row panels per (kKc x kNc) / (kMc x kKc) cache block, and
// a kMr x kNr register-tile microkernel walks the shared dimension.
//
// The tile is compiled in and has no knob. A 4 x 8 tile over 64 x 256 x 512
// blocks beat every other register tile (2x4 .. 8x8, 4x16) and cache-block
// grid that was tried on the paper CNN's GEMMs at batch 1, 16 and 64.
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
// result is independent of the batch position an element lands in and
// bitwise equal to a naive k-ordered triple loop — which is what keeps
// batched inference bitwise-identical to per-sample forward, and the whole
// layer ULP-bounded against the seed loops.
//
// Three speed paths live under the same contract:
//
//   * Pre-packed B. An operand reused across calls (a Dense or Conv1D
//     layer's weights) can be packed once into a PackedB, in exactly the
//     layout the per-call packing writes, and handed over as
//     GemmSpec::packed_b; the tiled path then reads its panels instead of
//     re-packing B. Only the panel source changes, never a chain.
//   * Small m. When m < kMr (Dense layers at batch 1 .. 3) a register
//     tile would be mostly dead rows, so each row of C instead streams
//     several packed B panels at once. Every C[i][j] still keeps one
//     register-resident chain in k order, so the result is bitwise the
//     one the register tiles produce.
//   * AVX2 microkernels. The register tile and row kernels are compiled
//     for AVX2 and for the baseline ISA, and the CPU picks at load time.
//     FMA is left out on purpose, so every multiply and add is still
//     rounded on its own and the AVX2 clones produce the same bits.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

namespace gea::kernels {

inline constexpr std::size_t kMr = 4;    // register tile rows
inline constexpr std::size_t kNr = 8;    // register tile columns
inline constexpr std::size_t kMc = 64;   // rows of A per cache block
inline constexpr std::size_t kKc = 256;  // shared depth per cache block
inline constexpr std::size_t kNc = 512;  // columns of B per cache block

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
  /// Optional pre-packed copy of B. Used when it fits this spec
  /// (PackedB::fits); otherwise ignored, so `b` stays required — a
  /// mismatched pack falls back to reading it.
  const PackedB* packed_b = nullptr;
};

/// The B operand of a GEMM packed once, in the k-blocked kNr-panel layout
/// the tiled path packs per call: for the k block starting at p0 (depth
/// kb = min(kKc, k - p0)), panel q holds columns [q*kNr, q*kNr + kNr) with
/// B[p0 + kk][q*kNr + t] at offset kk*kNr + t, zero-padded past n.
///
/// A PackedB is a snapshot: it does not see later writes to the matrix it
/// was packed from. Its owner resets it whenever that matrix may change.
class PackedB {
 public:
  /// Pack `spec`'s B operand (b, ldb, trans_b over k x n).
  void pack(const GemmSpec& spec);

  /// Forget the contents; the storage is kept for the next pack().
  void reset() { panels_ = 0; }

  /// True when the pack holds a k x n operand.
  bool fits(const GemmSpec& spec) const {
    return panels_ != 0 && k_ == spec.k && n_ == spec.n;
  }

  /// First panel of the k block starting at p0, from column j0 on (j0 a
  /// multiple of kNr). Panels follow at a stride of kNr * kb floats.
  const float* block(std::size_t p0, std::size_t j0) const {
    const std::size_t kb = std::min(kKc, k_ - p0);
    return data_.get() + p0 * panels_ * kNr + (j0 / kNr) * kNr * kb;
  }

 private:
  // Left uninitialized on allocation: pack() writes every element.
  std::unique_ptr<float[]> data_;
  std::size_t capacity_ = 0;
  std::size_t k_ = 0, n_ = 0, panels_ = 0;  // panels_ == 0: empty
};

/// C = init + A * B on the calling thread's KernelScratch; records
/// kernels.gemm_calls and kernels.gemm_ms.
void gemm(const GemmSpec& spec);

}  // namespace gea::kernels
