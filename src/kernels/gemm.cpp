#include "kernels/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "kernels/scratch.hpp"
#include "obs/metrics.hpp"

namespace gea::kernels {

namespace {

inline float load_a(const GemmSpec& s, std::size_t i, std::size_t p) {
  return s.trans_a ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
}

inline float load_b(const GemmSpec& s, std::size_t p, std::size_t j) {
  return s.trans_b ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
}

/// Start every chain: bias broadcast or zero. Accumulate mode keeps the
/// existing C values as the chain head instead.
void init_c(const GemmSpec& s) {
  if (s.accumulate) return;
  for (std::size_t i = 0; i < s.m; ++i) {
    float* crow = s.c + i * s.ldc;
    if (s.bias_row) {
      const float v = s.bias_row[i];
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = v;
    } else if (s.bias_col) {
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = s.bias_col[j];
    } else {
      for (std::size_t j = 0; j < s.n; ++j) crow[j] = 0.0f;
    }
  }
}

/// Pack the (mb x kb) block of A at (i0, p0) into mr-tall row panels laid
/// out k-major: panel q, offset kk*mr + r holds A[i0 + q*mr + r][p0 + kk].
/// Rows past mb are zero-filled so partial register tiles can run the
/// full-tile microkernel unchanged.
void pack_a_block(const GemmSpec& s, std::size_t i0, std::size_t mb,
                  std::size_t p0, std::size_t kb, std::size_t mr, float* ap) {
  const std::size_t panels = (mb + mr - 1) / mr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = ap + q * mr * kb;
    const std::size_t rows = std::min(mr, mb - q * mr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * mr;
      std::size_t r = 0;
      for (; r < rows; ++r) dst[r] = load_a(s, i0 + q * mr + r, p0 + kk);
      for (; r < mr; ++r) dst[r] = 0.0f;
    }
  }
}

/// Pack the (kb x nb) block of B at (p0, j0) into kNr-wide column panels,
/// k-major: panel q, offset kk*kNr + t holds B[p0 + kk][j0 + q*kNr + t].
void pack_b_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
                  std::size_t j0, std::size_t nb, float* bp) {
  const std::size_t panels = (nb + kNr - 1) / kNr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bp + q * kNr * kb;
    const std::size_t cols = std::min(kNr, nb - q * kNr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * kNr;
      std::size_t t = 0;
      for (; t < cols; ++t) dst[t] = load_b(s, p0 + kk, j0 + q * kNr + t);
      for (; t < kNr; ++t) dst[t] = 0.0f;
    }
  }
}

/// The microkernels are compiled twice, for AVX2 and for the baseline ISA,
/// and the loader picks the clone the CPU runs (ifunc on cpuid). FMA is
/// deliberately not a target: without it every multiply and add stays
/// separately rounded, so the AVX2 clone computes the same chains lane for
/// lane and its results are bitwise the baseline's.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GEA_MICROKERNEL __attribute__((target_clones("avx2", "default")))
#else
#define GEA_MICROKERNEL
#endif

/// kMr x kNr register tile over a kb-deep panel pair. One code path for
/// full and partial tiles: valid lanes load their running chain from C,
/// dead lanes run on zeros and are dropped by the masked store — so the FP
/// op sequence of a chain never depends on where its element fell in the
/// tiling, which is what makes results independent of batch position.
GEA_MICROKERNEL void micro_tile(std::size_t kb, const float* __restrict ap,
                                const float* __restrict bp,
                                float* __restrict c, std::size_t ldc,
                                std::size_t mv, std::size_t nv) {
  float acc[kMr][kNr];
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t t = 0; t < kNr; ++t) {
      acc[r][t] = r < mv && t < nv ? c[r * ldc + t] : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* __restrict arow = ap + kk * kMr;
    const float* __restrict brow = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::size_t t = 0; t < kNr; ++t) acc[r][t] += av * brow[t];
    }
  }
  for (std::size_t r = 0; r < mv; ++r) {
    for (std::size_t t = 0; t < nv; ++t) c[r * ldc + t] = acc[r][t];
  }
}

/// Four float lanes (GCC/Clang vector extension). The small-m kernel is
/// written on it because plain loops over its 32 lanes did not stay in
/// registers reliably across optimization levels; it compiles to the same
/// separate mulps/addps a vectorized micro_tile runs, lane by lane.
typedef float Lanes4 __attribute__((vector_size(16)));

/// Small-m tile: one row of C against G consecutive kNr-wide panels lying
/// `stride` floats apart, over a kb-deep block. Each lane runs exactly the
/// chain micro_tile would (loaded from C, advanced in k order, stored back
/// masked); G panels in flight give the adder independent chains to
/// overlap where one narrow panel would wait on its own latency.
template <int G>
GEA_MICROKERNEL void micro_row(std::size_t kb, const float* __restrict a,
                               const float* __restrict bp, std::size_t stride,
                               float* __restrict c, std::size_t nv) {
  constexpr int NR = static_cast<int>(kNr);
  constexpr int V = NR / 4;
  float lanes[G * NR] = {};
  for (std::size_t idx = 0; idx < nv; ++idx) lanes[idx] = c[idx];
  Lanes4 acc[G][V];
#pragma GCC unroll 16
  for (int g = 0; g < G; ++g) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      std::memcpy(&acc[g][v], lanes + g * NR + v * 4, sizeof(Lanes4));
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const Lanes4 av = Lanes4{} + a[kk];
#pragma GCC unroll 16
    for (int g = 0; g < G; ++g) {
      const float* brow = bp + g * stride + kk * NR;
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        Lanes4 bv;
        std::memcpy(&bv, brow + v * 4, sizeof(Lanes4));
        acc[g][v] += av * bv;
      }
    }
  }
#pragma GCC unroll 16
  for (int g = 0; g < G; ++g) {
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) {
      std::memcpy(lanes + g * NR + v * 4, &acc[g][v], sizeof(Lanes4));
    }
  }
  for (std::size_t idx = 0; idx < nv; ++idx) c[idx] = lanes[idx];
}

/// Panels micro_row<kRowGroup> runs at once: 32 lanes, eight SSE
/// accumulators.
constexpr std::size_t kRowGroup = 4;

/// Every row of C (m < kMr) against the B block at (p0, j0), whose panels
/// start at `bp`. A rows are packed one per kb-long run of `ap`.
void row_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
               std::size_t j0, std::size_t nb, const float* bp, float* ap) {
  pack_a_block(s, 0, s.m, p0, kb, 1, ap);
  const std::size_t npanels = (nb + kNr - 1) / kNr;
  const std::size_t stride = kNr * kb;
  for (std::size_t i = 0; i < s.m; ++i) {
    const float* arow = ap + i * kb;
    float* crow = s.c + i * s.ldc + j0;
    std::size_t q = 0;
    for (; q + kRowGroup <= npanels; q += kRowGroup) {
      micro_row<kRowGroup>(kb, arow, bp + q * stride, stride, crow + q * kNr,
                           std::min(kRowGroup * kNr, nb - q * kNr));
    }
    for (; q < npanels; ++q) {
      micro_row<1>(kb, arow, bp + q * stride, stride, crow + q * kNr,
                   std::min(kNr, nb - q * kNr));
    }
  }
}

// Column blocks start on whole panels, so a PackedB's panels line up with
// them. Chains never span column blocks: kNc is cache-only.
static_assert(kNc % kNr == 0);

void tiled_gemm(const GemmSpec& s, KernelScratch& scratch) {
  if (s.m == 0 || s.n == 0) return;
  const PackedB* packed =
      s.packed_b != nullptr && s.packed_b->fits(s) ? s.packed_b : nullptr;
  init_c(s);
  for (std::size_t j0 = 0; j0 < s.n; j0 += kNc) {
    const std::size_t nb = std::min(kNc, s.n - j0);
    const std::size_t npanels = (nb + kNr - 1) / kNr;
    // k blocks ascend inside the column block, so each chain consumes the
    // whole shared dimension in order before the next column block starts.
    for (std::size_t p0 = 0; p0 < s.k; p0 += kKc) {
      const std::size_t kb = std::min(kKc, s.k - p0);
      const float* bp = nullptr;
      if (packed != nullptr) {
        bp = packed->block(p0, j0);
      } else {
        float* buf = scratch.pack_b(npanels * kNr * kb);
        pack_b_block(s, p0, kb, j0, nb, buf);
        bp = buf;
      }
      if (s.m < kMr) {
        row_block(s, p0, kb, j0, nb, bp, scratch.pack_a(s.m * kb));
        continue;
      }
      for (std::size_t i0 = 0; i0 < s.m; i0 += kMc) {
        const std::size_t mb = std::min(kMc, s.m - i0);
        const std::size_t mpanels = (mb + kMr - 1) / kMr;
        float* ap = scratch.pack_a(mpanels * kMr * kb);
        pack_a_block(s, i0, mb, p0, kb, kMr, ap);
        for (std::size_t jq = 0; jq < npanels; ++jq) {
          const std::size_t j = j0 + jq * kNr;
          const std::size_t nv = std::min(kNr, s.n - j);
          const float* bpanel = bp + jq * kNr * kb;
          for (std::size_t iq = 0; iq < mpanels; ++iq) {
            const std::size_t i = i0 + iq * kMr;
            const std::size_t mv = std::min(kMr, s.m - i);
            micro_tile(kb, ap + iq * kMr * kb, bpanel, s.c + i * s.ldc + j,
                       s.ldc, mv, nv);
          }
        }
      }
    }
  }
}

/// Registry handles for the kernel-layer metrics, resolved once.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Histogram& gemm_ms;

  static KernelMetrics& get() {
    static KernelMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return KernelMetrics{reg.counter("kernels.gemm_calls"),
                           reg.histogram("kernels.gemm_ms")};
    }();
    return m;
  }
};

}  // namespace

void PackedB::pack(const GemmSpec& spec) {
  panels_ = (spec.n + kNr - 1) / kNr;
  const std::size_t size = panels_ * kNr * spec.k;
  if (size > capacity_) {
    data_.reset(new float[size]);
    capacity_ = size;
  }
  for (std::size_t p0 = 0; p0 < spec.k; p0 += kKc) {
    pack_b_block(spec, p0, std::min(kKc, spec.k - p0), 0, spec.n,
                 data_.get() + p0 * panels_ * kNr);
  }
  k_ = spec.k;
  n_ = spec.n;
}

void gemm(const GemmSpec& spec) {
  auto& metrics = KernelMetrics::get();
  if (!obs::metrics_enabled()) {
    tiled_gemm(spec, KernelScratch::tls());
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  tiled_gemm(spec, KernelScratch::tls());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  metrics.calls.inc();
  metrics.gemm_ms.observe(ms);
}

}  // namespace gea::kernels
