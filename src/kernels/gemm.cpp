#include "kernels/gemm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

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

/// Portable fallback: the same k-ordered chains, no packing, no tiling.
void scalar_gemm(const GemmSpec& s) {
  init_c(s);
  for (std::size_t i = 0; i < s.m; ++i) {
    float* crow = s.c + i * s.ldc;
    for (std::size_t j = 0; j < s.n; ++j) {
      float acc = crow[j];
      for (std::size_t p = 0; p < s.k; ++p) {
        acc += load_a(s, i, p) * load_b(s, p, j);
      }
      crow[j] = acc;
    }
  }
}

/// Pack the (mb x kb) block of A at (i0, p0) into MR-tall row panels laid
/// out k-major: panel q, offset kk*MR + r holds A[i0 + q*MR + r][p0 + kk].
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

/// Pack the (kb x nb) block of B at (p0, j0) into NR-wide column panels,
/// k-major: panel q, offset kk*NR + t holds B[p0 + kk][j0 + q*NR + t].
void pack_b_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
                  std::size_t j0, std::size_t nb, std::size_t nr, float* bp) {
  const std::size_t panels = (nb + nr - 1) / nr;
  for (std::size_t q = 0; q < panels; ++q) {
    float* panel = bp + q * nr * kb;
    const std::size_t cols = std::min(nr, nb - q * nr);
    for (std::size_t kk = 0; kk < kb; ++kk) {
      float* dst = panel + kk * nr;
      std::size_t t = 0;
      for (; t < cols; ++t) dst[t] = load_b(s, p0 + kk, j0 + q * nr + t);
      for (; t < nr; ++t) dst[t] = 0.0f;
    }
  }
}

/// The microkernels are compiled twice, for AVX2 and for the baseline ISA,
/// and the loader picks the clone the CPU runs (ifunc on cpuid). FMA is
/// deliberately not a target: without it every multiply and add stays
/// separately rounded, so the AVX2 clone computes the same chains lane for
/// lane and its results are bitwise the baseline's. scalar_gemm stays on
/// the baseline ISA as the reference.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define GEA_MICROKERNEL __attribute__((target_clones("avx2", "default")))
#else
#define GEA_MICROKERNEL
#endif

/// MR x NR register tile over a kb-deep panel pair. One code path for full
/// and partial tiles: valid lanes load their running chain from C, dead
/// lanes run on zeros and are dropped by the masked store — so the FP op
/// sequence of a chain never depends on where its element fell in the
/// tiling, which is what makes results independent of batch position.
template <int MR, int NR>
GEA_MICROKERNEL void micro_tile(std::size_t kb, const float* __restrict ap,
                                const float* __restrict bp,
                                float* __restrict c, std::size_t ldc,
                                std::size_t mv, std::size_t nv) {
  float acc[MR][NR];
  for (int r = 0; r < MR; ++r) {
    for (int t = 0; t < NR; ++t) {
      acc[r][t] = (static_cast<std::size_t>(r) < mv &&
                   static_cast<std::size_t>(t) < nv)
                      ? c[static_cast<std::size_t>(r) * ldc + t]
                      : 0.0f;
    }
  }
  for (std::size_t kk = 0; kk < kb; ++kk) {
    const float* __restrict arow = ap + kk * MR;
    const float* __restrict brow = bp + kk * NR;
    for (int r = 0; r < MR; ++r) {
      const float av = arow[r];
      for (int t = 0; t < NR; ++t) acc[r][t] += av * brow[t];
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

/// Small-m tile: one row of C against G consecutive NR-wide panels lying
/// `stride` floats apart, over a kb-deep block. Each lane runs exactly the
/// chain micro_tile would (loaded from C, advanced in k order, stored back
/// masked); G panels in flight give the adder independent chains to
/// overlap where one narrow panel would wait on its own latency.
template <int NR, int G>
GEA_MICROKERNEL void micro_row(std::size_t kb, const float* __restrict a,
                               const float* __restrict bp, std::size_t stride,
                               float* __restrict c, std::size_t nv) {
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

using MicroFn = void (*)(std::size_t, const float*, const float*, float*,
                         std::size_t, std::size_t, std::size_t);
using RowFn = void (*)(std::size_t, const float*, const float*, std::size_t,
                       float*, std::size_t);

/// Row kernels for one panel width: `group` runs `panels` panels at once
/// (32 lanes, eight SSE accumulators), `single` mops up the remainder.
struct RowKernels {
  RowFn group = nullptr;
  RowFn single = nullptr;
  std::size_t panels = 0;
};

RowKernels row_kernels(std::uint32_t nr) {
  switch (nr) {
    case 4: return {micro_row<4, 8>, micro_row<4, 1>, 8};
    case 8: return {micro_row<8, 4>, micro_row<8, 1>, 4};
    case 16: return {micro_row<16, 2>, micro_row<16, 1>, 2};
    default: return {};
  }
}

struct Variant {
  std::uint32_t mr, nr;
  MicroFn fn;
};

/// Must stay in sync with microkernel_variants() in config.cpp.
constexpr Variant kVariantTable[] = {
    {2, 4, micro_tile<2, 4>},   {4, 4, micro_tile<4, 4>},
    {2, 8, micro_tile<2, 8>},   {4, 8, micro_tile<4, 8>},
    {6, 8, micro_tile<6, 8>},   {8, 8, micro_tile<8, 8>},
    {4, 16, micro_tile<4, 16>}, {8, 4, micro_tile<8, 4>},
};

MicroFn find_variant(std::uint32_t mr, std::uint32_t nr) {
  for (const auto& v : kVariantTable) {
    if (v.mr == mr && v.nr == nr) return v.fn;
  }
  return nullptr;
}

/// Every row of C (m < mr) against the B block at (p0, j0), whose panels
/// start at `bp`. A rows are packed one per kb-long run of `ap`.
void row_block(const GemmSpec& s, std::size_t p0, std::size_t kb,
               std::size_t j0, std::size_t nb, std::size_t nr,
               const float* bp, const RowKernels& rk, float* ap) {
  pack_a_block(s, 0, s.m, p0, kb, 1, ap);
  const std::size_t npanels = (nb + nr - 1) / nr;
  const std::size_t stride = nr * kb;
  for (std::size_t i = 0; i < s.m; ++i) {
    const float* arow = ap + i * kb;
    float* crow = s.c + i * s.ldc + j0;
    std::size_t q = 0;
    for (; q + rk.panels <= npanels; q += rk.panels) {
      rk.group(kb, arow, bp + q * stride, stride, crow + q * nr,
               std::min(rk.panels * nr, nb - q * nr));
    }
    for (; q < npanels; ++q) {
      rk.single(kb, arow, bp + q * stride, stride, crow + q * nr,
                std::min(nr, nb - q * nr));
    }
  }
}

void tiled_gemm(const GemmSpec& s, const KernelConfig& cfg,
                KernelScratch& scratch, MicroFn micro) {
  const std::size_t mr = cfg.mr, nr = cfg.nr;
  const std::size_t mc = cfg.mc, kc = cfg.kc;
  // Whole panels per column block, so every block starts on a PackedB
  // panel boundary. Chains never span column blocks: nc is cache-only.
  const std::size_t nc = (cfg.nc + nr - 1) / nr * nr;
  const PackedB* packed =
      s.packed_b != nullptr && s.packed_b->fits(s, cfg) ? s.packed_b : nullptr;
  const RowKernels rows = s.m < mr ? row_kernels(cfg.nr) : RowKernels{};
  init_c(s);
  for (std::size_t j0 = 0; j0 < s.n; j0 += nc) {
    const std::size_t nb = std::min(nc, s.n - j0);
    const std::size_t npanels = (nb + nr - 1) / nr;
    // k blocks ascend inside the column block, so each chain consumes the
    // whole shared dimension in order before the next column block starts.
    for (std::size_t p0 = 0; p0 < s.k; p0 += kc) {
      const std::size_t kb = std::min(kc, s.k - p0);
      const float* bp = nullptr;
      if (packed != nullptr) {
        bp = packed->block(p0, j0);
      } else {
        float* buf = scratch.pack_b(npanels * nr * kb);
        pack_b_block(s, p0, kb, j0, nb, nr, buf);
        bp = buf;
      }
      if (rows.group != nullptr) {
        row_block(s, p0, kb, j0, nb, nr, bp, rows, scratch.pack_a(s.m * kb));
        continue;
      }
      for (std::size_t i0 = 0; i0 < s.m; i0 += mc) {
        const std::size_t mb = std::min(mc, s.m - i0);
        const std::size_t mpanels = (mb + mr - 1) / mr;
        float* ap = scratch.pack_a(mpanels * mr * kb);
        pack_a_block(s, i0, mb, p0, kb, mr, ap);
        for (std::size_t jq = 0; jq < npanels; ++jq) {
          const std::size_t j = j0 + jq * nr;
          const std::size_t nv = std::min(nr, s.n - j);
          const float* bpanel = bp + jq * nr * kb;
          for (std::size_t iq = 0; iq < mpanels; ++iq) {
            const std::size_t i = i0 + iq * mr;
            const std::size_t mv = std::min(mr, s.m - i);
            micro(kb, ap + iq * mr * kb, bpanel, s.c + i * s.ldc + j, s.ldc,
                  mv, nv);
          }
        }
      }
    }
  }
}

/// Registry handles for the kernel-layer metrics, resolved once.
struct KernelMetrics {
  obs::Counter& calls;
  obs::Counter& tuned;
  obs::Counter& fallback;
  obs::Histogram& gemm_ms;

  static KernelMetrics& get() {
    static KernelMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return KernelMetrics{reg.counter("kernels.gemm_calls"),
                           reg.counter("kernels.tuned"),
                           reg.counter("kernels.fallback"),
                           reg.histogram("kernels.gemm_ms")};
    }();
    return m;
  }
};

}  // namespace

void PackedB::pack(const GemmSpec& spec, const KernelConfig& cfg) {
  reset();
  if (cfg.scalar()) return;
  const std::size_t nr = cfg.nr, kc = cfg.kc;
  panels_ = (spec.n + nr - 1) / nr;
  const std::size_t size = panels_ * nr * spec.k;
  if (size > capacity_) {
    data_.reset(new float[size]);
    capacity_ = size;
  }
  for (std::size_t p0 = 0; p0 < spec.k; p0 += kc) {
    pack_b_block(spec, p0, std::min(kc, spec.k - p0), 0, spec.n, nr,
                 data_.get() + p0 * panels_ * nr);
  }
  k_ = spec.k;
  n_ = spec.n;
  kc_ = cfg.kc;
  nr_ = cfg.nr;
}

void gemm(const GemmSpec& spec, const KernelConfig& cfg,
          KernelScratch& scratch) {
  if (spec.m == 0 || spec.n == 0) return;
  MicroFn micro = cfg.scalar() ? nullptr : find_variant(cfg.mr, cfg.nr);
  if (micro == nullptr) {
    scalar_gemm(spec);
    return;
  }
  tiled_gemm(spec, cfg, scratch, micro);
}

void gemm(const GemmSpec& spec) {
  const KernelConfig cfg = active_config();
  auto& metrics = KernelMetrics::get();
  if (!obs::metrics_enabled()) {
    gemm(spec, cfg, KernelScratch::tls());
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  gemm(spec, cfg, KernelScratch::tls());
  const double ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                start)
          .count();
  metrics.calls.inc();
  metrics.gemm_ms.observe(ms);
  if (cfg.scalar()) {
    metrics.fallback.inc();
  } else if (cfg.tuned()) {
    metrics.tuned.inc();
  }
}

}  // namespace gea::kernels
