// Tests for the src/kernels dense-math layer: ULP-bounded equivalence of
// the tiled GEMM path against the preserved seed loops across a randomized
// shape sweep (ragged M/N/K, batch 1/3/16), bitwise batch invariance,
// scalar-fallback parity, config persistence round-trips, scratch
// footprint stability, and the obs metric mirrors. Also the pre-packed B
// operand and the small-m path (bitwise equal to the per-call tiled path
// and the scalar fallback), the weight packs of Dense and Conv1D (bitwise
// equal to packing per call, and their lifecycle), and the input-only
// backward.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reference.hpp"
#include "kernels/scratch.hpp"
#include "kernels/tune.hpp"
#include "ml/activations.hpp"
#include "ml/conv1d.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace gea;

/// ULP distance between two floats (0 for numerically equal values,
/// including +0 vs -0); huge for NaN or sign-crossing pairs.
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

/// Pass when within `ulps` or within an absolute escape hatch (chains that
/// cancel toward zero make ULP distance meaningless for tiny values).
void expect_close(float a, float b, std::int64_t ulps, float atol,
                  const std::string& what) {
  if (ulp_diff(a, b) <= ulps) return;
  EXPECT_LE(std::fabs(a - b), atol) << what << ": " << a << " vs " << b
                                    << " (ulp=" << ulp_diff(a, b) << ")";
}

void expect_all_close(const std::vector<float>& got,
                      const std::vector<float>& want, std::int64_t ulps,
                      float atol, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_close(got[i], want[i], ulps, atol, what + "[" + std::to_string(i) + "]");
  }
}

std::vector<float> random_vec(util::Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

/// Naive k-ordered GEMM directly off the spec — the chain-order oracle.
void naive_gemm(const kernels::GemmSpec& s, float* c) {
  auto a_at = [&](std::size_t i, std::size_t p) {
    return s.trans_a ? s.a[p * s.lda + i] : s.a[i * s.lda + p];
  };
  auto b_at = [&](std::size_t p, std::size_t j) {
    return s.trans_b ? s.b[j * s.ldb + p] : s.b[p * s.ldb + j];
  };
  for (std::size_t i = 0; i < s.m; ++i) {
    for (std::size_t j = 0; j < s.n; ++j) {
      float acc;
      if (s.accumulate) acc = c[i * s.ldc + j];
      else if (s.bias_row) acc = s.bias_row[i];
      else if (s.bias_col) acc = s.bias_col[j];
      else acc = 0.0f;
      for (std::size_t p = 0; p < s.k; ++p) acc += a_at(i, p) * b_at(p, j);
      c[i * s.ldc + j] = acc;
    }
  }
}

kernels::KernelConfig tiled_cfg(std::uint32_t mr, std::uint32_t nr,
                                std::uint32_t mc, std::uint32_t kc,
                                std::uint32_t nc) {
  kernels::KernelConfig cfg;
  cfg.mr = mr;
  cfg.nr = nr;
  cfg.mc = mc;
  cfg.kc = kc;
  cfg.nc = nc;
  cfg.source = kernels::KernelConfig::Source::kTuned;
  return cfg;
}

TEST(Gemm, RandomizedSweepMatchesNaiveAcrossVariants) {
  util::Rng rng(42);
  kernels::KernelScratch scratch;
  const auto& variants = kernels::microkernel_variants();
  for (int trial = 0; trial < 60; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 70));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 90));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 120));
    kernels::GemmSpec spec;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.trans_a = rng.uniform() < 0.5;
    spec.trans_b = rng.uniform() < 0.5;
    const auto a = random_vec(rng, m * k);
    const auto b = random_vec(rng, k * n);
    const auto bias = random_vec(rng, m + n);
    spec.a = a.data();
    spec.lda = spec.trans_a ? m : k;
    spec.b = b.data();
    spec.ldb = spec.trans_b ? k : n;
    spec.ldc = n;
    const int bias_mode = static_cast<int>(rng.uniform_int(0, 3));
    std::vector<float> c0 = random_vec(rng, m * n);  // accumulate seed
    if (bias_mode == 0) spec.bias_row = bias.data();
    else if (bias_mode == 1) spec.bias_col = bias.data() + m;
    else if (bias_mode == 2) spec.accumulate = true;

    std::vector<float> want = c0;
    spec.c = want.data();
    naive_gemm(spec, want.data());

    // Small blocks on some trials force multi-block k/n/m paths.
    const auto& [mr, nr] = variants[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(variants.size()) - 1))];
    const bool small_blocks = rng.uniform() < 0.5;
    const auto cfg = small_blocks ? tiled_cfg(mr, nr, 16, 24, 32)
                                  : tiled_cfg(mr, nr, 64, 256, 512);

    std::vector<float> got = c0;
    spec.c = got.data();
    kernels::gemm(spec, cfg, scratch);
    expect_all_close(got, want, 4, 1e-5f,
                     "gemm m=" + std::to_string(m) + " n=" + std::to_string(n) +
                         " k=" + std::to_string(k) + " cfg=" + cfg.summary());
  }
}

TEST(Gemm, ScalarFallbackParity) {
  util::Rng rng(7);
  kernels::KernelScratch scratch;
  for (int trial = 0; trial < 20; ++trial) {
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 60));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 80));
    const auto a = random_vec(rng, m * k);
    const auto b = random_vec(rng, k * n);
    const auto bias = random_vec(rng, m);
    kernels::GemmSpec spec;
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.a = a.data();
    spec.lda = k;
    spec.b = b.data();
    spec.ldb = n;
    spec.ldc = n;
    spec.bias_row = bias.data();

    std::vector<float> tiled(m * n), scalar(m * n);
    spec.c = tiled.data();
    kernels::gemm(spec, kernels::default_config(), scratch);
    spec.c = scalar.data();
    kernels::gemm(spec, kernels::scalar_config(), scratch);
    expect_all_close(tiled, scalar, 4, 1e-5f, "tiled-vs-scalar");
  }
}

struct ConvCase {
  kernels::Conv1DShape shape;
  std::vector<float> x, w, b;
};

ConvCase random_conv_case(util::Rng& rng, std::size_t n, std::size_t k,
                          bool same) {
  ConvCase c;
  c.shape.n = n;
  c.shape.in_ch = static_cast<std::size_t>(rng.uniform_int(1, 8));
  c.shape.out_ch = static_cast<std::size_t>(rng.uniform_int(1, 12));
  c.shape.k = k;
  c.shape.same = same;
  c.shape.l_in = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(k), 40));
  c.x = random_vec(rng, n * c.shape.in_ch * c.shape.l_in);
  c.w = random_vec(rng, c.shape.out_ch * c.shape.in_ch * k);
  c.b = random_vec(rng, c.shape.out_ch);
  return c;
}

TEST(ConvLowering, ForwardMatchesSeedReferenceSweep) {
  util::Rng rng(11);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (bool same : {true, false}) {
        for (int rep = 0; rep < 4; ++rep) {
          const auto c = random_conv_case(rng, n, k, same);
          const std::size_t ysz = n * c.shape.out_ch * c.shape.l_out();
          std::vector<float> got(ysz), want(ysz);
          kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                                  got.data());
          kernels::reference::conv1d_forward(c.shape, c.x.data(), c.w.data(),
                                             c.b.data(), want.data());
          expect_all_close(got, want, 64, 1e-4f,
                           "conv fwd n=" + std::to_string(n) +
                               " k=" + std::to_string(k) +
                               (same ? " same" : " valid"));
        }
      }
    }
  }
}

TEST(ConvLowering, BackwardMatchesSeedReferenceSweep) {
  util::Rng rng(13);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (std::size_t k : {1u, 3u, 5u}) {
      for (bool same : {true, false}) {
        const auto c = random_conv_case(rng, n, k, same);
        const auto grad_out =
            random_vec(rng, n * c.shape.out_ch * c.shape.l_out());
        const std::size_t xsz = n * c.shape.in_ch * c.shape.l_in;
        const std::size_t wsz = c.w.size();
        std::vector<float> gx_got(xsz, 0.0f), gw_got(wsz, 0.0f),
            gb_got(c.shape.out_ch, 0.0f);
        std::vector<float> gx_want(xsz, 0.0f), gw_want(wsz, 0.0f),
            gb_want(c.shape.out_ch, 0.0f);
        kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                                 grad_out.data(), gx_got.data(), gw_got.data(),
                                 gb_got.data());
        kernels::reference::conv1d_backward(c.shape, c.x.data(), c.w.data(),
                                            grad_out.data(), gx_want.data(),
                                            gw_want.data(), gb_want.data());
        const std::string tag = "conv bwd n=" + std::to_string(n) +
                                " k=" + std::to_string(k) +
                                (same ? " same" : " valid");
        expect_all_close(gb_got, gb_want, 4, 1e-5f, tag + " gb");
        expect_all_close(gw_got, gw_want, 256, 1e-3f, tag + " gw");
        expect_all_close(gx_got, gx_want, 256, 1e-3f, tag + " gx");
      }
    }
  }
}

TEST(ConvLowering, DenseMatchesSeedReferenceSweep) {
  util::Rng rng(17);
  for (std::size_t n : {1u, 3u, 16u}) {
    for (int rep = 0; rep < 4; ++rep) {
      const auto in = static_cast<std::size_t>(rng.uniform_int(1, 100));
      const auto out = static_cast<std::size_t>(rng.uniform_int(1, 60));
      const auto x = random_vec(rng, n * in);
      const auto w = random_vec(rng, out * in);
      const auto b = random_vec(rng, out);
      std::vector<float> got(n * out), want(n * out);
      kernels::dense_forward(n, in, out, x.data(), w.data(), b.data(),
                             got.data());
      kernels::reference::dense_forward(n, in, out, x.data(), w.data(),
                                        b.data(), want.data());
      // Same accumulation order as the seed loop — tight bound.
      expect_all_close(got, want, 4, 1e-5f, "dense fwd n=" + std::to_string(n));

      const auto grad_out = random_vec(rng, n * out);
      std::vector<float> gx_got(n * in, 0.0f), gw_got(out * in, 0.0f),
          gb_got(out, 0.0f);
      std::vector<float> gx_want(n * in, 0.0f), gw_want(out * in, 0.0f),
          gb_want(out, 0.0f);
      kernels::dense_backward(n, in, out, x.data(), w.data(), grad_out.data(),
                              gx_got.data(), gw_got.data(), gb_got.data());
      kernels::reference::dense_backward(n, in, out, x.data(), w.data(),
                                         grad_out.data(), gx_want.data(),
                                         gw_want.data(), gb_want.data());
      expect_all_close(gb_got, gb_want, 4, 1e-5f, "dense gb");
      expect_all_close(gw_got, gw_want, 64, 1e-4f, "dense gw");
      expect_all_close(gx_got, gx_want, 64, 1e-4f, "dense gx");
    }
  }
}

/// The serving guarantee at kernel level: an element's value must not
/// depend on where its sample sits in the batch — batched conv/dense
/// outputs are bitwise identical to sixteen single-sample runs.
TEST(ConvLowering, BatchedForwardBitwiseEqualsPerSample) {
  util::Rng rng(19);
  const std::size_t n = 16;
  for (bool same : {true, false}) {
    const auto c = random_conv_case(rng, n, 3, same);
    const std::size_t per = c.shape.out_ch * c.shape.l_out();
    std::vector<float> batched(n * per);
    kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                            batched.data());
    kernels::Conv1DShape one = c.shape;
    one.n = 1;
    std::vector<float> single(per);
    for (std::size_t i = 0; i < n; ++i) {
      kernels::conv1d_forward(one,
                              c.x.data() + i * c.shape.in_ch * c.shape.l_in,
                              c.w.data(), c.b.data(), single.data());
      for (std::size_t j = 0; j < per; ++j) {
        EXPECT_EQ(batched[i * per + j], single[j])
            << "sample " << i << " elem " << j;
      }
    }
  }

  const std::size_t in = 368, out = 512;
  const auto x = random_vec(rng, n * in);
  const auto w = random_vec(rng, out * in);
  const auto b = random_vec(rng, out);
  std::vector<float> batched(n * out), single(out);
  kernels::dense_forward(n, in, out, x.data(), w.data(), b.data(),
                         batched.data());
  for (std::size_t i = 0; i < n; ++i) {
    kernels::dense_forward(1, in, out, x.data() + i * in, w.data(), b.data(),
                           single.data());
    for (std::size_t o = 0; o < out; ++o) {
      EXPECT_EQ(batched[i * out + o], single[o]) << "sample " << i;
    }
  }
}

TEST(KernelConfig, RoundTripSaveLoad) {
  const std::string path = ::testing::TempDir() + "gea_kernels_roundtrip.cfg";
  auto cfg = tiled_cfg(8, 8, 128, 64, 256);
  ASSERT_TRUE(kernels::save_config(cfg, path).is_ok());
  auto loaded = kernels::load_config(path);
  ASSERT_TRUE(loaded.is_ok()) << loaded.status().to_string();
  EXPECT_EQ(loaded.value().mr, cfg.mr);
  EXPECT_EQ(loaded.value().nr, cfg.nr);
  EXPECT_EQ(loaded.value().mc, cfg.mc);
  EXPECT_EQ(loaded.value().kc, cfg.kc);
  EXPECT_EQ(loaded.value().nc, cfg.nc);
  EXPECT_EQ(loaded.value().source, kernels::KernelConfig::Source::kTuned);
  std::remove(path.c_str());
}

TEST(KernelConfig, LoadRejectsMissingCorruptAndUnsupported) {
  EXPECT_FALSE(kernels::load_config("/nonexistent/gea.cfg").is_ok());

  const std::string bad_header = ::testing::TempDir() + "gea_kernels_bad.cfg";
  {
    std::FILE* f = std::fopen(bad_header.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not a kernel config\nmr 4\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(kernels::load_config(bad_header).is_ok());
  std::remove(bad_header.c_str());

  const std::string unsupported = ::testing::TempDir() + "gea_kernels_uns.cfg";
  auto cfg = tiled_cfg(5, 7, 64, 64, 64);  // no such microkernel
  // save_config happily writes it; load must refuse via validate().
  ASSERT_TRUE(kernels::save_config(cfg, unsupported).is_ok());
  auto loaded = kernels::load_config(unsupported);
  EXPECT_FALSE(loaded.is_ok());
  std::remove(unsupported.c_str());
}

TEST(KernelConfig, SetActiveRejectsInvalidKeepsPrevious) {
  const auto before = kernels::active_config();
  EXPECT_FALSE(kernels::set_active_config(tiled_cfg(3, 9, 64, 64, 64)).is_ok());
  EXPECT_EQ(kernels::active_config().summary(), before.summary());
  // Valid configs install and report through the summary.
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  EXPECT_EQ(kernels::active_config_summary(), "scalar source=fallback");
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());
}

TEST(KernelScratch, FootprintStableAfterWarmup) {
  util::Rng rng(23);
  const auto c = random_conv_case(rng, 16, 3, true);
  const auto grad_out = random_vec(rng, 16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> y(16 * c.shape.out_ch * c.shape.l_out());
  std::vector<float> gx(c.x.size()), gw(c.w.size()), gb(c.b.size());

  auto pass = [&] {
    kernels::conv1d_forward(c.shape, c.x.data(), c.w.data(), c.b.data(),
                            y.data());
    kernels::conv1d_backward(c.shape, c.x.data(), c.w.data(), grad_out.data(),
                             gx.data(), gw.data(), gb.data());
  };
  pass();  // warm-up grows the thread-local arena
  const std::size_t warm = kernels::KernelScratch::tls().footprint_bytes();
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 10; ++i) pass();
  EXPECT_EQ(kernels::KernelScratch::tls().footprint_bytes(), warm)
      << "steady-state kernel calls must not grow scratch";
}

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Every compiled variant, m = 1 .. 2*mr+1 (so both the small-m path and
/// register tiles with partial rows run), k over several kc blocks, n not a
/// multiple of nr, trans_b both ways: the per-call tiled path, the same
/// path reading a PackedB, and the scalar fallback agree bit for bit.
TEST(Gemm, PackedAndSmallMBitwiseEqualTiledAndScalar) {
  util::Rng rng(31);
  kernels::KernelScratch scratch;
  const std::size_t k = 61, n = 37;
  for (const auto& [mr, nr] : kernels::microkernel_variants()) {
    // kc = 24: k spans three k blocks. nc = 20 is not a whole number of
    // panels for any nr, so column blocks exercise the panel rounding.
    const auto cfg = tiled_cfg(mr, nr, 16, 24, 20);
    for (bool trans_b : {false, true}) {
      const auto b = random_vec(rng, k * n);
      kernels::GemmSpec base;
      base.n = n;
      base.k = k;
      base.b = b.data();
      base.ldb = trans_b ? k : n;
      base.trans_b = trans_b;
      kernels::PackedB packed;
      packed.pack(base, cfg);
      ASSERT_TRUE(packed.fits(base, cfg));
      for (std::size_t m = 1; m <= 2 * mr + 1; ++m) {
        const auto a = random_vec(rng, m * k);
        const auto bias = random_vec(rng, n);
        const auto c0 = random_vec(rng, m * n);
        kernels::GemmSpec spec = base;
        spec.m = m;
        spec.a = a.data();
        spec.lda = k;
        spec.ldc = n;
        if (m % 3 == 0) spec.bias_col = bias.data();
        if (m % 3 == 1) spec.accumulate = true;

        auto run = [&](const kernels::KernelConfig& use,
                       const kernels::PackedB* pb) {
          std::vector<float> c = c0;
          kernels::GemmSpec sp = spec;
          sp.c = c.data();
          sp.packed_b = pb;
          kernels::gemm(sp, use, scratch);
          return c;
        };
        const auto tiled = run(cfg, nullptr);
        const auto with_pack = run(cfg, &packed);
        const auto scalar = run(kernels::scalar_config(), &packed);
        const std::string tag = cfg.summary() + " m=" + std::to_string(m) +
                                (trans_b ? " trans_b" : "");
        EXPECT_TRUE(bitwise_equal(with_pack, tiled)) << tag;
        EXPECT_TRUE(bitwise_equal(scalar, tiled)) << tag;
      }
    }
  }
}

TEST(Gemm, PackIgnoredWhenConfigOrShapeDiffers) {
  util::Rng rng(37);
  kernels::KernelScratch scratch;
  const std::size_t m = 1, k = 40, n = 24;
  const auto a = random_vec(rng, m * k);
  const auto b = random_vec(rng, k * n);
  kernels::GemmSpec spec;
  spec.m = m;
  spec.n = n;
  spec.k = k;
  spec.a = a.data();
  spec.lda = k;
  spec.b = b.data();
  spec.ldb = n;
  spec.ldc = n;
  const auto built_for = tiled_cfg(4, 8, 64, 16, 512);
  kernels::PackedB packed;
  packed.pack(spec, built_for);
  EXPECT_TRUE(packed.fits(spec, built_for));
  EXPECT_FALSE(packed.fits(spec, tiled_cfg(4, 16, 64, 16, 512)));
  EXPECT_FALSE(packed.fits(spec, tiled_cfg(4, 8, 64, 32, 512)));
  EXPECT_TRUE(packed.fits(spec, tiled_cfg(8, 8, 32, 16, 64)));  // mr/mc/nc free
  kernels::GemmSpec wider = spec;
  wider.n = n - 1;
  EXPECT_FALSE(packed.fits(wider, built_for));
  EXPECT_FALSE(packed.fits(spec, kernels::scalar_config()));

  // Under a config it does not fit, the gemm reads `b` and stays exact.
  const auto other = tiled_cfg(4, 16, 64, 32, 512);
  std::vector<float> want(m * n), got(m * n);
  spec.c = want.data();
  kernels::gemm(spec, other, scratch);
  spec.c = got.data();
  spec.packed_b = &packed;
  kernels::gemm(spec, other, scratch);
  EXPECT_TRUE(bitwise_equal(got, want));

  packed.reset();
  EXPECT_FALSE(packed.fits(spec, built_for));
}

/// Conv1D forward and input gradient with W packed once by a WeightPack,
/// packed per call, and under the scalar config agree bit for bit: every
/// compiled variant, batch 1 .. mr+1, same and valid padding. kc = 8 puts
/// both shared dimensions (in_ch * k = 15, out_ch = 13) over two k blocks.
TEST(WeightPack, ConvPackedBitwiseEqualsPerCallAndScalar) {
  util::Rng rng(83);
  const auto prev = kernels::active_config();
  const std::size_t in_ch = 5, l_in = 11, out_ch = 13, k = 3;
  const std::size_t kdim = in_ch * k;
  const auto w = random_vec(rng, out_ch * kdim);
  const auto b = random_vec(rng, out_ch);
  // Forward output followed by the input gradient, under the active config.
  auto run = [&](const kernels::Conv1DShape& s, const std::vector<float>& x,
                 const std::vector<float>& g, const kernels::PackedB* wt,
                 const kernels::PackedB* wp) {
    const std::size_t ny = s.n * out_ch * s.l_out();
    std::vector<float> out(ny + x.size(), 0.0f);
    kernels::conv1d_forward(s, x.data(), w.data(), b.data(), out.data(), wt);
    kernels::conv1d_input_grad(s, w.data(), g.data(), out.data() + ny, wp);
    return out;
  };
  for (const auto& [mr, nr] : kernels::microkernel_variants()) {
    const auto cfg = tiled_cfg(mr, nr, 16, 8, 20);
    for (bool same : {true, false}) {
      for (std::size_t n = 1; n <= mr + 1; ++n) {
        const kernels::Conv1DShape s{n, in_ch, l_in, out_ch, k, same};
        const auto x = random_vec(rng, n * in_ch * l_in);
        const auto g = random_vec(rng, n * out_ch * s.l_out());
        const std::string tag = cfg.summary() + " n=" + std::to_string(n) +
                                (same ? " same" : " valid");

        ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
        kernels::WeightPack pack;
        EXPECT_EQ(pack.forward(1, kdim, out_ch, w.data()), nullptr) << tag;
        EXPECT_EQ(pack.input_grad(1, kdim, out_ch, w.data()), nullptr) << tag;
        const auto scalar = run(s, x, g, nullptr, nullptr);

        ASSERT_TRUE(kernels::set_active_config(cfg).is_ok());
        const auto* wt = pack.forward(1, kdim, out_ch, w.data());
        const auto* wp = pack.input_grad(1, kdim, out_ch, w.data());
        ASSERT_NE(wt, nullptr) << tag;
        ASSERT_NE(wp, nullptr) << tag;
        const auto per_call = run(s, x, g, nullptr, nullptr);
        const auto packed = run(s, x, g, wt, wp);
        EXPECT_TRUE(bitwise_equal(packed, per_call)) << tag;
        EXPECT_TRUE(bitwise_equal(per_call, scalar)) << tag;
      }
    }
  }
  ASSERT_TRUE(kernels::set_active_config(prev).is_ok());
}

/// Paper CNN over the 23 features, He-initialized from `seed`.
ml::Model paper_cnn(std::uint64_t seed, util::Rng& dropout_rng) {
  util::Rng weight_rng(seed);
  auto model = ml::make_paper_cnn(23, 2, dropout_rng);
  model.init(weight_rng);
  return model;
}

/// Two Conv1D layers and no other weights: (n, 1, 23) in, (n, 2) logits
/// out, so every pack the model keeps is a Conv1D's.
ml::Model conv_only(std::uint64_t seed, util::Rng& /*dropout_rng*/) {
  util::Rng weight_rng(seed);
  ml::Model model;
  model.add(std::make_unique<ml::Conv1D>(1, 6, 3, ml::Padding::kSame))
      .add(std::make_unique<ml::ReLU>())
      .add(std::make_unique<ml::Conv1D>(6, 2, 23, ml::Padding::kValid))
      .add(std::make_unique<ml::Flatten>());
  model.init(weight_rng);
  return model;
}

/// The models the pack lifecycle tests run on: the paper CNN (Conv1D and
/// Dense packs) and the conv-only model (Conv1D packs alone).
struct PackedModel {
  const char* name;
  ml::Model (*make)(std::uint64_t, util::Rng&);
};
constexpr PackedModel kPackedModels[] = {{"paper_cnn", paper_cnn},
                                         {"conv_only", conv_only}};

ml::Tensor random_batch(util::Rng& rng, std::size_t n) {
  ml::Tensor x({n, 1, 23});
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return x;
}

bool same_bits(const ml::Tensor& a, const ml::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Batch-1 and batch-2 infer plus a batch-1 input gradient: warms (or
/// checks) every weight pack the model keeps. Returns them concatenated.
std::vector<float> probe(ml::Model& model, const ml::Tensor& x1,
                         const ml::Tensor& x2) {
  std::vector<float> out;
  for (const auto* x : {&x1, &x2}) {
    const auto y = model.infer(*x);
    out.insert(out.end(), y.data(), y.data() + y.size());
  }
  ml::ModelClassifier clf(model, 23, 2);
  std::vector<double> row(23);
  for (std::size_t i = 0; i < 23; ++i) row[i] = x1[i];
  for (double g : clf.grad_logit(row, 1)) out.push_back(static_cast<float>(g));
  return out;
}

/// Each way weights change must drop the packs: afterwards the model
/// answers exactly like a fresh clone (which packs from scratch) and no
/// longer like it did before the change.
TEST(WeightPack, InvalidatedWhenWeightsOrConfigChange) {
  for (const auto& pm : kPackedModels) {
    SCOPED_TRACE(pm.name);
    util::Rng dropout_rng(0), data_rng(41);
    auto model = pm.make(43, dropout_rng);
    const auto x1 = random_batch(data_rng, 1);
    const auto x2 = random_batch(data_rng, 2);
    auto expect_fresh = [&](const std::vector<float>& before,
                            const std::string& what) {
      const auto now = probe(model, x1, x2);
      auto clone = model.clone();
      EXPECT_TRUE(bitwise_equal(now, probe(clone, x1, x2))) << what;
      EXPECT_FALSE(bitwise_equal(now, before)) << what << " changed nothing";
    };

    // Optimizer step.
    auto before = probe(model, x1, x2);
    {
      model.zero_grad();
      const auto logits = model.forward(random_batch(data_rng, 4), true);
      ml::Tensor seed(logits.shape());
      for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = 1.0f;
      (void)model.backward(seed);
      ml::Adam opt(0.01);
      opt.step(model.params());
    }
    expect_fresh(before, "optimizer step");

    // copy_params_from.
    before = probe(model, x1, x2);
    auto other = pm.make(47, dropout_rng);
    model.copy_params_from(other);
    expect_fresh(before, "copy_params_from");

    // load_checked.
    before = probe(model, x1, x2);
    const std::string path =
        ::testing::TempDir() + "gea_pack_invalidation.bin";
    auto saved = pm.make(53, dropout_rng);
    ASSERT_TRUE(saved.save_checked(path).is_ok());
    ASSERT_TRUE(model.load_checked(path).is_ok());
    std::remove(path.c_str());
    expect_fresh(before, "load_checked");

    // set_active_config: another register width and k-block depth. The
    // numbers cannot change (the chain contract), so compare with a clone
    // packed under the new config, and with the old config's answer.
    before = probe(model, x1, x2);
    const auto prev = kernels::active_config();
    ASSERT_TRUE(
        kernels::set_active_config(tiled_cfg(4, 16, 32, 100, 256)).is_ok());
    auto clone = model.clone();
    const auto under_new = probe(model, x1, x2);
    EXPECT_TRUE(bitwise_equal(under_new, probe(clone, x1, x2)));
    EXPECT_TRUE(bitwise_equal(under_new, before));
    ASSERT_TRUE(kernels::set_active_config(prev).is_ok());
    EXPECT_TRUE(bitwise_equal(probe(model, x1, x2), before));
  }
}

/// A Param is a write lease: while one is alive, writes through it between
/// forwards are seen by the very next forward.
TEST(WeightPack, WritesThroughLiveParamAreSeen) {
  for (const auto& pm : kPackedModels) {
    SCOPED_TRACE(pm.name);
    util::Rng dropout_rng(0), data_rng(59);
    auto model = pm.make(61, dropout_rng);
    const auto x1 = random_batch(data_rng, 1);
    const auto x2 = random_batch(data_rng, 2);
    (void)probe(model, x1, x2);  // build the packs
    const auto params = model.params();
    for (int step = 0; step < 3; ++step) {
      for (const auto& p : params) (*p.value)[0] += 0.25f;
      auto clone = model.clone();
      EXPECT_TRUE(bitwise_equal(probe(model, x1, x2), probe(clone, x1, x2)))
          << "step " << step;
    }
  }
}

/// backward_input returns backward()'s dL/dx bit for bit and leaves every
/// parameter gradient at zero.
TEST(InputOnlyBackward, SameBitsAsBackwardAndGradsUntouched) {
  util::Rng dropout_rng(0), data_rng(67);
  auto model = paper_cnn(71, dropout_rng);
  for (std::size_t n : {1u, 2u, 5u}) {
    const auto x = random_batch(data_rng, n);
    ml::Tensor seed({n, 2});
    for (std::size_t i = 0; i < seed.size(); ++i) {
      seed[i] = static_cast<float>(data_rng.uniform(-1.0, 1.0));
    }
    model.zero_grad();
    (void)model.forward(x, false);
    const auto input_only = model.backward_input(seed);
    for (const auto& p : model.params()) {
      for (float g : *p.grad) {
        ASSERT_EQ(g, 0.0f) << p.name << " touched at batch " << n;
      }
    }
    (void)model.forward(x, false);
    const auto full = model.backward(seed);
    EXPECT_TRUE(same_bits(input_only, full)) << "batch " << n;
  }
}

/// Batched infer (register tiles at n >= mr, the small-m path below it)
/// equals per-sample forward bit for bit, with the weights pre-packed.
TEST(WeightPack, BatchedInferStillEqualsPerSampleForward) {
  for (const auto& pm : kPackedModels) {
    SCOPED_TRACE(pm.name);
    util::Rng dropout_rng(0), data_rng(73);
    auto model = pm.make(79, dropout_rng);
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 9u, 16u}) {
      const auto x = random_batch(data_rng, n);
      const auto batched = model.infer(x);
      for (std::size_t i = 0; i < n; ++i) {
        ml::Tensor one({1, 1, 23});
        std::memcpy(one.data(), x.data() + i * 23, 23 * sizeof(float));
        const auto single = model.forward(one, false);
        EXPECT_EQ(std::memcmp(single.data(), batched.data() + i * 2,
                              2 * sizeof(float)),
                  0)
            << "batch " << n << " row " << i;
      }
    }
  }
}

TEST(KernelMetrics, GemmActivityMirroredIntoRegistry) {
  auto& reg = obs::MetricsRegistry::global();
  const auto before = kernels::active_config();

  util::Rng rng(29);
  const auto x = random_vec(rng, 8 * 32);
  const auto w = random_vec(rng, 16 * 32);
  const auto b = random_vec(rng, 16);
  std::vector<float> y(8 * 16);

  const auto calls0 = reg.snapshot().counters["kernels.gemm_calls"];
  const auto tuned0 = reg.snapshot().counters["kernels.tuned"];
  const auto fallback0 = reg.snapshot().counters["kernels.fallback"];

  auto tuned_cfg = kernels::default_config();
  tuned_cfg.source = kernels::KernelConfig::Source::kTuned;
  ASSERT_TRUE(kernels::set_active_config(tuned_cfg).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(kernels::scalar_config()).is_ok());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  ASSERT_TRUE(kernels::set_active_config(before).is_ok());

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("kernels.gemm_calls"), calls0 + 2);
  EXPECT_GE(snap.counters.at("kernels.tuned"), tuned0 + 1);
  EXPECT_GE(snap.counters.at("kernels.fallback"), fallback0 + 1);
  EXPECT_GE(snap.histograms.at("kernels.gemm_ms").count, 2u);
}

TEST(Tuner, QuickSearchReturnsSupportedWinner) {
  kernels::TuneOptions opts;
  opts.quick = true;
  opts.reps = 1;
  opts.shapes = {{12, 48, 24, "tiny1"}, {5, 7, 11, "tiny2"}};
  const auto report = kernels::tune(opts);
  EXPECT_EQ(report.candidates.size(), kernels::microkernel_variants().size());
  EXPECT_TRUE(kernels::microkernel_supported(report.best.mr, report.best.nr));
  EXPECT_EQ(report.best.source, kernels::KernelConfig::Source::kTuned);
  EXPECT_GT(report.best_ms, 0.0);
  EXPECT_GT(report.scalar_ms, 0.0);
  for (std::size_t i = 1; i < report.candidates.size(); ++i) {
    EXPECT_LE(report.candidates[i - 1].total_ms, report.candidates[i].total_ms);
  }
  // The tuner is an observer: it must not touch the active config.
  EXPECT_TRUE(kernels::validate(kernels::active_config()).is_ok());
}

}  // namespace
