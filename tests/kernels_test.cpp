// Tests for the src/kernels dense-math layer: the tiled GEMM bitwise equal
// to a naive k-ordered loop (naive_gemm, the oracle) across every block
// boundary of the compiled tile, ULP-bounded equivalence of the conv/dense
// lowering against the preserved seed loops (batch 1/3/16), bitwise batch
// invariance, scratch footprint stability, and the obs metric mirrors.
// Also the pre-packed B operand and the small-m path (bitwise equal to
// naive_gemm), the weight packs of Dense and Conv1D (bitwise equal to
// packing per call, and their lifecycle), and the input-only backward.
// Strided operands, empty dimensions and concurrent callers of the
// lock-free gemm() are held to the same naive_gemm oracle.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kernels/config.hpp"
#include "kernels/conv.hpp"
#include "kernels/gemm.hpp"
#include "kernels/reference.hpp"
#include "kernels/scratch.hpp"
#include "ml/activations.hpp"
#include "ml/conv1d.hpp"
#include "ml/model.hpp"
#include "ml/optimizer.hpp"
#include "ml/zoo.hpp"
#include "obs/metrics.hpp"
#include "temp_path.hpp"
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

bool bitwise_equal(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// One GEMM case on random operands: `init` picks the chain head (0 zero,
/// 1 bias_row, 2 bias_col, 3 accumulate onto a random C).
struct GemmCase {
  kernels::GemmSpec spec;
  std::vector<float> a, b, bias, c0;

  GemmCase(util::Rng& rng, std::size_t m, std::size_t n, std::size_t k,
           int init, bool trans_a, bool trans_b)
      : a(random_vec(rng, m * k)),
        b(random_vec(rng, k * n)),
        bias(random_vec(rng, m + n)),
        c0(random_vec(rng, m * n)) {
    spec.m = m;
    spec.n = n;
    spec.k = k;
    spec.a = a.data();
    spec.lda = trans_a ? m : k;
    spec.trans_a = trans_a;
    spec.b = b.data();
    spec.ldb = trans_b ? k : n;
    spec.trans_b = trans_b;
    spec.ldc = n;
    if (init == 1) spec.bias_row = bias.data();
    if (init == 2) spec.bias_col = bias.data() + m;
    if (init == 3) spec.accumulate = true;
  }

  /// C after kernels::gemm, reading B through `packed` when given.
  std::vector<float> gemm(const kernels::PackedB* packed = nullptr) const {
    std::vector<float> c = c0;
    kernels::GemmSpec sp = spec;
    sp.c = c.data();
    sp.packed_b = packed;
    kernels::gemm(sp);
    return c;
  }

  std::vector<float> naive() const {
    std::vector<float> c = c0;
    naive_gemm(spec, c.data());
    return c;
  }

  std::string tag() const {
    return "m=" + std::to_string(spec.m) + " n=" + std::to_string(spec.n) +
           " k=" + std::to_string(spec.k) +
           (spec.trans_a ? " trans_a" : "") + (spec.trans_b ? " trans_b" : "") +
           (spec.bias_row ? " bias_row" : "") +
           (spec.bias_col ? " bias_col" : "") +
           (spec.accumulate ? " accumulate" : "");
  }
};

TEST(Gemm, RandomizedSweepBitwiseEqualsNaive) {
  util::Rng rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    // Up to 2 * kMc + 5 rows, kNc + 70 columns and kKc + 120 depth, so
    // some trials cross each block boundary.
    const auto m = static_cast<std::size_t>(rng.uniform_int(1, 133));
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 582));
    const auto k = static_cast<std::size_t>(rng.uniform_int(1, 376));
    const auto init = static_cast<int>(rng.uniform_int(0, 3));
    const bool trans_a = rng.uniform() < 0.5;
    const bool trans_b = rng.uniform() < 0.5;
    const GemmCase g(rng, m, n, k, init, trans_a, trans_b);
    EXPECT_TRUE(bitwise_equal(g.gemm(), g.naive())) << g.tag();
  }
}

/// Every block boundary of the compiled tile: m around the small-m cutoff
/// (kMr), partial register tiles up to 2 * kMr + 1 and around kMc; k over
/// one, two and three kKc blocks; n around kNr and over two kNc column
/// blocks, not a multiple of kNr. Init modes and trans flags rotate.
TEST(Gemm, BlockBoundariesBitwiseEqualNaive) {
  // The shapes below sit on these values; a new tile needs new shapes.
  static_assert(kernels::kMr == 4 && kernels::kNr == 8 &&
                kernels::kMc == 64 && kernels::kKc == 256 &&
                kernels::kNc == 512);
  util::Rng rng(7);
  int index = 0;
  for (std::size_t m : {1, 3, 4, 5, 9, 63, 64, 65, 130}) {
    for (std::size_t n : {1, 7, 8, 9, 37, 512, 530}) {
      for (std::size_t k : {1, 3, 256, 257, 600}) {
        const GemmCase g(rng, m, n, k, index % 4, (index / 4) % 2 == 1,
                         (index / 8) % 2 == 1);
        ++index;
        ASSERT_TRUE(bitwise_equal(g.gemm(), g.naive())) << g.tag();
      }
    }
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

/// The environment line benches and /statusz print names the compiled tile.
TEST(KernelConfig, SummaryNamesTheCompiledTile) {
  EXPECT_EQ(kernels::active_config_summary(),
            "mr=4 nr=8 mc=64 kc=256 nc=512 source=default");
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

/// m = 1 .. 2*kMr+1 (both the small-m path and register tiles with partial
/// rows) and m > kMc, k over three kKc blocks, n over two kNc column blocks
/// and not a multiple of kNr, every init mode, trans_a and trans_b both
/// ways: the tiled path packing B per call and the same path reading a
/// PackedB both equal naive_gemm bit for bit.
TEST(Gemm, PackedAndSmallMBitwiseEqualNaive) {
  util::Rng rng(31);
  const std::size_t k = 600, n = 530;
  for (bool trans_b : {false, true}) {
    for (std::size_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 70}) {
      for (int init = 0; init < 4; ++init) {
        const GemmCase g(rng, m, n, k, init, m % 2 == 0, trans_b);
        kernels::PackedB packed;
        packed.pack(g.spec);
        ASSERT_TRUE(packed.fits(g.spec)) << g.tag();
        const auto want = g.naive();
        EXPECT_TRUE(bitwise_equal(g.gemm(), want)) << g.tag();
        EXPECT_TRUE(bitwise_equal(g.gemm(&packed), want)) << g.tag() << " packed";
      }
    }
  }
}

TEST(Gemm, PackIgnoredWhenShapeDiffers) {
  util::Rng rng(37);
  const GemmCase g(rng, 1, 24, 40, 0, false, false);
  kernels::PackedB packed;
  packed.pack(g.spec);
  EXPECT_TRUE(packed.fits(g.spec));
  // Under a shape the pack does not fit, the gemm reads `b` and stays exact.
  const GemmCase narrower(rng, 1, 23, 40, 0, false, false);
  const GemmCase shallower(rng, 1, 24, 39, 0, false, false);
  for (const GemmCase* other : {&narrower, &shallower}) {
    EXPECT_FALSE(packed.fits(other->spec)) << other->tag();
    EXPECT_TRUE(bitwise_equal(other->gemm(&packed), other->naive()))
        << other->tag();
  }
  packed.reset();
  EXPECT_FALSE(packed.fits(g.spec));
}

/// Operands viewed as sub-matrices of wider buffers (lda, ldb, ldc past the
/// logical width): every chain still equals naive_gemm bit for bit, with B
/// packed per call and read from a PackedB, and the columns of C past n
/// keep their contents.
TEST(Gemm, StridedOperandsBitwiseEqualNaiveAndPadUntouched) {
  util::Rng rng(41);
  const float kPad = -1234.5f;
  int index = 0;
  for (std::size_t m : {2, 5, 70}) {
    for (std::size_t n : {9, 530}) {
      for (std::size_t k : {7, 300}) {
        const bool trans_a = (index / 4) % 2 == 1, trans_b = index % 2 == 1;
        const int init = index % 4;
        ++index;
        const std::size_t lda = (trans_a ? m : k) + 3;
        const std::size_t ldb = (trans_b ? k : n) + 5;
        const std::size_t ldc = n + 11;
        const auto a = random_vec(rng, (trans_a ? k : m) * lda);
        const auto b = random_vec(rng, (trans_b ? n : k) * ldb);
        const auto bias = random_vec(rng, m + n);
        auto c0 = random_vec(rng, m * ldc);
        for (std::size_t i = 0; i < m; ++i) {
          for (std::size_t j = n; j < ldc; ++j) c0[i * ldc + j] = kPad;
        }
        kernels::GemmSpec spec;
        spec.m = m;
        spec.n = n;
        spec.k = k;
        spec.a = a.data();
        spec.lda = lda;
        spec.trans_a = trans_a;
        spec.b = b.data();
        spec.ldb = ldb;
        spec.trans_b = trans_b;
        spec.ldc = ldc;
        if (init == 1) spec.bias_row = bias.data();
        if (init == 2) spec.bias_col = bias.data() + m;
        if (init == 3) spec.accumulate = true;
        const std::string tag = "m=" + std::to_string(m) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k) +
                                " init=" + std::to_string(init) +
                                (trans_a ? " trans_a" : "") +
                                (trans_b ? " trans_b" : "");

        auto want = c0;
        naive_gemm(spec, want.data());
        kernels::PackedB packed;
        packed.pack(spec);
        for (const kernels::PackedB* pb : {static_cast<kernels::PackedB*>(nullptr),
                                           &packed}) {
          auto got = c0;
          kernels::GemmSpec sp = spec;
          sp.c = got.data();
          sp.packed_b = pb;
          kernels::gemm(sp);
          EXPECT_TRUE(bitwise_equal(got, want))
              << tag << (pb != nullptr ? " packed" : "");
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = n; j < ldc; ++j) {
              ASSERT_EQ(got[i * ldc + j], kPad) << tag << " pad (" << i << ", "
                                                << j << ")";
            }
          }
        }
      }
    }
  }
}

/// k = 0 leaves every chain at its head: zero, the bias, or the existing C
/// under accumulate, for the small-m path and register tiles alike, with B
/// packed per call and from an empty-depth PackedB. m = 0 or n = 0 writes
/// nothing.
TEST(Gemm, EmptyDimensionsWriteOnlyTheChainHead) {
  util::Rng rng(43);
  for (std::size_t m : {1, 3, 4, 9}) {
    for (int init = 0; init < 4; ++init) {
      const GemmCase g(rng, m, 19, 0, init, false, false);
      std::vector<float> want(m * 19);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < 19; ++j) {
          want[i * 19 + j] = init == 0   ? 0.0f
                             : init == 1 ? g.bias[i]
                             : init == 2 ? g.bias[m + j]
                                         : g.c0[i * 19 + j];
        }
      }
      kernels::PackedB packed;
      packed.pack(g.spec);
      EXPECT_TRUE(bitwise_equal(g.naive(), want)) << g.tag();
      EXPECT_TRUE(bitwise_equal(g.gemm(), want)) << g.tag();
      EXPECT_TRUE(bitwise_equal(g.gemm(&packed), want)) << g.tag() << " packed";
    }
  }
  for (const auto& [m, n] : {std::pair<std::size_t, std::size_t>{0, 13},
                            std::pair<std::size_t, std::size_t>{6, 0}}) {
    for (int init = 0; init < 4; ++init) {
      const GemmCase g(rng, m, n, 17, init, false, false);
      // C is a row of sentinels the call must not touch.
      std::vector<float> c(8, 7.0f);
      kernels::GemmSpec sp = g.spec;
      sp.c = c.data();
      kernels::gemm(sp);
      EXPECT_TRUE(bitwise_equal(c, std::vector<float>(8, 7.0f))) << g.tag();
    }
  }
}

/// gemm() takes no lock and runs on each thread's own KernelScratch: four
/// threads crafting interleaved GEMMs of different sizes (so their arenas
/// grow at different times), some reading one shared PackedB, each get
/// naive_gemm's bits every time.
TEST(Gemm, ConcurrentThreadsBitwiseEqualNaive) {
  util::Rng rng(47);
  std::vector<GemmCase> cases;
  std::vector<std::vector<float>> want;
  for (std::size_t i = 0; i < 8; ++i) {
    const std::size_t m = i % 2 == 0 ? 1 + i : 40 + 9 * i;
    cases.emplace_back(rng, m, 37 + 61 * i, 90 + 40 * i, static_cast<int>(i % 4),
                       i % 3 == 0, i % 2 == 1);
    want.push_back(cases.back().naive());
  }
  // One pack shared read-only by every thread.
  const GemmCase shared(rng, 5, 300, 270, 1, false, true);
  kernels::PackedB shared_pack;
  shared_pack.pack(shared.spec);
  const auto shared_want = shared.naive();

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 6; ++round) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const std::size_t c = (i + static_cast<std::size_t>(t) * 3) %
                                cases.size();
          if (!bitwise_equal(cases[c].gemm(), want[c])) ++mismatches[t];
        }
        if (!bitwise_equal(shared.gemm(&shared_pack), shared_want)) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

/// Conv1D forward and input gradient with W packed once by a WeightPack
/// and packed per call agree bit for bit: batch 1 .. kMr+1, same and valid
/// padding. Both shared dimensions (in_ch * k = 261 for the forward,
/// out_ch = 261 for the input gradient) span two kKc blocks.
TEST(WeightPack, ConvPackedBitwiseEqualsPerCall) {
  util::Rng rng(83);
  const std::size_t in_ch = 87, l_in = 11, out_ch = 261, k = 3;
  const std::size_t kdim = in_ch * k;
  static_assert(87 * 3 > kernels::kKc && 261 > kernels::kKc);
  const auto w = random_vec(rng, out_ch * kdim);
  const auto b = random_vec(rng, out_ch);
  // Forward output followed by the input gradient.
  auto run = [&](const kernels::Conv1DShape& s, const std::vector<float>& x,
                 const std::vector<float>& g, const kernels::PackedB* wt,
                 const kernels::PackedB* wp) {
    const std::size_t ny = s.n * out_ch * s.l_out();
    std::vector<float> out(ny + x.size(), 0.0f);
    kernels::conv1d_forward(s, x.data(), w.data(), b.data(), out.data(), wt);
    kernels::conv1d_input_grad(s, w.data(), g.data(), out.data() + ny, wp);
    return out;
  };
  kernels::WeightPack pack;
  const auto* wt = pack.forward(1, kdim, out_ch, w.data());
  const auto* wp = pack.input_grad(1, kdim, out_ch, w.data());
  ASSERT_NE(wt, nullptr);
  ASSERT_NE(wp, nullptr);
  for (bool same : {true, false}) {
    for (std::size_t n = 1; n <= kernels::kMr + 1; ++n) {
      const kernels::Conv1DShape s{n, in_ch, l_in, out_ch, k, same};
      const auto x = random_vec(rng, n * in_ch * l_in);
      const auto g = random_vec(rng, n * out_ch * s.l_out());
      EXPECT_TRUE(bitwise_equal(run(s, x, g, wt, wp),
                                run(s, x, g, nullptr, nullptr)))
          << "n=" << n << (same ? " same" : " valid");
    }
  }
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
TEST(WeightPack, InvalidatedWhenWeightsChange) {
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
    const std::string path = test::unique_temp_path("pack_invalidation.bin");
    auto saved = pm.make(53, dropout_rng);
    ASSERT_TRUE(saved.save_checked(path).is_ok());
    ASSERT_TRUE(model.load_checked(path).is_ok());
    std::remove(path.c_str());
    expect_fresh(before, "load_checked");
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
  util::Rng rng(29);
  const auto x = random_vec(rng, 8 * 32);
  const auto w = random_vec(rng, 16 * 32);
  const auto b = random_vec(rng, 16);
  std::vector<float> y(8 * 16);

  const auto calls0 = reg.snapshot().counters["kernels.gemm_calls"];
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());
  kernels::dense_forward(8, 32, 16, x.data(), w.data(), b.data(), y.data());

  const auto snap = reg.snapshot();
  EXPECT_GE(snap.counters.at("kernels.gemm_calls"), calls0 + 2);
  EXPECT_GE(snap.histograms.at("kernels.gemm_ms").count, 2u);
}

}  // namespace
