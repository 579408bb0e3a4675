// Batch-vs-scalar equivalence for every dsp kernel: feeding one stream
// sample-at-a-time through process(x) and feeding the identical stream
// through process(span) in randomized chunk sizes (including chunk==1
// and chunk > window/taps) must produce bit-identical outputs. The
// scalar paths are thin wrappers over the batch kernels, and the batch
// kernels key any internal bookkeeping (history compaction, accumulator
// refresh) to absolute sample counts, so this holds exactly — no ulp
// tolerance needed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <span>
#include <vector>

#include "dsp/correlator.hpp"
#include "dsp/envelope.hpp"
#include "dsp/fir.hpp"
#include "dsp/iir.hpp"
#include "dsp/moving_average.hpp"
#include "phy/preamble.hpp"
#include "phy/slicer.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace fdb::dsp {
namespace {

/// Random chunk sizes covering the edge cases: lots of 1s, sizes below
/// and above typical window/tap counts, and a jumbo chunk bigger than
/// the kernels' internal 4096-sample blocks.
std::vector<std::size_t> random_chunks(std::size_t total, Rng& rng) {
  static constexpr std::size_t kPalette[] = {1,  1,  2,  3,   5,    7,  17,
                                             64, 91, 256, 1024, 5000};
  std::vector<std::size_t> chunks;
  std::size_t left = total;
  while (left > 0) {
    std::size_t n = kPalette[rng.uniform_int(std::size(kPalette))];
    n = std::min(n, left);
    chunks.push_back(n);
    left -= n;
  }
  return chunks;
}

std::vector<float> random_stream(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> x(n);
  for (auto& v : x) v = 1.0f + 0.25f * static_cast<float>(rng.normal());
  return x;
}

std::vector<cf32> random_stream_c(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cf32> x(n);
  for (auto& v : x) v = rng.cn(1.0);
  return x;
}

/// Drives two identically-constructed kernels over the same float
/// stream — one scalar, one chunked — and asserts bit-identity.
template <typename Kernel>
void expect_float_kernel_equivalent(Kernel scalar_k, Kernel batch_k,
                                    std::size_t total, std::uint64_t seed) {
  const auto in = random_stream(total, seed);
  std::vector<float> ref(total), out(total);
  for (std::size_t i = 0; i < total; ++i) ref[i] = scalar_k.process(in[i]);
  Rng chunk_rng(seed ^ 0xc0ffee);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(total, chunk_rng)) {
    batch_k.process(std::span<const float>(in.data() + pos, n),
                    std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(ref[i], out[i]) << "diverged at sample " << i;
  }
}

TEST(BatchEquivalence, MovingAverageFloat) {
  expect_float_kernel_equivalent(MovingAverage<float>(17),
                                 MovingAverage<float>(17), 6000, 11);
}

TEST(BatchEquivalence, MovingAverageDouble) {
  MovingAverage<double> scalar(64), batch(64);
  const auto inf = random_stream(5000, 12);
  std::vector<double> in(inf.begin(), inf.end());
  std::vector<double> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(99);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const double>(in.data() + pos, n),
                  std::span<double>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, OnePole) {
  expect_float_kernel_equivalent(OnePole(0.05), OnePole(0.05), 6000, 13);
}

TEST(BatchEquivalence, Biquad) {
  expect_float_kernel_equivalent(Biquad::lowpass(500.0, 48000.0),
                                 Biquad::lowpass(500.0, 48000.0), 6000, 14);
}

TEST(BatchEquivalence, FirFilterF) {
  const auto taps = design_lowpass(0.2, 63);
  expect_float_kernel_equivalent(FirFilterF(taps), FirFilterF(taps), 9000,
                                 16);
}

TEST(BatchEquivalence, SlidingCorrelator) {
  // Long enough to cross the correlator's internal accumulator-refresh
  // boundary (2^15 samples) and several history compactions.
  const auto pattern = phy::chips_to_pattern(phy::barker13_chips());
  expect_float_kernel_equivalent(SlidingCorrelator(pattern, 4),
                                 SlidingCorrelator(pattern, 4), 70000, 17);
}

TEST(BatchEquivalence, SlidingCorrelatorSimdDispatch) {
  // Three-way pin with the full 34-chip frame preamble (the window the
  // streaming receiver actually runs): per-sample process(x), the
  // scalar batch reference process_scalar(span), and the dispatched
  // process(span) — which routes to the SIMD dot kernel when the build
  // ISA has AVX2+FMA or AVX-512 — must agree bit-for-bit. The SIMD
  // kernel owes this to the exact-product theorem (float-valued
  // operands multiply exactly in double, so FMA cannot round
  // differently) plus the pinned 4-partial summation tree; chunk sizes
  // differ between the two batch drives so block boundaries, history
  // compaction, and the widened-window scratch refill all land at
  // different offsets.
  const auto pattern = phy::chips_to_pattern(phy::default_preamble_chips());
  const std::size_t total = 70000;
  const auto in = random_stream(total, 42);
  SlidingCorrelator by_sample(pattern, 6);
  SlidingCorrelator scalar_batch(pattern, 6);
  SlidingCorrelator dispatched(pattern, 6);
  std::vector<float> ref(total), scalar_out(total), simd_out(total);
  for (std::size_t i = 0; i < total; ++i) ref[i] = by_sample.process(in[i]);
  Rng chunk_a(424242);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(total, chunk_a)) {
    scalar_batch.process_scalar(std::span<const float>(in.data() + pos, n),
                                std::span<float>(scalar_out.data() + pos, n));
    pos += n;
  }
  Rng chunk_b(777);
  pos = 0;
  for (const std::size_t n : random_chunks(total, chunk_b)) {
    dispatched.process(std::span<const float>(in.data() + pos, n),
                       std::span<float>(simd_out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(ref[i], scalar_out[i]) << "scalar batch diverged at " << i;
    ASSERT_EQ(ref[i], simd_out[i]) << "dispatched batch diverged at " << i;
  }
}

/// Every pattern-dot kernel this host can run: scalar always, AVX2 and
/// AVX-512 where the CPU has them — not only the one dispatch picks.
std::vector<detail::DotKernel> host_kernels() {
  std::vector<detail::DotKernel> kernels;
  for (const auto k : {detail::DotKernel::kScalar, detail::DotKernel::kAvx2,
                       detail::DotKernel::kAvx512}) {
    if (detail::supported(k)) kernels.push_back(k);
  }
  return kernels;
}

TEST(BatchEquivalence, DotKernelsMatchReferenceDot) {
  // Each kernel against dot_one_d window by window. Window lengths with
  // w % 4 != 0 exercise the sequential tail after the four partial
  // sums; output counts that are not multiples of 16, 8 or 4 leave a
  // remainder after every lane-block width. Taps and samples are
  // float-valued doubles, as the correlator feeds them.
  Rng rng(2024);
  for (const std::size_t w : {1, 2, 3, 4, 5, 7, 13, 34, 102, 204, 253}) {
    std::vector<double> pat(w);
    for (auto& p : pat) p = static_cast<float>(rng.normal());
    std::vector<double> win(61 + w - 1);
    for (auto& v : win) v = static_cast<float>(1.0 + 0.25 * rng.normal());
    for (const std::size_t n :
         {0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 23, 24, 31, 33, 47, 61}) {
      for (const auto k : host_kernels()) {
        std::vector<double> dots(n, -1.0);
        detail::dot_block(k, pat.data(), w, win.data(), n, dots.data());
        for (std::size_t j = 0; j < n; ++j) {
          ASSERT_EQ(detail::dot_one_d(pat.data(), w, win.data() + j), dots[j])
              << detail::kernel_name(k) << " w=" << w << " n=" << n
              << " j=" << j;
        }
      }
    }
  }
}

TEST(BatchEquivalence, SlidingCorrelatorEveryKernel) {
  // process(span) forced onto each host kernel against process_scalar,
  // with the 34-chip frame preamble at every samples-per-chip find_sync
  // correlates at. find_sync strides chips of spc >= 16 samples by the
  // largest divisor s of spc with 2 <= s <= spc/8 and correlates at
  // spc/s samples per chip; below 16 (or with no such s) it runs at spc.
  const auto pattern = phy::chips_to_pattern(phy::default_preamble_chips());
  const auto sync_spc = [](std::size_t spc) {
    for (std::size_t s = spc / 8; spc >= 16 && s >= 2; --s) {
      if (spc % s == 0) return spc / s;
    }
    return spc;
  };
  const auto in = random_stream(6000, 99);
  for (const std::size_t spc : {1, 2, 3, 5, 6, 8, 12, 15, 16, 17, 20, 24,
                                64, 100}) {
    const std::size_t c = sync_spc(spc);
    for (const auto k : host_kernels()) {
      SlidingCorrelator ref_k(pattern, c), k_k(pattern, c);
      k_k.use_kernel(k);
      ASSERT_EQ(k_k.kernel(), k);
      std::vector<float> ref(in.size()), out(in.size());
      ref_k.process_scalar(in, ref);
      Rng chunk_rng(spc);
      std::size_t pos = 0;
      for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
        k_k.process(std::span<const float>(in.data() + pos, n),
                    std::span<float>(out.data() + pos, n));
        pos += n;
      }
      for (std::size_t i = 0; i < in.size(); ++i) {
        ASSERT_EQ(ref[i], out[i]) << detail::kernel_name(k) << " spc=" << spc
                                  << " (correlated at " << c << ") sample "
                                  << i;
      }
    }
  }
}

TEST(BatchEquivalence, AdaptiveSlicerBatch) {
  // The slicer's batch path swaps the per-chip O(window) min/max rescan
  // for monotonic-deque rolling extremes; window extremes involve no FP
  // accumulation, so decisions, soft values, and threshold state must
  // match decide() exactly — with and without hysteresis, across chunk
  // splits that straddle the window wrap.
  for (const float hysteresis : {0.0f, 0.08f}) {
    phy::SlicerConfig cfg;
    cfg.window_chips = 32;
    cfg.hysteresis = hysteresis;
    phy::AdaptiveSlicer scalar(cfg), batch(cfg);
    const std::size_t total = 4000;
    Rng rng(31 + static_cast<std::uint64_t>(hysteresis * 100));
    std::vector<float> chips(total);
    for (auto& c : chips) {
      const bool on = rng.uniform() < 0.5;
      c = (on ? 1.3f : 1.0f) + 0.05f * static_cast<float>(rng.normal());
    }
    std::vector<std::uint8_t> ref_bits, out_bits;
    std::vector<float> ref_soft, out_soft;
    for (const float c : chips) {
      ref_bits.push_back(scalar.decide(c));
      ref_soft.push_back(scalar.last_soft());
    }
    Rng chunk_rng(55);
    std::size_t pos = 0;
    for (const std::size_t n : random_chunks(total, chunk_rng)) {
      batch.process(std::span<const float>(chips.data() + pos, n), out_bits,
                    &out_soft);
      pos += n;
    }
    ASSERT_EQ(ref_bits.size(), out_bits.size());
    for (std::size_t i = 0; i < total; ++i) {
      ASSERT_EQ(ref_bits[i], out_bits[i]) << "decision diverged at " << i;
      ASSERT_EQ(ref_soft[i], out_soft[i]) << "soft diverged at " << i;
    }
    ASSERT_EQ(scalar.threshold(), batch.threshold());
  }
}

TEST(BatchEquivalence, SlotGatewayFused) {
  // The fused per-gateway slot kernel must reproduce its per-sample
  // reference exactly: both sum the selected coupling coefficients
  // before the single carrier multiply, so the only question is whether
  // vectorization/alignment perturbs rounding — it must not, including
  // on spans deliberately offset from the allocation base (misaligned
  // relative to any vector width).
  constexpr std::size_t kEntities = 7;
  constexpr std::size_t kSamples = 3001;  // odd on purpose
  Rng rng(91);
  std::vector<cf32> carrier_buf(kSamples + 3);
  for (auto& c : carrier_buf) c = rng.cn(1.0);
  std::vector<std::vector<std::uint8_t>> mask_store(kEntities);
  std::vector<const std::uint8_t*> masks(kEntities);
  std::vector<cf32> c_on(kEntities), c_off(kEntities);
  for (std::size_t e = 0; e < kEntities; ++e) {
    mask_store[e].resize(kSamples + 3);
    for (auto& m : mask_store[e]) {
      m = rng.uniform() < 0.5 ? std::uint8_t{1} : std::uint8_t{0};
    }
    c_on[e] = rng.cn(1e-3);
    c_off[e] = rng.cn(1e-4);
  }
  const cf32 leak = rng.cn(1e-2);
  for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                   std::size_t{3}}) {
    const std::span<const cf32> carrier(carrier_buf.data() + offset,
                                        kSamples);
    for (std::size_t e = 0; e < kEntities; ++e) {
      masks[e] = mask_store[e].data() + offset;
    }
    std::vector<cf32> scratch(kSamples), fused(kSamples), ref(kSamples);
    sim::WaveformSynthesizer::synthesize_slot_gateway(
        carrier, leak, masks, c_on, c_off, scratch, fused);
    sim::WaveformSynthesizer::synthesize_slot_gateway_reference(
        carrier, leak, masks, c_on, c_off, ref);
    for (std::size_t i = 0; i < kSamples; ++i) {
      ASSERT_EQ(ref[i].real(), fused[i].real())
          << "offset " << offset << " sample " << i;
      ASSERT_EQ(ref[i].imag(), fused[i].imag())
          << "offset " << offset << " sample " << i;
    }
    // Aliasing contract: out may alias carrier.
    std::vector<cf32> in_place(carrier.begin(), carrier.end());
    sim::WaveformSynthesizer::synthesize_slot_gateway(
        in_place, leak, masks, c_on, c_off, scratch, in_place);
    for (std::size_t i = 0; i < kSamples; ++i) {
      ASSERT_EQ(ref[i].real(), in_place[i].real()) << i;
      ASSERT_EQ(ref[i].imag(), in_place[i].imag()) << i;
    }
  }
}

TEST(BatchEquivalence, EnvelopeDetector) {
  EnvelopeDetector scalar(100e3, 2e6), batch(100e3, 2e6);
  const auto in = random_stream_c(6000, 18);
  std::vector<float> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(18);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, SquareLawDetector) {
  SquareLawDetector scalar(100e3, 2e6), batch(100e3, 2e6);
  const auto in = random_stream_c(6000, 19);
  std::vector<float> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(19);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<float>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) ASSERT_EQ(ref[i], out[i]);
}

TEST(BatchEquivalence, FirFilterC) {
  const auto taps = design_lowpass(0.15, 31);
  FirFilterC scalar(taps), batch(taps);
  const auto in = random_stream_c(6000, 21);
  std::vector<cf32> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(21);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<cf32>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(ref[i].real(), out[i].real()) << i;
    ASSERT_EQ(ref[i].imag(), out[i].imag()) << i;
  }
}

TEST(BatchEquivalence, FirFilterCC) {
  Rng tap_rng(22);
  std::vector<cf32> taps(9);
  for (auto& t : taps) t = tap_rng.cn(0.5);
  FirFilterCC scalar(taps), batch(taps);
  const auto in = random_stream_c(6000, 23);
  std::vector<cf32> ref(in.size()), out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) ref[i] = scalar.process(in[i]);
  Rng chunk_rng(23);
  std::size_t pos = 0;
  for (const std::size_t n : random_chunks(in.size(), chunk_rng)) {
    batch.process(std::span<const cf32>(in.data() + pos, n),
                  std::span<cf32>(out.data() + pos, n));
    pos += n;
  }
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(ref[i].real(), out[i].real()) << i;
    ASSERT_EQ(ref[i].imag(), out[i].imag()) << i;
  }
}

}  // namespace
}  // namespace fdb::dsp
