#include "dsp/fir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace fdb::dsp {
namespace {

TEST(FirFilterF, ImpulseResponseEqualsTaps) {
  const std::vector<float> taps = {0.5f, 0.25f, 0.125f};
  FirFilterF fir(taps);
  std::vector<float> out;
  out.push_back(fir.process(1.0f));
  out.push_back(fir.process(0.0f));
  out.push_back(fir.process(0.0f));
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_FLOAT_EQ(out[i], taps[i]);
  }
}

TEST(FirFilterF, BlockMatchesSampleBySample) {
  const auto taps = design_lowpass(0.2, 21);
  FirFilterF a(taps), b(taps);
  std::vector<float> in(100), out_block(100);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::sin(0.3f * static_cast<float>(i));
  }
  a.process(in, out_block);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(in[i]), out_block[i]);
  }
}

TEST(FirFilterF, StreamingSeamAcrossBlocks) {
  const auto taps = design_lowpass(0.1, 15);
  FirFilterF whole(taps), split(taps);
  std::vector<float> in(64);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = static_cast<float>(i % 7);
  std::vector<float> out1(64), out2a(32), out2b(32);
  whole.process(in, out1);
  split.process(std::span<const float>(in.data(), 32), out2a);
  split.process(std::span<const float>(in.data() + 32, 32), out2b);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_FLOAT_EQ(out1[i], out2a[i]);
    EXPECT_FLOAT_EQ(out1[32 + i], out2b[i]);
  }
}

TEST(FirFilterF, ResetClearsHistory) {
  FirFilterF fir({1.0f, 1.0f});
  fir.process(5.0f);
  fir.reset();
  EXPECT_FLOAT_EQ(fir.process(1.0f), 1.0f);  // no leftover 5.0
}

TEST(DesignLowpass, UnityDcGain) {
  const auto taps = design_lowpass(0.1, 51);
  float sum = 0.0f;
  for (const float t : taps) sum += t;
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(DesignLowpass, AttenuatesHighFrequency) {
  const auto taps = design_lowpass(0.1, 101);
  FirFilterF fir(taps);
  // Drive with a high-frequency tone (0.4 of fs) and compare output
  // power to a low-frequency tone (0.02 of fs).
  auto tone_gain = [&](double freq_norm) {
    FirFilterF f(taps);
    double in_power = 0.0, out_power = 0.0;
    for (int i = 0; i < 2000; ++i) {
      const float x = std::sin(2.0 * std::numbers::pi * freq_norm * i);
      const float y = f.process(x);
      if (i > 200) {  // skip transient
        in_power += x * x;
        out_power += y * y;
      }
    }
    return out_power / in_power;
  };
  EXPECT_GT(tone_gain(0.02), 0.9);
  EXPECT_LT(tone_gain(0.4), 1e-3);
}

TEST(DesignHighpass, BlocksDcPassesHigh) {
  const auto taps = design_highpass(0.1, 101);
  float dc_gain = 0.0f;
  for (const float t : taps) dc_gain += t;
  EXPECT_NEAR(dc_gain, 0.0f, 1e-4f);
}

TEST(DesignBoxcar, AveragesExactly) {
  const auto taps = design_boxcar(4);
  FirFilterF fir(taps);
  fir.process(4.0f);
  fir.process(8.0f);
  fir.process(12.0f);
  EXPECT_FLOAT_EQ(fir.process(16.0f), 10.0f);
}

TEST(FirFilterC, ComplexImpulse) {
  FirFilterC fir({0.5f, 0.5f});
  const cf32 y0 = fir.process({1.0f, 1.0f});
  EXPECT_FLOAT_EQ(y0.real(), 0.5f);
  EXPECT_FLOAT_EQ(y0.imag(), 0.5f);
  const cf32 y1 = fir.process({0.0f, 0.0f});
  EXPECT_FLOAT_EQ(y1.real(), 0.5f);
}

TEST(FirFilterCC, ComplexTapsRotate) {
  // Single tap j: output = j * input.
  FirFilterCC fir({cf32{0.0f, 1.0f}});
  const cf32 y = fir.process({1.0f, 0.0f});
  EXPECT_NEAR(y.real(), 0.0f, 1e-6f);
  EXPECT_NEAR(y.imag(), 1.0f, 1e-6f);
}

TEST(FirFilterF, RejectsMismatchedSpans) {
  FirFilterF fir(design_lowpass(0.1, 15));
  std::vector<float> in(64), shorter(32), longer(65);
  EXPECT_THROW(fir.process(in, shorter), std::invalid_argument);
  EXPECT_THROW(fir.process(in, longer), std::invalid_argument);
}

TEST(FirFilterC, RejectsMismatchedSpans) {
  FirFilterC fir(design_lowpass(0.1, 15));
  std::vector<cf32> in(64), shorter(32);
  EXPECT_THROW(fir.process(in, shorter), std::invalid_argument);
}

TEST(FirFilterCC, RejectsMismatchedSpans) {
  FirFilterCC fir({cf32{1.0f, 0.0f}, cf32{0.0f, 0.5f}});
  std::vector<cf32> in(64), shorter(32);
  EXPECT_THROW(fir.process(in, shorter), std::invalid_argument);
}

}  // namespace
}  // namespace fdb::dsp
