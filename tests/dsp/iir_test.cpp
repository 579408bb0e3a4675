#include "dsp/iir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace fdb::dsp {
namespace {

TEST(OnePole, ConvergesToDcInput) {
  OnePole lp(0.1);
  float y = 0.0f;
  for (int i = 0; i < 500; ++i) y = lp.process(2.0f);
  EXPECT_NEAR(y, 2.0f, 1e-4f);
}

TEST(OnePole, AlphaOneIsPassthrough) {
  OnePole lp(1.0);
  EXPECT_FLOAT_EQ(lp.process(3.5f), 3.5f);
  EXPECT_FLOAT_EQ(lp.process(-1.0f), -1.0f);
}

TEST(OnePole, FromCutoffTracksSpeed) {
  // A higher cutoff converges faster.
  auto settle_steps = [](double cutoff) {
    OnePole lp = OnePole::from_cutoff(cutoff, 1000.0);
    int steps = 0;
    float y = 0.0f;
    while (y < 0.95f && steps < 100000) {
      y = lp.process(1.0f);
      ++steps;
    }
    return steps;
  };
  EXPECT_LT(settle_steps(100.0), settle_steps(10.0));
}

TEST(OnePole, ResetToValue) {
  OnePole lp(0.5);
  lp.process(10.0f);
  lp.reset(1.0f);
  EXPECT_FLOAT_EQ(lp.value(), 1.0f);
}

TEST(Biquad, LowpassPassesDcBlocksHigh) {
  auto tone_gain = [](Biquad filter, double freq, double fs) {
    double in_power = 0.0, out_power = 0.0;
    for (int i = 0; i < 4000; ++i) {
      const float x =
          std::sin(2.0 * std::numbers::pi * freq * i / fs);
      const float y = filter.process(x);
      if (i > 500) {
        in_power += x * x;
        out_power += y * y;
      }
    }
    return out_power / in_power;
  };
  EXPECT_GT(tone_gain(Biquad::lowpass(100.0, 8000.0), 10.0, 8000.0), 0.9);
  EXPECT_LT(tone_gain(Biquad::lowpass(100.0, 8000.0), 3000.0, 8000.0), 1e-3);
  EXPECT_LT(tone_gain(Biquad::highpass(1000.0, 8000.0), 20.0, 8000.0), 1e-2);
  EXPECT_GT(tone_gain(Biquad::highpass(1000.0, 8000.0), 3500.0, 8000.0), 0.8);
}

TEST(Biquad, DcBlockerRemovesOffset) {
  Biquad dc = Biquad::dc_blocker(8000.0);
  float y = 1.0f;
  for (int i = 0; i < 50000; ++i) y = dc.process(5.0f);
  EXPECT_NEAR(y, 0.0f, 1e-3f);
}

TEST(Biquad, ResetClearsState) {
  Biquad lp = Biquad::lowpass(100.0, 8000.0);
  for (int i = 0; i < 100; ++i) lp.process(1.0f);
  lp.reset();
  // After reset the first output should match a fresh filter.
  Biquad fresh = Biquad::lowpass(100.0, 8000.0);
  EXPECT_FLOAT_EQ(lp.process(1.0f), fresh.process(1.0f));
}

TEST(Biquad, BlockApiMatchesSampleApi) {
  Biquad a = Biquad::lowpass(200.0, 8000.0);
  Biquad b = Biquad::lowpass(200.0, 8000.0);
  std::vector<float> in(256), out(256);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = std::cos(0.05f * static_cast<float>(i));
  }
  a.process(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(in[i]), out[i]);
  }
}

TEST(OnePole, RejectsMismatchedSpans) {
  OnePole lp(0.5);
  std::vector<float> in(64), shorter(32), longer(65);
  EXPECT_THROW(lp.process(in, shorter), std::invalid_argument);
  EXPECT_THROW(lp.process(in, longer), std::invalid_argument);
}

TEST(Biquad, RejectsMismatchedSpans) {
  Biquad bq = Biquad::lowpass(1000.0, 48000.0);
  std::vector<float> in(64), shorter(32);
  EXPECT_THROW(bq.process(in, shorter), std::invalid_argument);
}

}  // namespace
}  // namespace fdb::dsp
