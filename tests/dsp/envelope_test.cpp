#include "dsp/envelope.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

namespace fdb::dsp {
namespace {

TEST(EnvelopeDetector, ConstantCarrierSettlesToMagnitude) {
  EnvelopeDetector env(1000.0, 100000.0);
  float y = 0.0f;
  for (int i = 0; i < 20000; ++i) y = env.process({3.0f, 4.0f});
  EXPECT_NEAR(y, 5.0f, 1e-3f);  // |3+4j| = 5
}

TEST(EnvelopeDetector, TracksAmplitudeStep) {
  EnvelopeDetector env(5000.0, 100000.0);
  for (int i = 0; i < 5000; ++i) env.process({1.0f, 0.0f});
  float y = 0.0f;
  for (int i = 0; i < 5000; ++i) y = env.process({2.0f, 0.0f});
  EXPECT_NEAR(y, 2.0f, 1e-2f);
}

TEST(EnvelopeDetector, PhaseInvariant) {
  // Rotating carrier with constant magnitude -> constant envelope.
  EnvelopeDetector env(1000.0, 100000.0);
  float min_y = 1e9f, max_y = -1e9f;
  for (int i = 0; i < 50000; ++i) {
    const double angle = 2.0 * std::numbers::pi * 0.01 * i;
    const float y = env.process({static_cast<float>(std::cos(angle)),
                                 static_cast<float>(std::sin(angle))});
    if (i > 10000) {
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
  }
  EXPECT_NEAR(min_y, 1.0f, 1e-3f);
  EXPECT_NEAR(max_y, 1.0f, 1e-3f);
}

TEST(EnvelopeDetector, BlockApiMatches) {
  EnvelopeDetector a(2000.0, 100000.0), b(2000.0, 100000.0);
  std::vector<cf32> in(100, cf32{1.0f, 1.0f});
  std::vector<float> out(100);
  a.process(in, out);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_FLOAT_EQ(b.process(in[i]), out[i]);
  }
}

TEST(SquareLawDetector, SettlesToPower) {
  SquareLawDetector det(1000.0, 100000.0);
  float y = 0.0f;
  for (int i = 0; i < 20000; ++i) y = det.process({3.0f, 4.0f});
  EXPECT_NEAR(y, 25.0f, 1e-2f);  // |3+4j|^2 = 25
}

TEST(EnvelopeDetector, ResetForgetsState) {
  EnvelopeDetector env(1000.0, 100000.0);
  for (int i = 0; i < 1000; ++i) env.process({10.0f, 0.0f});
  env.reset();
  const float y = env.process({1.0f, 0.0f});
  EXPECT_LT(y, 1.0f);  // fresh RC ramping from zero, no residue of 10
}

TEST(EnvelopeDetector, RejectsMismatchedSpans) {
  EnvelopeDetector det(1e3, 1e6);
  std::vector<cf32> in(64);
  std::vector<float> shorter(32), longer(65);
  EXPECT_THROW(det.process(in, shorter), std::invalid_argument);
  EXPECT_THROW(det.process(in, longer), std::invalid_argument);
}

TEST(SquareLawDetector, RejectsMismatchedSpans) {
  SquareLawDetector det(1e3, 1e6);
  std::vector<cf32> in(64);
  std::vector<float> shorter(32);
  EXPECT_THROW(det.process(in, shorter), std::invalid_argument);
}

}  // namespace
}  // namespace fdb::dsp
