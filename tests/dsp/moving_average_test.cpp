#include "dsp/moving_average.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <span>
#include <stdexcept>
#include <vector>

namespace fdb::dsp {
namespace {

TEST(MovingAverage, WarmupAveragesPartialWindow) {
  MovingAverage<float> ma(4);
  EXPECT_FLOAT_EQ(ma.process(4.0f), 4.0f);
  EXPECT_FLOAT_EQ(ma.process(8.0f), 6.0f);
  EXPECT_FALSE(ma.warmed_up());
}

TEST(MovingAverage, FullWindowAverage) {
  MovingAverage<float> ma(4);
  ma.process(1.0f);
  ma.process(2.0f);
  ma.process(3.0f);
  EXPECT_FLOAT_EQ(ma.process(4.0f), 2.5f);
  EXPECT_TRUE(ma.warmed_up());
}

TEST(MovingAverage, SlidesCorrectly) {
  MovingAverage<float> ma(2);
  ma.process(1.0f);
  ma.process(3.0f);
  EXPECT_FLOAT_EQ(ma.process(5.0f), 4.0f);  // (3+5)/2
  EXPECT_FLOAT_EQ(ma.process(7.0f), 6.0f);  // (5+7)/2
}

TEST(MovingAverage, ValueWithoutPush) {
  MovingAverage<float> ma(3);
  EXPECT_FLOAT_EQ(ma.value(), 0.0f);
  ma.process(6.0f);
  EXPECT_FLOAT_EQ(ma.value(), 6.0f);
}

TEST(MovingAverage, ResetClears) {
  MovingAverage<float> ma(3);
  ma.process(9.0f);
  ma.reset();
  EXPECT_EQ(ma.filled(), 0u);
  EXPECT_FLOAT_EQ(ma.process(2.0f), 2.0f);
}

TEST(MovingAverage, DoubleTypeLongRunStable) {
  MovingAverage<double> ma(100);
  for (int i = 0; i < 100000; ++i) ma.process(1.0);
  EXPECT_NEAR(ma.value(), 1.0, 1e-9);
}

TEST(MovingAverage, BatchKernelMatchesScalarThroughWarmup) {
  // One chunk straddling the warm-up boundary: the prologue averages
  // over the partial fill, the steady-state loop over the full window.
  MovingAverage<float> scalar(4), batch(4);
  const float in[] = {4.0f, 8.0f, 6.0f, 2.0f, 10.0f, 0.0f, 4.0f};
  float out[std::size(in)] = {};
  batch.process(std::span<const float>(in, std::size(in)),
                std::span<float>(out, std::size(in)));
  for (std::size_t i = 0; i < std::size(in); ++i) {
    EXPECT_FLOAT_EQ(out[i], scalar.process(in[i])) << i;
  }
  EXPECT_FLOAT_EQ(out[0], 4.0f);
  EXPECT_FLOAT_EQ(out[1], 6.0f);
  EXPECT_FLOAT_EQ(out[3], 5.0f);  // (4+8+6+2)/4
}

TEST(WindowedMinMax, TracksWindow) {
  WindowedMinMax<float> mm(3);
  mm.push(5.0f);
  mm.push(1.0f);
  mm.push(3.0f);
  EXPECT_FLOAT_EQ(mm.min(), 1.0f);
  EXPECT_FLOAT_EQ(mm.max(), 5.0f);
  mm.push(4.0f);  // evicts 5
  EXPECT_FLOAT_EQ(mm.max(), 4.0f);
  EXPECT_FLOAT_EQ(mm.min(), 1.0f);
  mm.push(2.0f);  // evicts 1
  EXPECT_FLOAT_EQ(mm.min(), 2.0f);
}

TEST(WindowedMinMax, SizeCapped) {
  WindowedMinMax<int> mm(2);
  mm.push(1);
  mm.push(2);
  mm.push(3);
  EXPECT_EQ(mm.size(), 2u);
}

TEST(MovingAverage, RejectsMismatchedSpans) {
  MovingAverage<float> ma(4);
  std::vector<float> in(64), shorter(32), longer(65);
  EXPECT_THROW(ma.process(in, shorter), std::invalid_argument);
  EXPECT_THROW(ma.process(in, longer), std::invalid_argument);
}

}  // namespace
}  // namespace fdb::dsp
