#include "sim/sweep.hpp"

#include <gtest/gtest.h>

namespace fdb::sim {
namespace {

TEST(Sweep, LogspaceEndpointsAndMonotone) {
  const auto v = logspace(1e-4, 1e-1, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_NEAR(v.front(), 1e-4, 1e-12);
  EXPECT_NEAR(v.back(), 1e-1, 1e-9);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_GT(v[i], v[i - 1]);
  // Log spacing: constant ratio.
  EXPECT_NEAR(v[1] / v[0], v[2] / v[1], 1e-9);
}

TEST(Sweep, LinspaceEndpointsAndStep) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
  EXPECT_DOUBLE_EQ(v[4], 1.0);
}

TEST(Sweep, DegenerateSpacingEdgeCases) {
  // Regression: n == 0 and n == 1 used to hit the (n - 1) divisor —
  // n == 0 must return empty, n == 1 must return {lo} with no division.
  EXPECT_TRUE(linspace(0.0, 1.0, 0).empty());
  EXPECT_TRUE(logspace(1e-3, 1.0, 0).empty());

  const auto lin1 = linspace(2.5, 9.0, 1);
  ASSERT_EQ(lin1.size(), 1u);
  EXPECT_DOUBLE_EQ(lin1[0], 2.5);

  const auto log1 = logspace(1e-3, 1.0, 1);
  ASSERT_EQ(log1.size(), 1u);
  EXPECT_DOUBLE_EQ(log1[0], 1e-3);
}

}  // namespace
}  // namespace fdb::sim
