#include "mac/collision.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace fdb::mac {
namespace {

CollisionSimParams base_params(std::size_t tags) {
  CollisionSimParams params;
  params.num_tags = tags;
  params.sim_slots = 100000;
  params.seed = 7;
  return params;
}

TEST(Collision, SingleTagNeverCollides) {
  for (const auto kind : {MacKind::kTimeout, MacKind::kCollisionNotify}) {
    const auto stats = run_collision_sim(kind, base_params(1));
    EXPECT_EQ(stats.collisions, 0u);
    EXPECT_GT(stats.frames_delivered, 0u);
  }
}

TEST(Collision, NotifyReducesWastedAirtime) {
  const auto timeout =
      run_collision_sim(MacKind::kTimeout, base_params(6));
  const auto notify =
      run_collision_sim(MacKind::kCollisionNotify, base_params(6));
  EXPECT_LT(notify.wasted_airtime_fraction(),
            timeout.wasted_airtime_fraction());
}

TEST(Collision, NotifyImprovesGoodput) {
  const auto timeout =
      run_collision_sim(MacKind::kTimeout, base_params(6));
  const auto notify =
      run_collision_sim(MacKind::kCollisionNotify, base_params(6));
  EXPECT_GT(notify.goodput_slots_fraction(),
            timeout.goodput_slots_fraction());
}

TEST(Collision, WasteGrowsWithContention) {
  const auto few = run_collision_sim(MacKind::kTimeout, base_params(2));
  const auto many = run_collision_sim(MacKind::kTimeout, base_params(10));
  EXPECT_GT(many.wasted_airtime_fraction(), few.wasted_airtime_fraction());
}

TEST(Collision, DeterministicForSeed) {
  const auto a = run_collision_sim(MacKind::kCollisionNotify, base_params(4));
  const auto b = run_collision_sim(MacKind::kCollisionNotify, base_params(4));
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.wasted_slots, b.wasted_slots);
}

TEST(Collision, StatsInternallyConsistent) {
  const auto stats =
      run_collision_sim(MacKind::kCollisionNotify, base_params(4));
  EXPECT_EQ(stats.slots_simulated, 100000u);
  EXPECT_LE(stats.useful_slots, stats.slots_simulated);
  EXPECT_LE(stats.wasted_airtime_fraction(), 1.0);
  EXPECT_GE(stats.mean_delivery_latency(),
            static_cast<double>(base_params(4).frame_blocks));
}

TEST(BebWindow, ClampsAndSaturates) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // min_slots == 0 used to produce an empty window (-> uniform_int(0),
  // a release-mode division by zero); it must clamp to 1.
  EXPECT_EQ(beb_window(0, 0, 6), 1u);
  EXPECT_EQ(beb_window(0, 3, 6), 1u);
  EXPECT_EQ(beb_window(4, 0, 6), 4u);
  EXPECT_EQ(beb_window(4, 2, 6), 16u);
  EXPECT_EQ(beb_window(4, 10, 6), 4u << 6);  // exponent capped
  // Shifts at or past the word width used to be UB; they saturate now.
  EXPECT_EQ(beb_window(1, 64, 200), kMax);
  EXPECT_EQ(beb_window(1, 200, 200), kMax);
  EXPECT_EQ(beb_window(kMax, 1, 6), kMax);
  EXPECT_EQ(beb_window(2, 63, 63), kMax);
}

TEST(NotifyLatency, RoundsTheDistanceTermAndSaturates) {
  EXPECT_EQ(notify_latency_slots(2, 3.0, 0.5), 4u);  // 1.5 rounds up
  EXPECT_EQ(notify_latency_slots(2, 3.0, 0.0), 2u);
  // An out-of-range product saturates instead of overflowing llround.
  const std::size_t cap = std::size_t{1} << 62;
  EXPECT_EQ(notify_latency_slots(2, 10.0, 1e300), 2 + cap);
  EXPECT_EQ(notify_latency_slots(
                2, 10.0, std::numeric_limits<double>::infinity()),
            2 + cap);
}

TEST(Collision, ZeroBackoffMinSlotsRuns) {
  // Regression: window clamped to >= 1 instead of drawing from an empty
  // range.
  auto params = base_params(4);
  params.backoff_min_slots = 0;
  params.sim_slots = 20000;
  for (const auto kind : {MacKind::kTimeout, MacKind::kCollisionNotify}) {
    const auto stats = run_collision_sim(kind, params);
    EXPECT_EQ(stats.slots_simulated, params.sim_slots);
    EXPECT_LE(stats.useful_slots + stats.wasted_slots, stats.slots_simulated);
  }
}

TEST(Collision, HugeBackoffExponentSaturates) {
  // Regression: exponents past the word width saturate instead of
  // shifting out of range.
  auto params = base_params(8);
  params.backoff_max_exponent = 500;
  params.sim_slots = 20000;
  const auto stats = run_collision_sim(MacKind::kCollisionNotify, params);
  EXPECT_EQ(stats.slots_simulated, params.sim_slots);
  EXPECT_GT(stats.collisions, 0u);
}

TEST(Collision, ZeroTimeoutSlotsRuns) {
  // Regression: timeout_slots == 0 entered kWaitingAck with a zero
  // counter and the pre-decrement wrapped to SIZE_MAX, parking every tag
  // forever after its first frame.
  auto params = base_params(2);
  params.timeout_slots = 0;
  params.sim_slots = 20000;
  const auto stats = run_collision_sim(MacKind::kTimeout, params);
  EXPECT_GT(stats.frames_delivered, 10u);
}

TEST(Collision, UsefulPlusWastedBounded) {
  for (const std::size_t tags : {1u, 3u, 8u}) {
    for (const auto kind : {MacKind::kTimeout, MacKind::kCollisionNotify}) {
      auto params = base_params(tags);
      params.sim_slots = 30000;
      const auto stats = run_collision_sim(kind, params);
      EXPECT_LE(stats.useful_slots + stats.wasted_slots,
                stats.slots_simulated)
          << "tags=" << tags;
      EXPECT_LE(stats.busy_slots, stats.slots_simulated);
    }
  }
}

TEST(Collision, DeterministicAcrossSeedsAndMacKinds) {
  for (const auto kind : {MacKind::kTimeout, MacKind::kCollisionNotify}) {
    for (const std::uint64_t seed : {1ull, 77ull}) {
      auto params = base_params(5);
      params.seed = seed;
      params.sim_slots = 30000;
      const auto a = run_collision_sim(kind, params);
      const auto b = run_collision_sim(kind, params);
      EXPECT_EQ(a.frames_delivered, b.frames_delivered);
      EXPECT_EQ(a.collisions, b.collisions);
      EXPECT_EQ(a.busy_slots, b.busy_slots);
      EXPECT_EQ(a.useful_slots, b.useful_slots);
      EXPECT_EQ(a.wasted_slots, b.wasted_slots);
      EXPECT_EQ(a.total_delivery_latency_slots,
                b.total_delivery_latency_slots);
    }
  }
}

TEST(Collision, FasterNotificationHelps) {
  auto slow = base_params(6);
  slow.notify_delay_slots = 16;
  auto fast = base_params(6);
  fast.notify_delay_slots = 1;
  const auto slow_stats = run_collision_sim(MacKind::kCollisionNotify, slow);
  const auto fast_stats = run_collision_sim(MacKind::kCollisionNotify, fast);
  EXPECT_LE(fast_stats.wasted_airtime_fraction(),
            slow_stats.wasted_airtime_fraction() + 0.01);
}

}  // namespace
}  // namespace fdb::mac
