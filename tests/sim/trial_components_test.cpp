// Contracts of the trial engine's stand-alone components
// (sim/trial_components.hpp): the wake schedule fires in ascending tag
// order and drops waits past the trial horizon, and the channel-table
// builder's per-trial output under static fading equals the
// construction-time cache bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <vector>

#include "sim/network_sim.hpp"
#include "sim/scenarios.hpp"
#include "sim/trial_components.hpp"

namespace fdb::sim {
namespace {

std::vector<std::vector<std::size_t>> fire_all(WakeBuckets& wake,
                                               WakeBuckets::Kind kind,
                                               std::size_t slots) {
  std::vector<std::vector<std::size_t>> fired(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    wake.fire(kind, s, [&](std::size_t k) { fired[s].push_back(k); });
  }
  return fired;
}

TEST(WakeBuckets, FiresAscendingWhateverTheInsertionOrder) {
  SynthArena arena;
  WakeBuckets wake(arena, 16, 10);
  // A 3-slot wait first examined at slot 3 fires at slot 5; waits of 0
  // and 1 slots both fire at the first examined slot.
  for (const std::size_t k : {7, 2, 9, 0, 4, 8, 1}) {
    wake.arm(WakeBuckets::kBackoff, k, 3, 3);
  }
  wake.arm(WakeBuckets::kBackoff, 6, 2, 0);
  wake.arm(WakeBuckets::kBackoff, 3, 2, 1);
  wake.arm(WakeBuckets::kVerdict, 5, 4, 2);
  const auto backoff = fire_all(wake, WakeBuckets::kBackoff, 16);
  for (std::size_t s = 0; s < 16; ++s) {
    if (s == 2) {
      EXPECT_EQ(backoff[s], (std::vector<std::size_t>{3, 6}));
    } else if (s == 5) {
      EXPECT_EQ(backoff[s], (std::vector<std::size_t>{0, 1, 2, 4, 7, 8, 9}));
    } else {
      EXPECT_TRUE(backoff[s].empty()) << "slot " << s;
    }
  }
  const auto verdict = fire_all(wake, WakeBuckets::kVerdict, 16);
  EXPECT_EQ(verdict[5], (std::vector<std::size_t>{5}));
}

TEST(WakeBuckets, DropsWaitsPastTheTrialHorizon) {
  SynthArena arena;
  WakeBuckets wake(arena, 8, 3);
  wake.arm(WakeBuckets::kBackoff, 0, 7, 1);  // last slot: fires
  wake.arm(WakeBuckets::kBackoff, 1, 6, 3);  // slot 8: past the trial
  wake.arm(WakeBuckets::kVerdict, 2, 1, 8);  // parked: slot 8
  const auto backoff = fire_all(wake, WakeBuckets::kBackoff, 8);
  const auto verdict = fire_all(wake, WakeBuckets::kVerdict, 8);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(backoff[s], s == 7 ? std::vector<std::size_t>{0}
                                 : std::vector<std::size_t>{})
        << "slot " << s;
    EXPECT_TRUE(verdict[s].empty()) << "slot " << s;
  }
}

/// The trial-invariant channel inputs of a simulator, assembled from its
/// public accessors.
struct Deployment {
  explicit Deployment(const NetworkSimConfig& config)
      : sim(config), harvester(config.harvester) {
    for (std::size_t g = 0; g < sim.num_gateways(); ++g) {
      gateways.push_back(sim.gateway_device(g));
    }
    for (std::size_t k = 0; k < sim.num_tags(); ++k) {
      tags.push_back(sim.tag_device(k));
      modulators.emplace_back(
          channel::ReflectionStates::ook(config.tags[k].reflection_rho));
      for (std::size_t g = 0; g < sim.num_gateways(); ++g) {
        in_range.push_back(sim.tag_in_range(k, g) ? 1 : 0);
      }
    }
  }

  ChannelInputs inputs() const {
    return {.scene = sim.scene(),
            .ambient = sim.ambient_device(),
            .gateways = gateways,
            .tags = tags,
            .modulators = modulators,
            .in_range = in_range,
            .relay = &sim.relay_topology(),
            .tx_power_w = sim.config().tx_power_w,
            .harvester = harvester,
            .slot_s = sim.slot_seconds()};
  }

  NetworkSimulator sim;
  energy::Harvester harvester;
  std::vector<std::size_t> gateways;
  std::vector<std::size_t> tags;
  std::vector<channel::BackscatterModulator> modulators;
  std::vector<std::uint8_t> in_range;
};

template <class T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Builds trial `trial`'s tables the way a trial does: the scenario's
/// fading process drawing from the trial Rng over coherence block
/// `trial`.
ChannelTables trial_tables(const Deployment& d, std::uint64_t trial,
                           SynthArena& arena) {
  Rng rng = Rng::substream(d.sim.config().seed, trial);
  auto fading = channel::make_fading(d.sim.config().fading, rng);
  return build_channel_tables(d.inputs(), {fading.get(), &rng, trial}, arena);
}

TEST(ChannelTables, StaticTrialBuildEqualsConstructionCacheBitForBit) {
  // Relay links included: the corridor reaches its far tags in hops.
  const auto scenario = make_scenario("corridor-multihop", 24, 5);
  ASSERT_EQ(scenario.config.fading, "static");
  ASSERT_EQ(scenario.config.pathloss.shadowing_sigma_db, 0.0);
  const Deployment d(scenario.config);
  ASSERT_GT(d.sim.relay_topology().num_links(), 0u);

  SynthArena cache_arena;
  const ChannelTables cache = build_channel_tables(d.inputs(), {}, cache_arena);
  for (const std::uint64_t trial : {0u, 3u, 17u}) {
    SynthArena arena;
    const ChannelTables t = trial_tables(d, trial, arena);
    EXPECT_TRUE(same_bits(cache.h_sr, t.h_sr)) << trial;
    EXPECT_TRUE(same_bits(cache.h_st, t.h_st)) << trial;
    EXPECT_TRUE(same_bits(cache.h_tr, t.h_tr)) << trial;
    EXPECT_TRUE(same_bits(cache.coup_on, t.coup_on)) << trial;
    EXPECT_TRUE(same_bits(cache.coup_off, t.coup_off)) << trial;
    EXPECT_TRUE(same_bits(cache.delta, t.delta)) << trial;
    EXPECT_TRUE(same_bits(cache.half, t.half)) << trial;
    EXPECT_TRUE(same_bits(cache.delta_tt, t.delta_tt)) << trial;
    EXPECT_TRUE(same_bits(cache.serving, t.serving)) << trial;
    EXPECT_TRUE(same_bits(cache.h_idle, t.h_idle)) << trial;
    EXPECT_TRUE(same_bits(cache.h_act, t.h_act)) << trial;
  }

  // Control: with shadowing on, the coherence block matters, so the
  // comparison above can fail.
  auto shadowed = scenario.config;
  shadowed.pathloss.shadowing_sigma_db = 4.0;
  const Deployment ds(shadowed);
  SynthArena a, b;
  EXPECT_FALSE(same_bits(trial_tables(ds, 0, a).h_tr,
                         trial_tables(ds, 3, b).h_tr));
}

}  // namespace
}  // namespace fdb::sim
