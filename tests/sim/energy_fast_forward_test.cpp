// Long-horizon golden of the ungated energy fast-forward. The engine
// corpus horizons are at most 160 slots, so an idle span there is
// short; this pins every tag's harvested_j over 4,096-slot trials,
// where idle spans cover thousands of slots and most tags never
// transmit at all. The digests were captured from the full per-slot
// replay (one `harvested_j += h_idle` per idle slot, no early stop).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "sim/network_sim.hpp"
#include "sim/scenarios.hpp"

// Captured on the portable build; -march=native FMA contraction shifts
// the per-tag energy accumulators by an ULP (see synthesis_test.cpp).
#if defined(FDB_NATIVE_BUILD)
#define FDB_SKIP_GOLDEN_ON_NATIVE() \
  GTEST_SKIP() << "hexfloat golden pin is portable-build only"
#else
#define FDB_SKIP_GOLDEN_ON_NATIVE() (void)0
#endif

namespace fdb::sim {
namespace {

/// FNV-1a over the bit pattern of every tag's harvested_j.
std::uint64_t harvest_digest(const NetworkTrialResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const NetworkTagStats& t : r.tags) {
    std::uint64_t v = std::bit_cast<std::uint64_t>(t.harvested_j);
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
    }
  }
  return h;
}

TEST(EnergyFastForwardGolden, LongHorizonAnalyticHarvestBitIdentical) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  auto scenario = make_scenario("warehouse-10k", 1000, 29);
  scenario.config.slots_per_trial = 4096;
  scenario.config.fleet.fidelity = FidelityMode::kAnalytic;
  ASSERT_FALSE(scenario.config.energy_gating);
  // The distant tower leaves every tag under the default -24 dBm
  // rectifier sensitivity, where harvested_j stays +0.0 and pins
  // nothing; at -40 dBm every tag harvests 2-5 uJ per trial, about
  // twelve binades above its per-slot increment.
  scenario.config.harvester.sensitivity_dbm = -40.0;
  const NetworkSimulator sim(scenario.config);
  struct Pin {
    std::uint64_t digest;
    double tag0, tag999;
  };
  constexpr Pin kPins[] = {
      {0x5200849db0a66b85ULL, 0x1.9f2097839a8b5p-19, 0x1.143fde41b42bdp-19},
      {0x8804359d390f7370ULL, 0x1.9f0d1c7e3256cp-19, 0x1.145a4f5f0b515p-19},
  };
  for (std::uint64_t trial = 0; trial < 2; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const NetworkTrialResult r = sim.run_trial(trial);
    ASSERT_EQ(r.tags.size(), 1000u);
    EXPECT_EQ(harvest_digest(r), kPins[trial].digest);
    EXPECT_EQ(r.tags.front().harvested_j, kPins[trial].tag0);
    EXPECT_EQ(r.tags.back().harvested_j, kPins[trial].tag999);
  }
}

}  // namespace
}  // namespace fdb::sim
