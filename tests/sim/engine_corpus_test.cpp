// Golden corpus of the network slot engine. run_trial's summaries, at
// --jobs 1 and 8, must digest (summary_digest: every NetworkSimSummary
// field, bit for bit) to the values in engine_corpus.inc. Every entry
// there was frozen from the retired per-slot reference engine — the
// historical scan over every tag every slot — never from run_trial:
// 256 generated configs (seed -> digest, 2 trials each) and the
// hand-built edge cases of corpus.hpp (name -> digest). Changing an
// entry needs a CHANGES.md justification, as the hexfloat goldens do.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <string>

#include "corpus.hpp"

// Captured on the portable build; -march=native FMA contraction shifts
// the per-tag energy accumulators by an ULP (see synthesis_test.cpp).
#if defined(FDB_NATIVE_BUILD)
#define FDB_SKIP_GOLDEN_ON_NATIVE() \
  GTEST_SKIP() << "engine corpus digests are portable-build only"
#else
#define FDB_SKIP_GOLDEN_ON_NATIVE() (void)0
#endif

namespace fdb::sim {
namespace {

/// A frozen summary: its digest plus headline counters, so a mismatch
/// names what moved.
struct Frozen {
  std::uint64_t digest, attempted, delivered, collisions, wasted_slots;
};
struct GeneratedEntry {
  std::uint64_t seed;
  Frozen frozen;
};
struct HandBuiltEntry {
  const char* name;
  std::size_t trials;
  Frozen frozen;
};

#include "engine_corpus.inc"

void expect_frozen(const NetworkSimConfig& config, std::size_t trials,
                   const Frozen& f) {
  const NetworkSimulator sim(config);
  for (const std::size_t jobs : {1, 8}) {
    const NetworkSimSummary s = run_trials(sim, trials, jobs);
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    EXPECT_EQ(s.frames_attempted(), f.attempted);
    EXPECT_EQ(s.frames_delivered(), f.delivered);
    EXPECT_EQ(s.collisions, f.collisions);
    EXPECT_EQ(s.wasted_slots, f.wasted_slots);
    EXPECT_EQ(summary_digest(s), f.digest);
  }
}

/// Runs hand-built config `name` against its frozen entry.
void expect_hand_built(const std::string& name) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  const auto hand = hand_built_configs();
  for (std::size_t i = 0; i < hand.size(); ++i) {
    if (hand[i].name != name) continue;
    ASSERT_EQ(kHandBuiltCorpus[i].name, name);
    ASSERT_EQ(kHandBuiltCorpus[i].trials, hand[i].trials);
    expect_frozen(hand[i].config, hand[i].trials, kHandBuiltCorpus[i].frozen);
    return;
  }
  FAIL() << "no hand-built config " << name;
}

#define FDB_HAND_BUILT_ENTRY(name) \
  TEST(EngineCorpusHandBuilt, name) { expect_hand_built(#name); }
FDB_HAND_BUILT_ENTRY(EnergyStarvedGated)
FDB_HAND_BUILT_ENTRY(FadingSweepWithFaults)
FDB_HAND_BUILT_ENTRY(WarehouseMeshRelayScheduled)
FDB_HAND_BUILT_ENTRY(DenseNotifyAbort)
FDB_HAND_BUILT_ENTRY(TimeoutMac)
FDB_HAND_BUILT_ENTRY(AnalyticFleet)
FDB_HAND_BUILT_ENTRY(HybridFleet)
FDB_HAND_BUILT_ENTRY(BestGatewayFailover)
FDB_HAND_BUILT_ENTRY(WakeStormTimeout)
FDB_HAND_BUILT_ENTRY(WakeStormNotify)
FDB_HAND_BUILT_ENTRY(NotifyAbortReschedule)
FDB_HAND_BUILT_ENTRY(EndOfTrialParking)

/// Generated entries run in shards so ctest spreads them over cores.
constexpr std::size_t kShards = 8;

class EngineCorpusGenerated : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineCorpusGenerated, MatchesFrozenDigests) {
  FDB_SKIP_GOLDEN_ON_NATIVE();
  for (std::size_t i = GetParam(); i < std::size(kGeneratedCorpus);
       i += kShards) {
    const GeneratedEntry& e = kGeneratedCorpus[i];
    const GeneratedConfig g = generate_config(e.seed);
    SCOPED_TRACE("seed " + std::to_string(e.seed) + " (" + g.scenario + ")");
    expect_frozen(g.config, 2, e.frozen);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, EngineCorpusGenerated,
                         ::testing::Range<std::size_t>(0, kShards));

TEST(EngineCorpus, CoversEveryAxisAndHandBuiltConfig) {
  EXPECT_GE(std::size(kGeneratedCorpus), 256u);
  std::set<std::string> scenarios;
  std::set<mac::MacKind> macs;
  std::set<FidelityMode> modes;
  std::map<std::string, std::set<bool>> axes;  // axis -> values seen
  std::set<std::uint64_t> seeds;
  for (const GeneratedEntry& e : kGeneratedCorpus) {
    EXPECT_TRUE(seeds.insert(e.seed).second) << "duplicate seed " << e.seed;
    const GeneratedConfig g = generate_config(e.seed);
    const NetworkSimConfig& c = g.config;
    scenarios.insert(g.scenario);
    macs.insert(c.mac_kind);
    modes.insert(c.fleet.fidelity);
    axes["faults"].insert(c.faults.enabled());
    axes["energy_gating"].insert(c.energy_gating);
    axes["record_frames"].insert(c.fleet.record_frames);
    axes["kBestGateway with failover"].insert(
        c.combining == GatewayCombining::kBestGateway &&
        c.failover_streak_frames > 0);
    axes["notify_slots_per_m > 0"].insert(c.notify_slots_per_m > 0.0);
    axes["backoff_min_slots == 0"].insert(c.backoff_min_slots == 0);
    axes["backoff_min_slots == 1"].insert(c.backoff_min_slots == 1);
    EXPECT_GE(c.slots_per_trial, 24u);
    EXPECT_LE(c.slots_per_trial, 144u);
    EXPECT_GE(c.tags.size(), 2u);
    EXPECT_LE(c.tags.size(), 32u);
  }
  for (const auto* names : {&scenario_names(), &mesh_scenario_names()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(scenarios.count(name)) << name;
    }
  }
  EXPECT_EQ(macs.size(), 3u);
  EXPECT_EQ(modes.size(), 3u);
  for (const auto& [axis, seen] : axes) {
    EXPECT_EQ(seen.size(), 2u) << axis << " takes only one value";
  }
  // One frozen entry (and one EngineCorpusHandBuilt test) per config.
  const auto hand = hand_built_configs();
  ASSERT_EQ(hand.size(), std::size(kHandBuiltCorpus));
  for (std::size_t i = 0; i < hand.size(); ++i) {
    EXPECT_EQ(hand[i].name, kHandBuiltCorpus[i].name);
  }
}

}  // namespace
}  // namespace fdb::sim
