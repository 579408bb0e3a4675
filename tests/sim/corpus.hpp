// Support for the engine corpus (engine_corpus_test.cpp) and the config
// fuzz: a seeded generator of small valid NetworkSimConfigs, a digest
// of every NetworkSimSummary field, and the hand-built configs the
// corpus keeps as named entries. A corpus entry stores only a seed, so
// what generate_config(seed) returns must never change.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/network_sim.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"
#include "util/rng.hpp"

namespace fdb::sim {

/// A generated config and the scenario it was built from.
struct GeneratedConfig {
  std::string scenario;
  NetworkSimConfig config;
};

/// Small valid config of seed `seed`: scenarios cycle with the seed;
/// tag count, horizon, payload, MAC, fidelity, faults, energy gating,
/// frame recording, best-gateway failover, notification latency and
/// backoff window are drawn from it. Mesh scenarios keep their
/// scheduled MAC (relaying requires it).
inline GeneratedConfig generate_config(std::uint64_t seed) {
  Rng rng(seed);
  const auto& contention = scenario_names();
  const auto& mesh = mesh_scenario_names();
  const std::size_t pick = seed % (contention.size() + mesh.size());
  const bool is_mesh = pick >= contention.size();
  GeneratedConfig g;
  g.scenario = is_mesh ? mesh[pick - contention.size()] : contention[pick];
  const std::size_t n_tags = 2 + rng.uniform_int(31);
  NetworkSimConfig& c = g.config =
      make_scenario(g.scenario, n_tags, rng()).config;
  c.fleet.fidelity = static_cast<FidelityMode>(rng.uniform_int(3));
  // kWaveform synthesizes every gateway-slot: keep its horizons shorter.
  const bool waveform = c.fleet.fidelity == FidelityMode::kWaveform;
  c.slots_per_trial = 24 + rng.uniform_int(waveform ? 73 : 121);
  c.payload_bytes = 8 * (1 + rng.uniform_int(4));
  if (!is_mesh) c.mac_kind = static_cast<mac::MacKind>(rng.uniform_int(3));
  c.fleet.record_frames = rng.chance(0.25);
  c.energy_gating = rng.chance(0.35);
  if (rng.chance(0.4)) c.faults.intensity = rng.uniform(0.1, 0.6);
  if (rng.chance(0.3)) c.combining = GatewayCombining::kBestGateway;
  if (c.combining == GatewayCombining::kBestGateway && rng.chance(0.7)) {
    c.failover_streak_frames = 1 + rng.uniform_int(3);
    c.failover_holdoff_slots = 4 + rng.uniform_int(29);
    c.failover_max_exponent = rng.uniform_int(4);
  }
  c.notify_delay_slots = rng.uniform_int(4);
  c.notify_slots_per_m = rng.chance(0.5) ? rng.uniform(0.05, 1.0) : 0.0;
  c.timeout_slots = rng.uniform_int(9);
  static constexpr std::size_t kBackoffMin[] = {0, 1, 2, 4, 8, 16};
  c.backoff_min_slots = kBackoffMin[rng.uniform_int(6)];
  c.backoff_max_exponent = rng.uniform_int(7);
  c.sched_dedicated_cells = rng.uniform_int(n_tags + 1);
  c.sched_shared_cells = rng.uniform_int(3);
  return g;
}

/// FNV-1a over the bit patterns of every NetworkSimSummary field, the
/// per-tag doubles and every RunningStats moment included.
inline std::uint64_t summary_digest(const NetworkSimSummary& s) {
  // A new summary field changes the size: add it to the digest below.
  static_assert(sizeof(NetworkSimSummary) ==
                2 * sizeof(std::vector<int>) + 22 * sizeof(std::uint64_t) +
                    4 * sizeof(RunningStats));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      h = (h ^ (v & 0xff)) * 0x100000001b3ULL;
    }
  };
  const auto add_f = [&add](double v) { add(std::bit_cast<std::uint64_t>(v)); };
  const auto add_stats = [&](const RunningStats& r) {
    add(r.count());
    for (const double v : {r.mean(), r.variance(), r.min(), r.max()}) add_f(v);
  };
  add(s.tags.size());
  for (const NetworkTagStats& t : s.tags) {
    for (const std::uint64_t v :
         {t.frames_attempted, t.frames_delivered, t.frames_collided,
          t.frames_aborted, t.payload_bits_delivered, t.energy_outages}) {
      add(v);
    }
    add_f(t.harvested_j);
    add_f(t.spent_j);
  }
  add(s.gateway_decodes.size());
  for (const std::uint64_t v : s.gateway_decodes) add(v);
  for (const std::uint64_t v :
       {s.trials, s.slots, s.busy_slots, s.useful_slots, s.wasted_slots,
        s.collisions, s.sync_failures, s.frames_resolved_analytic,
        s.frames_escalated, s.frames_culled, s.gateway_slots_synthesized,
        s.faulted_frames_attempted, s.faulted_frames_delivered,
        s.frames_lost_outage, s.frames_lost_sag, s.frames_lost_interference,
        s.frames_lost_tag_fault, s.failovers, s.relay_tx_frames,
        s.relay_rx_frames, s.relayed_delivered, s.relay_drops}) {
    add(v);
  }
  for (const RunningStats* r :
       {&s.detect_latency_slots, &s.escalation_rate_trials,
        &s.time_to_failover_slots, &s.relay_hops}) {
    add_stats(*r);
  }
  return h;
}

/// Trials [0, trials) of `sim` through the parallel runner at `jobs`.
inline NetworkSimSummary run_trials(const NetworkSimulator& sim,
                                    std::size_t trials, std::size_t jobs) {
  return ExperimentRunner(jobs).run_chunked<NetworkSimSummary>(
      trials, [&sim](NetworkSimSummary& acc, std::size_t trial) {
        acc.add(sim.run_trial(trial));
      });
}

/// A hand-built corpus config: an engine edge case no scenario reaches
/// on its own.
struct HandBuiltConfig {
  std::string name;
  std::size_t trials;
  NetworkSimConfig config;
};

/// `n` tags at (x0 + dx * (k % wrap), y0 + dy * k) around the default
/// 5 m receiver.
inline NetworkSimConfig tag_column(std::size_t n, double x0, double dx,
                                   std::size_t wrap, double y0, double dy,
                                   std::size_t payload_bytes,
                                   std::size_t slots, std::uint64_t seed) {
  NetworkSimConfig config;
  config.payload_bytes = payload_bytes;
  config.slots_per_trial = slots;
  config.ambient_position = {0.0, 0.0};
  config.receiver_position = {5.0, 0.0};
  for (std::size_t k = 0; k < n; ++k) {
    config.tags.push_back(
        {.position = {x0 + dx * static_cast<double>(k % wrap),
                      y0 + dy * static_cast<double>(k)}});
  }
  config.seed = seed;
  return config;
}

inline std::vector<HandBuiltConfig> hand_built_configs() {
  std::vector<HandBuiltConfig> out;
  const auto scenario = [](const char* name, std::size_t tags,
                           std::uint64_t seed, std::size_t slots) {
    NetworkSimConfig c = make_scenario(name, tags, seed).config;
    c.slots_per_trial = slots;
    return c;
  };
  out.push_back({"EnergyStarvedGated", 3,
                 scenario("energy-starved", 12, 17, 128)});
  auto fading = scenario("fading-sweep", 10, 23, 128);
  fading.faults.intensity = 0.2;
  out.push_back({"FadingSweepWithFaults", 3, fading});
  out.push_back({"WarehouseMeshRelayScheduled", 3,
                 scenario("warehouse-mesh", 24, 31, 160)});
  // Distance-dependent notification latency exercises the mid-frame
  // abort -> backoff reschedule transition.
  auto dense = scenario("dense-deployment", 16, 7, 128);
  dense.mac_kind = mac::MacKind::kCollisionNotify;
  dense.notify_slots_per_m = 0.5;
  out.push_back({"DenseNotifyAbort", 3, dense});
  auto near_far = scenario("near-far", 8, 11, 128);
  near_far.mac_kind = mac::MacKind::kTimeout;
  out.push_back({"TimeoutMac", 3, near_far});
  for (const FidelityMode mode :
       {FidelityMode::kAnalytic, FidelityMode::kHybrid}) {
    auto fleet = scenario("warehouse-10k", 300, 29, 48);
    fleet.fleet.fidelity = mode;
    out.push_back({mode == FidelityMode::kAnalytic ? "AnalyticFleet"
                                                   : "HybridFleet",
                   2, fleet});
  }
  auto handoff = scenario("gateway-handoff-line", 10, 13, 160);
  handoff.combining = GatewayCombining::kBestGateway;
  handoff.failover_streak_frames = 2;
  handoff.faults.intensity = 0.3;  // make links actually die
  out.push_back({"BestGatewayFailover", 3, handoff});
  // Tight contention window: backoff_min_slots = 1 with a zero-exponent
  // cap makes initial waits of 0 fire in slot 0 and whole cohorts wake
  // in the same bucket.
  auto storm = tag_column(12, 5.0, 0.4, 4, 0.5, 0.3, 32, 96, 41);
  storm.backoff_min_slots = 1;
  storm.backoff_max_exponent = 0;
  for (const auto kind :
       {mac::MacKind::kTimeout, mac::MacKind::kCollisionNotify}) {
    storm.mac_kind = kind;
    out.push_back({kind == mac::MacKind::kTimeout ? "WakeStormTimeout"
                                                  : "WakeStormNotify",
                   4, storm});
  }
  // Immediate notifications abort right after frame start: the stale
  // verdict wake is cancelled and the backoff wake rescheduled.
  auto abort = tag_column(8, 5.5, 0.0, 1, 0.5, 0.25, 32, 96, 43);
  abort.mac_kind = mac::MacKind::kCollisionNotify;
  abort.notify_delay_slots = 1;
  abort.backoff_min_slots = 2;
  out.push_back({"NotifyAbortReschedule", 4, abort});
  // Long frames against a short horizon: waits that cannot complete
  // park the tag, and the end-of-trial energy fast-forward still
  // accounts every idle slot.
  auto parking = tag_column(6, 6.0, 0.0, 1, 0.5, 0.5, 64, 24, 47);
  parking.backoff_min_slots = 8;
  parking.backoff_max_exponent = 3;
  out.push_back({"EndOfTrialParking", 4, parking});
  return out;
}

}  // namespace fdb::sim
