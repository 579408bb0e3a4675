// Output checks of the benchmark: per-trial accounting identities and
// exact digests of merged summaries. A benchmark number only counts if
// the simulation that produced it is still right, so every trial the
// benchmark times also passes through check_trial / check_link_trial,
// and every pass compares its summary digest against the serial pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fleet.hpp"
#include "sim/link_sim.hpp"
#include "sim/network_sim.hpp"

namespace perfbench {

/// Accounting identities one network trial must satisfy. Returns one
/// message per violated identity (empty = the trial is consistent):
///   - slots == slots_per_trial, busy <= slots, useful + wasted <= slots
///   - delivered <= attempted, per tag and in total
///   - the per-tag collided counts sum to the trial's collision total
///   - frames_escalated == 0 outside kHybrid
///   - gateway_slots_synthesized == 0 in kAnalytic, and == slots x
///     gateways in kWaveform (every gateway-slot is synthesized)
std::vector<std::string> check_trial(const fdb::sim::NetworkTrialResult& r,
                                     const fdb::sim::NetworkSimConfig& config);

/// Bit-error counts never exceed the bits they count over.
std::vector<std::string> check_link_trial(const fdb::sim::TrialResult& r);

/// Recorded frames whose clear analytic verdict (clear-deliver or
/// clear-fail) the waveform decode contradicted. Needs
/// FleetConfig::record_frames; 0 when nothing was recorded.
std::uint64_t contradicted_verdicts(const fdb::sim::NetworkTrialResult& r);

/// 64-bit FNV-1a digest over every field of a summary (doubles by their
/// bit patterns, per-tag and per-gateway vectors included). Equal
/// digests mean bit-identical summaries for all practical purposes; any
/// moved counter or ulp changes it.
std::uint64_t digest(const fdb::sim::NetworkSimSummary& s);
std::uint64_t digest(const fdb::sim::LinkSimSummary& s);

}  // namespace perfbench
