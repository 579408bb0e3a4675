// Multi-tag contention (experiment E6). Backscatter tags cannot carrier
// -sense each other's reflections reliably, so collisions are common;
// the question is how fast they are *detected*.
//
//  * TimeoutMac         — conventional: a collision is discovered only
//    when the expected ACK never arrives, wasting the entire frame plus
//    the timeout.
//  * CollisionNotifyMac — full-duplex: the receiver sees the corrupted
//    preamble/early blocks and immediately asserts a "collision" code on
//    the feedback stream; the colliding transmitters abort within
//    `notify_delay_slots` block-times and back off.
//
// The simulation is slotted in block-times, saturated traffic (every
// tag always has a frame), binary-exponential backoff.
//
// This file is the abstract (slot-level) contention model; the
// network-scale engine in sim/network_sim.hpp reuses the same slotted
// MAC timing but grounds delivery verdicts in synthesized sample
// streams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace fdb::mac {

struct CollisionSimParams {
  std::size_t num_tags = 4;
  std::size_t frame_blocks = 32;        // frame length in block slots
  std::size_t timeout_slots = 8;        // ACK wait for TimeoutMac
  std::size_t notify_delay_slots = 2;   // FD collision detection latency
  std::size_t backoff_min_slots = 4;    // initial backoff window
  std::size_t backoff_max_exponent = 6; // BEB cap
  std::size_t sim_slots = 200'000;      // simulated time
  std::uint64_t seed = 1;
};

struct CollisionStats {
  std::uint64_t slots_simulated = 0;
  std::uint64_t busy_slots = 0;     // channel slots with >=1 transmitter
  std::uint64_t useful_slots = 0;   // slots inside cleanly delivered frames
  /// Channel-centric waste: busy slots that never became part of a
  /// delivered frame, plus dead-air slots where every tag sat in an ACK
  /// timeout. Always <= slots_simulated.
  std::uint64_t wasted_slots = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t collisions = 0;
  double total_delivery_latency_slots = 0;  // arrival->delivery, delivered

  double wasted_airtime_fraction() const {
    return slots_simulated
               ? static_cast<double>(wasted_slots) /
                     static_cast<double>(slots_simulated)
               : 0.0;
  }
  double goodput_slots_fraction() const {
    return slots_simulated
               ? static_cast<double>(useful_slots) /
                     static_cast<double>(slots_simulated)
               : 0.0;
  }
  double mean_delivery_latency() const {
    return frames_delivered ? total_delivery_latency_slots /
                                  static_cast<double>(frames_delivered)
                            : 0.0;
  }
};

/// MAC families understood across the stack. The abstract contention
/// model below simulates the first two; kScheduled (TSCH-style
/// slotframes, mac/schedule.hpp) exists only as a network-engine policy
/// and is rejected by run_collision_sim.
enum class MacKind { kTimeout, kCollisionNotify, kScheduled };

/// Binary-exponential-backoff window size: `min_slots << min(exponent,
/// max_exponent)`, saturating instead of shifting past the word width and
/// clamped to >= 1 so the result is always a valid `Rng::uniform_int`
/// bound (min_slots == 0 would otherwise produce an empty window).
std::size_t beb_window(std::size_t min_slots, std::size_t exponent,
                       std::size_t max_exponent);

/// Draws a backoff duration uniformly from [1, beb_window(...)] slots.
/// Shared by this abstract contention model and the network-scale
/// engine so the two MAC layers stay distribution-identical.
std::size_t draw_backoff(Rng& rng, std::size_t min_slots,
                         std::size_t exponent, std::size_t max_exponent);

/// Collision-notification latency of one receiver: the base detection
/// delay plus a distance-scaled propagation/processing term, in block
/// slots. With several receive gateways a tag aborts on the earliest
/// notification, so the effective latency is the minimum of this over
/// the gateways — i.e. the closest one's. `slots_per_m == 0` keeps the
/// legacy distance-independent latency; the distance term saturates at
/// 2^62 slots.
std::size_t notify_latency_slots(std::size_t base_delay_slots,
                                 double distance_m, double slots_per_m);

/// Dead-gateway failover holdoff: once a tag abandons a serving gateway
/// it blacklists it for `base_slots << min(switch_count, max_exponent)`
/// slots plus a jittered retry offset drawn uniformly from [0,
/// base_slots * (switch_count + 1)) — capped exponential growth so a
/// flapping gateway is retried ever more lazily, jitter so a fleet of
/// tags orphaned by the same outage does not retry in lockstep. Shared
/// by the network engine's failover state machine and its tests.
std::size_t failover_holdoff_slots(Rng& rng, std::size_t base_slots,
                                   std::size_t switch_count,
                                   std::size_t max_exponent);

/// Runs the slotted contention simulation for the selected MAC.
CollisionStats run_collision_sim(MacKind kind,
                                 const CollisionSimParams& params);

}  // namespace fdb::mac
