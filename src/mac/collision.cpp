#include "mac/collision.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace fdb::mac {
namespace {

struct Tag {
  enum class State { kBackoff, kTransmitting, kWaitingAck };
  State state = State::kBackoff;
  std::size_t counter = 0;       // slots remaining in current state
  std::size_t progress = 0;      // blocks transmitted of current frame
  std::size_t backoff_exponent = 0;
  std::uint64_t frame_start_slot = 0;
  bool collided = false;
};

}  // namespace

std::size_t beb_window(std::size_t min_slots, std::size_t exponent,
                       std::size_t max_exponent) {
  if (min_slots == 0) return 1;
  const std::size_t shift = std::min(exponent, max_exponent);
  constexpr std::size_t kBits = std::numeric_limits<std::size_t>::digits;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  if (shift >= kBits || min_slots > (kMax >> shift)) return kMax;
  return min_slots << shift;
}

std::size_t draw_backoff(Rng& rng, std::size_t min_slots,
                         std::size_t exponent, std::size_t max_exponent) {
  const std::size_t window = beb_window(min_slots, exponent, max_exponent);
  return 1 + static_cast<std::size_t>(rng.uniform_int(window));
}

std::size_t notify_latency_slots(std::size_t base_delay_slots,
                                 double distance_m, double slots_per_m) {
  assert(distance_m >= 0.0 && slots_per_m >= 0.0);
  // Saturates far past any trial horizon instead of overflowing the
  // integer conversion (llround of an out-of-range product).
  constexpr double kMaxSlots = 0x1p62;
  const double extra = std::round(distance_m * slots_per_m);
  return base_delay_slots +
         static_cast<std::size_t>(extra < kMaxSlots ? extra : kMaxSlots);
}

std::size_t failover_holdoff_slots(Rng& rng, std::size_t base_slots,
                                   std::size_t switch_count,
                                   std::size_t max_exponent) {
  const std::size_t base = std::max<std::size_t>(base_slots, 1);
  const std::size_t holdoff = beb_window(base, switch_count, max_exponent);
  const std::size_t jitter_window = base * (switch_count + 1);
  return holdoff + static_cast<std::size_t>(rng.uniform_int(jitter_window));
}

CollisionStats run_collision_sim(MacKind kind,
                                 const CollisionSimParams& params) {
  if (kind == MacKind::kScheduled) {
    throw std::invalid_argument(
        "run_collision_sim models contention MACs only; the scheduled "
        "slotframe lives in the network engine (mac/schedule.hpp)");
  }
  assert(params.num_tags >= 1);
  Rng rng(params.seed);
  std::vector<Tag> tags(params.num_tags);
  for (auto& tag : tags) {
    tag.counter = draw_backoff(rng, params.backoff_min_slots, 0,
                               params.backoff_max_exponent);
  }

  CollisionStats stats;
  stats.slots_simulated = params.sim_slots;
  std::uint64_t idle_wait_slots = 0;  // all-quiet slots spent in timeouts

  for (std::uint64_t slot = 0; slot < params.sim_slots; ++slot) {
    std::size_t active = 0;
    bool any_waiting = false;
    for (const auto& tag : tags) {
      if (tag.state == Tag::State::kTransmitting) ++active;
      if (tag.state == Tag::State::kWaitingAck) any_waiting = true;
    }
    if (active > 0) {
      ++stats.busy_slots;
    } else if (any_waiting) {
      // Dead air: the channel idles while ACK timers run down.
      ++idle_wait_slots;
    }
    const bool collision_now = active >= 2;

    for (auto& tag : tags) {
      switch (tag.state) {
        case Tag::State::kBackoff: {
          // `counter == 0` can only happen via an inconsistent external
          // state; checking it first keeps the pre-decrement from
          // wrapping to SIZE_MAX and parking the tag forever.
          if (tag.counter == 0 || --tag.counter == 0) {
            tag.state = Tag::State::kTransmitting;
            tag.progress = 0;
            tag.collided = false;
            tag.frame_start_slot = slot;
          }
          break;
        }
        case Tag::State::kTransmitting: {
          if (collision_now) tag.collided = true;
          ++tag.progress;

          const bool fd = kind == MacKind::kCollisionNotify;
          if (fd && tag.collided &&
              tag.progress >= params.notify_delay_slots) {
            // Receiver's collision notification arrived: abort now.
            ++stats.collisions;
            ++tag.backoff_exponent;
            tag.state = Tag::State::kBackoff;
            tag.counter = draw_backoff(rng, params.backoff_min_slots,
                                       tag.backoff_exponent,
                                       params.backoff_max_exponent);
            break;
          }
          if (tag.progress >= params.frame_blocks) {
            if (kind == MacKind::kTimeout) {
              tag.state = Tag::State::kWaitingAck;
              tag.counter = params.timeout_slots;
            } else {
              // FD: verdicts already known at frame end.
              if (!tag.collided) {
                ++stats.frames_delivered;
                stats.useful_slots += params.frame_blocks;
                stats.total_delivery_latency_slots +=
                    static_cast<double>(slot - tag.frame_start_slot + 1);
                tag.backoff_exponent = 0;
              } else {
                ++stats.collisions;
                ++tag.backoff_exponent;
              }
              tag.state = Tag::State::kBackoff;
              tag.counter = draw_backoff(rng, params.backoff_min_slots,
                                       tag.backoff_exponent,
                                       params.backoff_max_exponent);
            }
          }
          break;
        }
        case Tag::State::kWaitingAck: {
          // timeout_slots == 0 enters this state with a zero counter; the
          // verdict then resolves on the next slot instead of underflowing
          // the pre-decrement.
          if (tag.counter == 0 || --tag.counter == 0) {
            if (!tag.collided) {
              ++stats.frames_delivered;
              stats.useful_slots += params.frame_blocks;
              stats.total_delivery_latency_slots +=
                  static_cast<double>(slot - tag.frame_start_slot + 1);
              tag.backoff_exponent = 0;
            } else {
              ++stats.collisions;
              ++tag.backoff_exponent;
            }
            tag.state = Tag::State::kBackoff;
            tag.counter = draw_backoff(rng, params.backoff_min_slots,
                                       tag.backoff_exponent,
                                       params.backoff_max_exponent);
          }
          break;
        }
      }
    }
  }
  // Channel-centric waste: busy airtime that never produced a delivered
  // frame, plus dead air spent running out ACK timers.
  stats.wasted_slots =
      (stats.busy_slots > stats.useful_slots
           ? stats.busy_slots - stats.useful_slots
           : 0) +
      idle_wait_slots;
  return stats;
}

}  // namespace fdb::mac
