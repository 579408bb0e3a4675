// Per-trial components of the network slot engine that carry a contract
// of their own (the rest live beside the slot loop in network_sim.cpp):
//
//  * ChannelTables + build_channel_tables: every per-link quantity a
//    trial reads (gains, reflection couplings, envelope swings, serving
//    gateway, per-slot harvest increments), built by one function for
//    both the per-trial draw and the construction-time static cache;
//  * WakeBuckets: the slot engine's wake schedule, one event list per
//    slot instead of a per-slot countdown over every tag.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "channel/backscatter.hpp"
#include "channel/fading.hpp"
#include "channel/scene.hpp"
#include "energy/harvester.hpp"
#include "sim/relay.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"

namespace fdb::sim {

/// Trial-invariant inputs of a channel-table build.
struct ChannelInputs {
  const channel::Scene& scene;
  std::size_t ambient = 0;                ///< scene device of the illuminator
  std::span<const std::size_t> gateways;  ///< scene devices, gateway order
  std::span<const std::size_t> tags;      ///< scene devices, tag order
  std::span<const channel::BackscatterModulator> modulators;
  std::span<const std::uint8_t> in_range;  ///< [tag * n_gw + gw]
  const RelayTopology* relay = nullptr;    ///< null: no tag-tag links
  double tx_power_w = 1.0;
  const energy::Harvester& harvester;
  double slot_s = 0.0;
};

/// Small-scale gain source of a build. A trial passes its fading
/// process and Rng (one block draw per link, in fixed link order) and
/// its index as the shadowing coherence block; the static-channel cache
/// passes nothing: unit gain over block 0. StaticFading draws no
/// randomness and returns exactly {1, 0}, so with shadowing disabled
/// both sources build bit-identical tables.
struct GainSource {
  channel::FadingProcess* fading = nullptr;
  Rng* rng = nullptr;
  std::uint64_t block = 0;

  cf32 next() {
    if (fading == nullptr) return {1.0f, 0.0f};
    fading->next_block(*rng);
    return fading->gain();
  }
};

/// Per-link tables of one channel realisation (tag-major [tag * n_gw +
/// gw] where two-dimensional), carved from the arena passed to the build.
struct ChannelTables {
  std::span<const cf32> h_sr;      ///< ambient -> gateway leakage
  std::span<const cf32> h_st;      ///< ambient -> tag (incl. tx power)
  std::span<const cf32> h_tr;      ///< tag -> gateway
  std::span<const cf32> coup_on;   ///< composed reflect coupling
  std::span<const cf32> coup_off;  ///< composed absorb coupling
  std::span<const float> delta;    ///< envelope swing per (tag, gw)
  std::span<const float> half;     ///< in-range-masked half swing
  std::span<const float> delta_tt; ///< tag-tag relay swings (link order)
  std::span<const std::size_t> serving;  ///< strongest-link gateway
  std::span<const double> h_idle;  ///< per-slot idle harvest increment
  std::span<const double> h_act;   ///< per-slot reflecting increment
};

/// Builds every table of one channel realisation. Draw order (the
/// determinism contract): gateway leakage links, then per tag the
/// ambient->tag gain followed by its gain to every gateway, then the
/// tag-tag relay links in (child, candidate) order.
ChannelTables build_channel_tables(const ChannelInputs& in, GainSource gains,
                                   SynthArena& arena);

/// Wake schedule of the slot engine. A pending MAC wait is one
/// event in a per-slot intrusive list (backoff and verdict-wait expiries
/// in separate lists; a tag holds one wait at a time, so one `next`
/// array links both). Waits expiring past the trial are never stored.
class WakeBuckets {
 public:
  enum Kind { kBackoff = 0, kVerdict = 1 };

  WakeBuckets(SynthArena& arena, std::size_t slots, std::size_t n_tags)
      : next_(arena.alloc<std::uint32_t>(n_tags)),
        fired_(arena.alloc<std::uint32_t>(n_tags)) {
    for (auto& h : heads_) {
      h = arena.alloc<std::uint32_t>(slots);
      std::fill(h.begin(), h.end(), kNil);
    }
  }

  /// Arms a wait of `c` slots for tag k, first examined at slot `from`
  /// under the countdown convention (`c == 0 || --c == 0`): it fires at
  /// from + max(c, 1) - 1.
  void arm(Kind kind, std::size_t k, std::uint64_t from, std::uint64_t c) {
    const std::uint64_t at = from + std::max<std::uint64_t>(c, 1) - 1;
    if (at >= heads_[kind].size()) return;
    next_[k] = heads_[kind][at];
    heads_[kind][at] = static_cast<std::uint32_t>(k);
  }

  /// Calls f(k) for every `kind` wait firing at `slot`, in ascending k —
  /// the order of the trial's Rng draws.
  template <class F>
  void fire(Kind kind, std::uint64_t slot, F&& f) {
    std::size_t n = 0;
    for (std::uint32_t t = heads_[kind][slot]; t != kNil; t = next_[t]) {
      fired_[n++] = t;
    }
    heads_[kind][slot] = kNil;
    std::sort(fired_.begin(), fired_.begin() + n);
    for (std::size_t i = 0; i < n; ++i) f(std::size_t{fired_[i]});
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  std::span<std::uint32_t> heads_[2];
  std::span<std::uint32_t> next_;
  std::span<std::uint32_t> fired_;
};

}  // namespace fdb::sim
