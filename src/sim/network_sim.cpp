// The network trial engine: a slot-loop orchestrator (run_trial_impl)
// over named per-trial components, each with its own explicit state.
//
//   ChannelTables     per-link gains, couplings, swings, harvest steps
//                     (sim/trial_components.hpp; cached when static)
//   WakeBuckets       who wakes when: per-slot MAC wait events
//   EnergyFastForward per-tag energy recurrence, idle spans on demand
//   SegmentMaxWindow  worst in-range interference of a frame's window
//   GatewaySlotSynth  one gateway-slot of the sample-level chain
//   EscalationCache   frame log + lazily synthesized noisy slot history
//   Failover          current serving gateway + dead-gateway failover
//   RelayFabric       forwarding queues, ETX counters, re-parenting
//   TrialAccounting   the single site every frame outcome is booked at
//
// tests/sim/engine_corpus_test.cpp pins run_trial's summaries to a
// frozen golden corpus of the retired per-slot reference engine.
#include "sim/network_sim.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "channel/ambient_source.hpp"
#include "channel/fading.hpp"
#include "channel/impairments.hpp"
#include "dsp/envelope.hpp"
#include "sim/link_budget.hpp"
#include "sim/trial_components.hpp"

namespace fdb::sim {

/// Construction-time channel tables of a static channel (static fading,
/// shadowing off): every per-trial table is then trial-invariant, so
/// trials read these instead of rebuilding them. No per-tag harvest
/// fold is cached: EnergyFastForward settles a never-woken tag's
/// whole-trial idle span like any other span.
struct NetworkSimulator::StaticChannel {
  SynthArena arena;
  ChannelTables tables;
};

namespace {

/// Runtime state of one tag inside a trial. The slot-domain machine
/// mirrors mac/collision.cpp, but verdicts come from the PHY decode of
/// the synthesized gateway streams instead of the abstract collided
/// flag, and starts are gated by the energy store.
struct TagRt {
  enum class St { kBackoff, kTx, kWaitVerdict };
  St st = St::kBackoff;
  std::size_t progress = 0;  // on-air slots of the current frame
  mac::TagMacState mac;      // policy state (failure class / BEB exponent)
  bool brownout_now = false;  // energy ran out during this slot

  // Current frame attempt.
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> states;  // per-sample antenna states
  std::uint64_t start_slot = 0;
  bool overlapped = false;
  std::uint64_t overlap_start = 0;
  std::uint32_t frame_id = 0;  // index into the hybrid-mode frame log

  // Relaying: set when the current frame is a forward of another tag's
  // traffic rather than fresh local data.
  bool forwarding = false;
  std::uint32_t fwd_originator = 0;
  std::uint32_t fwd_hops = 0;  // hops the forward has already taken

  energy::Storage storage;
  energy::EnergyLedger ledger;

  TagRt(const energy::StorageParams& sp, const energy::PowerProfile& pp)
      : storage(sp), ledger(pp) {}
};

/// One started frame in the hybrid-mode log. The analytic fast path
/// never modulates antenna states; an escalated window regenerates them
/// on demand from the logged payload (tx_.modulate is deterministic)
/// and memoizes, so repeat escalations touching the same interferer
/// frame pay the modulation once.
struct FrameLog {
  std::uint32_t tag = 0;
  std::uint64_t start_slot = 0;
  std::vector<std::uint8_t> payload;
  std::vector<std::uint8_t> states;  // empty until first escalation
};

/// One frame sitting in a relay's forwarding queue, waiting for the
/// relay's next owned slotframe cell.
struct QueuedFrame {
  std::uint32_t originator = 0;  // tag whose fresh frame this carries
  std::uint32_t hops = 0;        // hops taken to reach this queue
  std::vector<std::uint8_t> payload;
};

/// The decode predicate: sync found, every block verified, and the
/// payload is the one the tag sent.
bool decoded(const core::FdRxResult& r,
             const std::vector<std::uint8_t>& payload) {
  return r.status != Status::kSyncNotFound && r.blocks.blocks_failed == 0 &&
         r.blocks.payload == payload;
}

/// Per-tag energy recurrence: on-air tags step every slot, idle spans
/// fast-forward on demand; next_[k] is the first slot whose recurrence
/// has not been applied yet. Ungated, an idle slot is one
/// `harvested_j += h_idle` and nothing else, so sync() replays those
/// adds and stops at the first one that leaves harvested_j unchanged:
/// the same add then changes nothing for the rest of the span. A tag
/// below the rectifier sensitivity (h_idle == 0) thus costs one add per
/// span. Gated, sync() replays every slot, because storage clamps, leak
/// ticks, ledger adds and draw failures change state on every slot.
class EnergyFastForward {
 public:
  EnergyFastForward(const NetworkSimConfig& cfg, const ChannelTables& ch,
                    double dt, std::vector<TagRt>& rt,
                    std::vector<NetworkTagStats>& stats, SynthArena& arena)
      : cfg_(cfg), ch_(ch), dt_(dt), rt_(rt), stats_(stats),
        next_(arena.alloc_zeroed<std::uint32_t>(rt.size())) {}

  void sync(std::size_t k, std::uint64_t upto) {
    if (cfg_.energy_gating) {
      for (std::uint64_t s = next_[k]; s < upto; ++s) idle(k);
    } else {
      double& x = stats_[k].harvested_j;
      for (std::uint64_t s = next_[k]; s < upto; ++s) {
        const double y = x + ch_.h_idle[k];
        const bool fixed = y == x;  // bit-equal, or a zero of either sign
        x = y;
        if (fixed) break;  // x + h_idle is x again on every later slot
      }
    }
    next_[k] = static_cast<std::uint32_t>(upto);
  }
  void on_slot(std::uint64_t slot, const std::vector<std::size_t>& on_air) {
    for (const std::size_t k : on_air) {
      active(k);
      next_[k] = static_cast<std::uint32_t>(slot + 1);
    }
  }

 private:
  /// One gated idle slot.
  void idle(std::size_t k) const {
    stats_[k].harvested_j += ch_.h_idle[k];
    TagRt& tag = rt_[k];
    tag.storage.charge(ch_.h_idle[k]);
    tag.storage.tick(dt_);
    tag.ledger.spend(energy::TagState::kListening, dt_);
    // A failed draw while merely listening drains the store but is not
    // an outage event — only gated starts and mid-frame brownouts
    // count, per the NetworkTagStats contract.
    tag.storage.draw(cfg_.power.power(energy::TagState::kListening) * dt_);
  }
  void active(std::size_t k) const {
    stats_[k].harvested_j += ch_.h_act[k];
    if (!cfg_.energy_gating) return;
    TagRt& tag = rt_[k];
    tag.storage.charge(ch_.h_act[k]);
    tag.storage.tick(dt_);
    tag.ledger.spend(energy::TagState::kBackscattering, dt_);
    if (!tag.storage.draw(
            cfg_.power.power(energy::TagState::kBackscattering) * dt_)) {
      ++stats_[k].energy_outages;
      tag.brownout_now = true;
    }
  }

  const NetworkSimConfig& cfg_;
  const ChannelTables& ch_;
  double dt_;
  std::vector<TagRt>& rt_;
  std::vector<NetworkTagStats>& stats_;
  std::span<std::uint32_t> next_;
};

/// Interference window: a running per-(tag, gateway) maximum of the
/// per-slot interference sums, folded while the frame is on air. A
/// frame is on air over exactly [start, start + frame) slots, so the
/// maximum is the worst sum of its window (max is exact and
/// order-independent — no rescan of per-slot rows).
class SegmentMaxWindow {
 public:
  SegmentMaxWindow(SynthArena& arena, std::size_t n_tags, std::size_t n_gw)
      : n_gw_(n_gw), max_(arena.alloc<float>(n_tags * n_gw)) {}

  void start(std::size_t k) {
    std::fill_n(max_.begin() + k * n_gw_, n_gw_, 0.0f);
  }
  void record(std::size_t g, float sum,
              const std::vector<std::size_t>& on_air) {
    for (const std::size_t k : on_air) {
      float& m = max_[k * n_gw_ + g];
      if (sum > m) m = sum;
    }
  }
  float worst(std::size_t k, std::size_t g) const {
    return max_[k * n_gw_ + g];
  }

 private:
  std::size_t n_gw_;
  std::span<float> max_;
};

/// One gateway-slot of the sample-level chain, shared by the kWaveform
/// slot path and kHybrid escalation: the caller gathers the slot's
/// entities (antenna-state mask view + tag) into masks/tags; run() picks
/// up their coupling pair at gateway g, runs the fused cross-entity
/// kernel (sum the selected couplings, multiply the carrier in once),
/// then the slot's fault transform and the gateway's AWGN fork.
class GatewaySlotSynth {
 public:
  GatewaySlotSynth(SynthArena& arena, bool on, std::size_t n_tags,
                   std::size_t slot_samples, const ChannelTables& ch,
                   std::span<channel::AwgnChannel> noise,
                   const FaultPlan& fplan)
      : masks(arena.alloc<const std::uint8_t*>(on ? n_tags : 0)),
        tags(arena.alloc<std::uint32_t>(on ? n_tags : 0)),
        on_(arena.alloc<cf32>(on ? n_tags : 0)),
        off_(arena.alloc<cf32>(on ? n_tags : 0)),
        coeff_(arena.alloc<cf32>(on ? slot_samples : 0)),
        ch_(ch),
        noise_(noise),
        fplan_(fplan) {}

  std::span<const std::uint8_t*> masks;
  std::span<std::uint32_t> tags;

  void run(std::size_t g, std::uint64_t slot, std::size_t n,
           std::span<const cf32> carrier, std::span<cf32> out) {
    const std::size_t n_gw = noise_.size();
    for (std::size_t e = 0; e < n; ++e) {
      on_[e] = ch_.coup_on[tags[e] * n_gw + g];
      off_[e] = ch_.coup_off[tags[e] * n_gw + g];
    }
    WaveformSynthesizer::synthesize_slot_gateway(
        carrier, ch_.h_sr[g],
        std::span<const std::uint8_t* const>(masks.data(), n),
        std::span<const cf32>(on_.data(), n),
        std::span<const cf32>(off_.data(), n), coeff_, out);
    if (fplan_.any()) {
      // The carrier sag scales every ambient-derived component (leakage
      // and backscatter are both linear in the carrier, so post-scaling
      // the clean sum is exact), burst-interferer tones arrive over the
      // air, and the gateway attenuation then scales everything
      // reaching the faulted front end — receiver noise stays unscaled.
      const float cs = fplan_.carrier_scale(slot);
      if (cs != 1.0f) {
        for (auto& v : out) v *= cs;
      }
      fplan_.add_interferers(g, slot, out);
      const float a = fplan_.gateway_atten(g, slot);
      if (a != 1.0f) {
        for (auto& v : out) v *= a;
      }
    }
    noise_[g].process(out, out);
  }

 private:
  std::span<cf32> on_, off_, coeff_;
  const ChannelTables& ch_;
  std::span<channel::AwgnChannel> noise_;
  const FaultPlan& fplan_;
};

/// kHybrid's escalation state. The frame log records who was on air
/// when, so an escalated window re-synthesizes exactly the slots it
/// needs (amortised std::vectors, not arena carves: escalation demand is
/// data-dependent). The slot cache keeps the noisy synthesized receive
/// history per (gateway, slot), built the first time any escalated
/// window touches the slot and shared by every later escalation —
/// contested frames overlap heavily in dense scenes, and overlapping
/// frames must see one noise realisation, as on the waveform path. A
/// slot is final once built: every frame that can overlap it is already
/// logged when the first escalation reaches it, because escalations run
/// at verdict time, after the escalating frame's window has elapsed.
///
/// Storage is chunk-lazy: each (gateway, run of kChunkSlots slots) is
/// carved from the arena on first touch, and a decode window is gathered
/// into contiguous `win` scratch before the envelope stage (identical
/// sample values, hence identical verdicts). Escalation demand is
/// deterministic per trial, so the arena's high-water capacity stays
/// replay-stable.
class EscalationCache {
 public:
  /// Escalated-demod memo: frames that started in the same slot share
  /// the identical decode window at a gateway, so the receiver output is
  /// the same — cluster peers reuse it bit-for-bit.
  struct Demod {
    std::uint32_t g;
    std::uint64_t start;
    core::FdRxResult r;
  };

  EscalationCache(SynthArena& arena, bool on, std::size_t n_tags,
                  std::size_t n_gw, std::size_t slots,
                  std::size_t slot_samples, std::size_t win_slots)
      : win(arena.alloc<cf32>(on ? win_slots * slot_samples : 0)),
        env(arena.alloc<float>(on ? win_slots * slot_samples : 0)),
        slots_(slots),
        ss_(slot_samples),
        chunks_per_gw_((slots + kChunkSlots - 1) / kChunkSlots),
        chunks_(arena.alloc<cf32*>(on ? n_gw * chunks_per_gw_ : 0)),
        built_(arena.alloc_zeroed<std::uint8_t>(on ? n_gw * slots : 0)) {
    std::fill(chunks_.begin(), chunks_.end(), nullptr);
    if (on) {
      frames.reserve(n_tags);
      slot_off.assign(slots + 1, 0);
    }
  }

  std::vector<FrameLog> frames;
  std::vector<std::uint32_t> slot_frames;  ///< frame ids, slot-major
  std::vector<std::uint32_t> slot_off;     ///< slot s: [off[s], off[s+1])
  std::span<cf32> win;
  std::span<float> env;
  std::vector<Demod> demod;
  std::vector<std::size_t> order;  ///< contested gateways, best first

  std::uint32_t log(std::uint32_t k, std::uint64_t slot,
                    const std::vector<std::uint8_t>& payload) {
    frames.push_back({k, slot, payload, {}});
    return static_cast<std::uint32_t>(frames.size() - 1);
  }
  /// Indexes the on-air frames of `slot`. Fully-culled tags are in range
  /// of no gateway, so escalation would skip them anyway.
  void index_slot(std::uint64_t slot, const std::vector<std::size_t>& on_air,
                  const std::vector<TagRt>& rt,
                  const std::vector<std::uint8_t>& culled) {
    for (const std::size_t k : on_air) {
      if (!culled[k]) slot_frames.push_back(rt[k].frame_id);
    }
    slot_off[slot + 1] = static_cast<std::uint32_t>(slot_frames.size());
  }
  const Demod* find(std::size_t g, std::uint64_t start) const {
    for (const Demod& d : demod) {
      if (d.g == g && d.start == start) return &d;
    }
    return nullptr;
  }
  cf32* slot_ptr(SynthArena& arena, std::size_t g, std::size_t s) {
    cf32*& chunk = chunks_[g * chunks_per_gw_ + s / kChunkSlots];
    if (chunk == nullptr) chunk = arena.alloc<cf32>(kChunkSlots * ss_).data();
    return chunk + (s % kChunkSlots) * ss_;
  }
  /// True the first time (g, s) is requested: the caller builds it.
  bool claim(std::size_t g, std::size_t s) {
    return !std::exchange(built_[g * slots_ + s], std::uint8_t{1});
  }

 private:
  static constexpr std::size_t kChunkSlots = 4;
  std::size_t slots_;
  std::size_t ss_;
  std::size_t chunks_per_gw_;
  std::span<cf32*> chunks_;
  std::span<std::uint8_t> built_;
};

/// Serving-gateway state. `serving_now` is the gateway a tag currently
/// listens through — the trial's link-quality choice until the opt-in
/// dead-gateway failover (kBestGateway) re-selects it after a failure
/// streak. The machine draws its holdoff jitter from its own side
/// substream in deterministic (slot, tag) order, so enabling it never
/// disturbs the main trial draws.
class Failover {
 public:
  Failover(const NetworkSimConfig& cfg, std::size_t n_gw,
           std::uint64_t trial_index, const ChannelTables& ch,
           SynthArena& arena)
      : cfg_(cfg),
        n_gw_(n_gw),
        on_(cfg.failover_streak_frames > 0 && n_gw > 1 &&
            cfg.combining == GatewayCombining::kBestGateway),
        serving_now_(arena.alloc<std::size_t>(ch.serving.size())),
        h_tr_(ch.h_tr),
        rng_(Rng::substream(cfg.seed ^ kSalt, trial_index)) {
    std::copy(ch.serving.begin(), ch.serving.end(), serving_now_.begin());
    if (on_) {
      streak_.assign(serving_now_.size(), 0);
      streak_start_.assign(serving_now_.size(), 0);
      switches_.assign(serving_now_.size(), 0);
      blacklist_until_.assign(serving_now_.size() * n_gw, 0);
    }
  }

  /// The combining rule: kAnyGateway listens to every gateway,
  /// kBestGateway to the serving one alone.
  bool listens(std::size_t k, std::size_t g) const {
    return cfg_.combining == GatewayCombining::kAnyGateway ||
           g == serving_now_[k];
  }
  std::size_t serving(std::size_t k) const { return serving_now_[k]; }

  /// A delivery clears the streak; a failure extends it, and hitting the
  /// threshold blacklists the serving gateway for a jittered
  /// capped-exponential holdoff and re-selects the best remaining link.
  void note(std::size_t k, bool delivered, std::uint64_t start_slot,
            std::uint64_t learn_slot, NetworkTrialResult& res) {
    if (!on_) return;
    if (delivered) {
      streak_[k] = 0;
      switches_[k] = 0;
      return;
    }
    if (streak_[k] == 0) streak_start_[k] = start_slot;
    if (++streak_[k] < cfg_.failover_streak_frames) return;
    const std::size_t old_g = serving_now_[k];
    const std::size_t holdoff = mac::failover_holdoff_slots(
        rng_, cfg_.failover_holdoff_slots, switches_[k],
        cfg_.failover_max_exponent);
    blacklist_until_[k * n_gw_ + old_g] = learn_slot + 1 + holdoff;
    std::size_t best = old_g;
    float best_mag = -1.0f;
    for (std::size_t g = 0; g < n_gw_; ++g) {
      if (blacklist_until_[k * n_gw_ + g] > learn_slot) continue;
      const float mag = std::abs(h_tr_[k * n_gw_ + g]);
      if (mag > best_mag) {
        best_mag = mag;
        best = g;
      }
    }
    if (best != old_g) {
      serving_now_[k] = best;
      ++res.failovers;
      res.time_to_failover_slots.add(
          static_cast<double>(learn_slot - streak_start_[k] + 1));
      ++switches_[k];
    }
    streak_[k] = 0;
  }

 private:
  static constexpr std::uint64_t kSalt = 0xfa110feedULL;
  const NetworkSimConfig& cfg_;
  std::size_t n_gw_;
  bool on_;
  std::span<std::size_t> serving_now_;
  std::span<const cf32> h_tr_;
  Rng rng_;
  std::vector<std::size_t> streak_;
  std::vector<std::uint64_t> streak_start_;
  std::vector<std::size_t> switches_;
  std::vector<std::uint64_t> blacklist_until_;
};

/// Per-trial relaying state: each child's current parent (an index into
/// its candidate list), per-link ETX counters, forwarding queues, and
/// the end-to-end failure streaks that drive re-parenting. Heap vectors
/// — queued payloads grow data-dependently.
struct RelayFabric {
  RelayFabric(const RelayTopology& topo, const RelayConfig& cfg, bool on,
              std::size_t n_tags)
      : topo(topo), cfg(cfg) {
    if (!on) return;
    queue.resize(n_tags);
    parent.assign(n_tags, 0);
    etx_attempts.assign(topo.num_links(), 0);
    etx_success.assign(topo.num_links(), 0);
    streak.assign(n_tags, 0);
    streak_start.assign(n_tags, 0);
  }

  /// Index of tag k's current parent link in the per-link tables.
  std::size_t link(std::size_t k) const {
    return topo.link_offset(k) + parent[k];
  }

  /// End-to-end relay feedback: every loss of an originator's frame past
  /// its own transmission extends its streak (the implicit missing ACK a
  /// real mesh would observe); hitting the threshold re-parents onto the
  /// smoothed-ETX-best candidate, landing in the failover stats — which
  /// is how a gateway outage shows up as relay rerouting.
  /// `charge_link` marks losses the child's own hop bookkeeping has not
  /// counted: they land as a failed attempt on its *current* link, so a
  /// dead upstream degrades the link's ETX even while the first hop
  /// itself keeps succeeding.
  void charge_failure(std::uint32_t o, std::uint64_t learn_slot,
                      bool charge_link, NetworkTrialResult& res) {
    if (charge_link) ++etx_attempts[link(o)];
    if (streak[o] == 0) streak_start[o] = learn_slot;
    if (++streak[o] < cfg.reparent_fail_streak) return;
    const auto cands = topo.candidates(o);
    const std::size_t off = topo.link_offset(o);
    std::size_t best = parent[o];
    double best_etx = std::numeric_limits<double>::infinity();
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const double etx = static_cast<double>(etx_attempts[off + ci] + 1) /
                         static_cast<double>(etx_success[off + ci] + 1);
      if (etx < best_etx) {
        best_etx = etx;
        best = ci;
      }
    }
    if (best != parent[o]) {
      parent[o] = static_cast<std::uint32_t>(best);
      ++res.failovers;
      res.time_to_failover_slots.add(
          static_cast<double>(learn_slot - streak_start[o] + 1));
    }
    streak[o] = 0;
  }

  const RelayTopology& topo;
  const RelayConfig& cfg;
  std::vector<std::vector<QueuedFrame>> queue;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> etx_attempts;
  std::vector<std::uint64_t> etx_success;
  std::vector<std::size_t> streak;
  std::vector<std::uint64_t> streak_start;
};

/// How a frame attempt ended.
enum class Outcome {
  kDelivered,
  kFailed,       ///< resolved at a gateway, not delivered
  kHopFailed,    ///< relay hop to the parent tag failed
  kBrownout,     ///< storage emptied mid-frame
  kNotifyAbort,  ///< collision notification arrived: aborted
};

/// The one place frame outcomes are booked: per-tag counters, collision
/// and sync-failure tallies, detection latency, relay drops, and fault
/// exposure.
class TrialAccounting {
 public:
  TrialAccounting(std::size_t payload_bytes, std::size_t frame_slots,
                  const FaultPlan& fplan, const std::vector<TagRt>& rt,
                  const Failover& failover, RelayFabric& relay,
                  NetworkTrialResult& res)
      : payload_bits_(payload_bytes * 8), frame_slots_(frame_slots),
        fplan_(fplan), rt_(rt), failover_(failover), relay_(relay),
        res_(res) {}

  void settle(std::size_t k, std::uint64_t learn_slot, Outcome o) {
    const TagRt& tag = rt_[k];
    const bool delivered = o == Outcome::kDelivered;
    if (fplan_.any() && o != Outcome::kHopFailed) {
      classify_fault_exposure(k, delivered);
    }
    if (tag.forwarding) {
      // A forward's outcome belongs to the originator; the relay's own
      // per-tag counters stay untouched (delivered + collided <=
      // attempted must keep holding per tag).
      const std::uint32_t o_tag = tag.fwd_originator;
      if (!delivered) {
        ++res_.relay_drops;
        relay_.charge_failure(o_tag, learn_slot, /*charge_link=*/true, res_);
        return;
      }
      ++res_.tags[o_tag].frames_delivered;
      res_.tags[o_tag].payload_bits_delivered += payload_bits_;
      ++res_.relayed_delivered;
      res_.relay_hops.add(static_cast<double>(tag.fwd_hops + 1));
      res_.useful_slots += frame_slots_;
      relay_.streak[o_tag] = 0;
      return;
    }
    NetworkTagStats& st = res_.tags[k];
    if (delivered) {
      ++st.frames_delivered;
      st.payload_bits_delivered += payload_bits_;
      res_.useful_slots += frame_slots_;
      return;
    }
    const bool aborted = o == Outcome::kBrownout || o == Outcome::kNotifyAbort;
    if (aborted) ++st.frames_aborted;
    if (tag.overlapped) {
      ++st.frames_collided;
      ++res_.collisions;
      if (o != Outcome::kBrownout) {
        res_.detect_latency_slots.add(
            static_cast<double>(learn_slot - tag.overlap_start + 1));
      }
    } else if (!aborted) {
      ++res_.sync_failures;
    }
    // A failed first hop of fresh traffic: the hop itself was already
    // recorded on the link.
    if (o == Outcome::kHopFailed) {
      relay_.charge_failure(static_cast<std::uint32_t>(k), learn_slot,
                            /*charge_link=*/false, res_);
    }
  }

 private:
  /// Exposure is judged over the frame's on-air window at the gateways
  /// the combining rule listens to. Failed-and-exposed frames tally into
  /// every fault class whose window touched them (exposure, not causal
  /// attribution — see NetworkTrialResult).
  void classify_fault_exposure(std::size_t k, bool delivered) {
    const std::size_t lo = rt_[k].start_slot;
    const std::size_t hi = lo + frame_slots_;
    const bool sag = fplan_.window_has_sag(lo, hi);
    bool outage = false;
    bool interf = false;
    for (std::size_t g = 0; g < res_.gateway_decodes.size(); ++g) {
      if (!failover_.listens(k, g)) continue;
      outage = outage || fplan_.window_has_outage(g, lo, hi);
      interf = interf || fplan_.window_has_interference(g, lo, hi);
    }
    const TagFault* f = fplan_.tag_fault(static_cast<std::uint32_t>(k));
    const bool tagf = f != nullptr &&
                      f->start_slot < static_cast<std::int64_t>(hi) &&
                      f->end_slot > static_cast<std::int64_t>(lo);
    if (!(sag || outage || interf || tagf)) return;
    ++res_.faulted_frames_attempted;
    if (delivered) {
      ++res_.faulted_frames_delivered;
      return;
    }
    if (outage) ++res_.frames_lost_outage;
    if (sag) ++res_.frames_lost_sag;
    if (interf) ++res_.frames_lost_interference;
    if (tagf) ++res_.frames_lost_tag_fault;
  }

  std::uint64_t payload_bits_;
  std::size_t frame_slots_;
  const FaultPlan& fplan_;
  const std::vector<TagRt>& rt_;
  const Failover& failover_;
  RelayFabric& relay_;
  NetworkTrialResult& res_;
};

}  // namespace

double NetworkSimConfig::noise_power_w() const {
  if (noise_power_override_w >= 0.0) return noise_power_override_w;
  return channel::thermal_noise_power(modem.data.rates.sample_rate_hz,
                                      noise_figure_db);
}

void NetworkSimConfig::validate() const {
  const auto require = [](bool ok, const std::string& message) {
    if (!ok) throw std::invalid_argument("NetworkSimConfig: " + message);
  };
  const auto finite = [](channel::Vec2 p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  const auto positive_finite = [](double v) {
    return v > 0.0 && std::isfinite(v);
  };
  require(!tags.empty(),
          "tags must be non-empty (a network needs at least one tag)");
  // Slot cursors are uint32_t, and the wake lists reserve tag index
  // 0xffffffff as their nil.
  constexpr std::size_t kIndexMax = 0xffffffffu;
  require(tags.size() < kIndexMax,
          "tags must number fewer than 2^32 - 1, got " +
              std::to_string(tags.size()));
  require(slots_per_trial <= kIndexMax,
          "slots_per_trial must not exceed 2^32 - 1, got " +
              std::to_string(slots_per_trial));
  for (std::size_t k = 0; k < tags.size(); ++k) {
    const NetworkTagConfig& t = tags[k];
    const bool rho_ok = t.reflection_rho > 0.0 && t.reflection_rho <= 1.0;
    if (finite(t.position) && rho_ok) continue;  // no per-tag strings
    const std::string at = "tags[" + std::to_string(k) + "]";
    require(finite(t.position), at + ".position must be finite");
    require(rho_ok, at + ".reflection_rho must lie in (0, 1], got " +
                        std::to_string(t.reflection_rho));
  }
  require(finite(ambient_position), "ambient_position must be finite");
  require(finite(receiver_position), "receiver_position must be finite");
  for (std::size_t g = 0; g < extra_gateways.size(); ++g) {
    require(finite(extra_gateways[g]),
            "extra_gateways[" + std::to_string(g) + "] must be finite");
  }
  require(positive_finite(tx_power_w),
          "tx_power_w must be positive and finite, got " +
              std::to_string(tx_power_w));
  require(std::isfinite(pathloss.exponent),
          "pathloss.exponent must be finite, got " +
              std::to_string(pathloss.exponent));
  require(std::isfinite(noise_figure_db),
          "noise_figure_db must be finite, got " +
              std::to_string(noise_figure_db));
  // Negative selects the thermal estimate; infinity would drown every
  // frame in noise.
  require(std::isfinite(noise_power_override_w),
          "noise_power_override_w must be finite, got " +
              std::to_string(noise_power_override_w));
  require(positive_finite(envelope_cutoff_mult),
          "envelope_cutoff_mult must be positive and finite, got " +
              std::to_string(envelope_cutoff_mult));
  require(carrier == "cw" || carrier == "ofdm_tv",
          "unknown carrier \"" + carrier +
              "\" (expected \"cw\" or \"ofdm_tv\")");
  require(fading == "static" || fading == "rayleigh" || fading == "rician",
          "unknown fading \"" + fading +
              "\" (expected \"static\", \"rayleigh\" or \"rician\")");
  require(slots_per_trial > 0,
          "slots_per_trial must be positive (a trial needs at least one "
          "slot)");
  require(notify_slots_per_m >= 0.0 && std::isfinite(notify_slots_per_m),
          "notify_slots_per_m must be non-negative and finite, got " +
              std::to_string(notify_slots_per_m));
  relay.validate();
  if (relay.enabled) {
    require(mac_kind == mac::MacKind::kScheduled,
            "relay.enabled requires mac_kind kScheduled (a relay forwards "
            "in its own slotframe cell; under a contention MAC the forwards "
            "would collide with the children they serve)");
    require(std::isfinite(fleet.cull_radius_m),
            "relay.enabled requires a finite fleet.cull_radius_m (the culled "
            "set is the out-of-range set relays exist to reach)");
  }
  require(failover_streak_frames == 0 ||
              combining == GatewayCombining::kBestGateway,
          "failover_streak_frames requires kBestGateway combining "
          "(any-gateway delivery has no serving gateway to fail over "
          "from)");
  fleet.validate();
  faults.validate();
}

void NetworkTagStats::merge(const NetworkTagStats& other) {
  frames_attempted += other.frames_attempted;
  frames_delivered += other.frames_delivered;
  frames_collided += other.frames_collided;
  frames_aborted += other.frames_aborted;
  payload_bits_delivered += other.payload_bits_delivered;
  energy_outages += other.energy_outages;
  harvested_j += other.harvested_j;
  spent_j += other.spent_j;
}

void NetworkSimSummary::add(const NetworkTrialResult& trial) {
  if (tags.empty()) tags.resize(trial.tags.size());
  assert(tags.size() == trial.tags.size());
  for (std::size_t k = 0; k < tags.size(); ++k) tags[k].merge(trial.tags[k]);
  if (gateway_decodes.empty()) {
    gateway_decodes.resize(trial.gateway_decodes.size());
  }
  assert(gateway_decodes.size() == trial.gateway_decodes.size());
  for (std::size_t g = 0; g < gateway_decodes.size(); ++g) {
    gateway_decodes[g] += trial.gateway_decodes[g];
  }
  ++trials;
  slots += trial.slots;
  busy_slots += trial.busy_slots;
  useful_slots += trial.useful_slots;
  wasted_slots += trial.wasted_slots;
  collisions += trial.collisions;
  sync_failures += trial.sync_failures;
  detect_latency_slots.merge(trial.detect_latency_slots);
  frames_resolved_analytic += trial.frames_resolved_analytic;
  frames_escalated += trial.frames_escalated;
  frames_culled += trial.frames_culled;
  gateway_slots_synthesized += trial.gateway_slots_synthesized;
  const std::uint64_t resolved =
      trial.frames_resolved_analytic + trial.frames_escalated;
  if (resolved) {
    escalation_rate_trials.add(static_cast<double>(trial.frames_escalated) /
                               static_cast<double>(resolved));
  }
  faulted_frames_attempted += trial.faulted_frames_attempted;
  faulted_frames_delivered += trial.faulted_frames_delivered;
  frames_lost_outage += trial.frames_lost_outage;
  frames_lost_sag += trial.frames_lost_sag;
  frames_lost_interference += trial.frames_lost_interference;
  frames_lost_tag_fault += trial.frames_lost_tag_fault;
  failovers += trial.failovers;
  time_to_failover_slots.merge(trial.time_to_failover_slots);
  relay_tx_frames += trial.relay_tx_frames;
  relay_rx_frames += trial.relay_rx_frames;
  relayed_delivered += trial.relayed_delivered;
  relay_drops += trial.relay_drops;
  relay_hops.merge(trial.relay_hops);
}

void NetworkSimSummary::merge(const NetworkSimSummary& other) {
  if (other.trials == 0) return;
  if (tags.empty()) tags.resize(other.tags.size());
  assert(tags.size() == other.tags.size());
  for (std::size_t k = 0; k < tags.size(); ++k) tags[k].merge(other.tags[k]);
  if (gateway_decodes.empty()) {
    gateway_decodes.resize(other.gateway_decodes.size());
  }
  assert(gateway_decodes.size() == other.gateway_decodes.size());
  for (std::size_t g = 0; g < gateway_decodes.size(); ++g) {
    gateway_decodes[g] += other.gateway_decodes[g];
  }
  trials += other.trials;
  slots += other.slots;
  busy_slots += other.busy_slots;
  useful_slots += other.useful_slots;
  wasted_slots += other.wasted_slots;
  collisions += other.collisions;
  sync_failures += other.sync_failures;
  detect_latency_slots.merge(other.detect_latency_slots);
  frames_resolved_analytic += other.frames_resolved_analytic;
  frames_escalated += other.frames_escalated;
  frames_culled += other.frames_culled;
  gateway_slots_synthesized += other.gateway_slots_synthesized;
  escalation_rate_trials.merge(other.escalation_rate_trials);
  faulted_frames_attempted += other.faulted_frames_attempted;
  faulted_frames_delivered += other.faulted_frames_delivered;
  frames_lost_outage += other.frames_lost_outage;
  frames_lost_sag += other.frames_lost_sag;
  frames_lost_interference += other.frames_lost_interference;
  frames_lost_tag_fault += other.frames_lost_tag_fault;
  failovers += other.failovers;
  time_to_failover_slots.merge(other.time_to_failover_slots);
  relay_tx_frames += other.relay_tx_frames;
  relay_rx_frames += other.relay_rx_frames;
  relayed_delivered += other.relayed_delivered;
  relay_drops += other.relay_drops;
  relay_hops.merge(other.relay_hops);
}

std::uint64_t NetworkSimSummary::frames_attempted() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.frames_attempted;
  return n;
}

std::uint64_t NetworkSimSummary::frames_delivered() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.frames_delivered;
  return n;
}

std::uint64_t NetworkSimSummary::bits_delivered() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.payload_bits_delivered;
  return n;
}

std::uint64_t NetworkSimSummary::energy_outages() const {
  std::uint64_t n = 0;
  for (const auto& t : tags) n += t.energy_outages;
  return n;
}

double NetworkSimSummary::delivery_ratio() const {
  const std::uint64_t attempted = frames_attempted();
  return attempted ? static_cast<double>(frames_delivered()) /
                         static_cast<double>(attempted)
                   : 0.0;
}

double NetworkSimSummary::energy_outage_fraction() const {
  const std::uint64_t outages = energy_outages();
  const std::uint64_t denom = outages + frames_attempted();
  return denom ? static_cast<double>(outages) / static_cast<double>(denom)
               : 0.0;
}
ChannelTables build_channel_tables(const ChannelInputs& in, GainSource gains,
                                   SynthArena& arena) {
  const std::size_t n_gw = in.gateways.size();
  const std::size_t n_tags = in.tags.size();
  const double amp_tx = std::sqrt(in.tx_power_w);
  // Per-link complex gain: shadowing redraws reciprocally per coherence
  // block inside the scene, small-scale fading comes from the source.
  const auto gain = [&](std::size_t a, std::size_t b, double amp) {
    return gains.next() *
           static_cast<float>(amp * in.scene.amplitude_gain(a, b, gains.block));
  };
  auto h_sr = arena.alloc<cf32>(n_gw);
  for (std::size_t g = 0; g < n_gw; ++g) {
    h_sr[g] = gain(in.ambient, in.gateways[g], amp_tx);
  }
  auto h_st = arena.alloc<cf32>(n_tags);
  auto h_tr = arena.alloc<cf32>(n_tags * n_gw);
  for (std::size_t k = 0; k < n_tags; ++k) {
    h_st[k] = gain(in.ambient, in.tags[k], amp_tx);
    for (std::size_t g = 0; g < n_gw; ++g) {
      h_tr[k * n_gw + g] = gain(in.tags[k], in.gateways[g], 1.0);
    }
  }

  // Tag-tag hop links: drawn right after the gateway links, so enabling
  // relaying extends the draw sequence instead of reordering it. Each
  // entry is the envelope swing the parent tag sees of the child's
  // reflection riding on the parent's own ambient carrier.
  std::span<float> delta_tt{};
  if (in.relay != nullptr) {
    delta_tt = arena.alloc<float>(in.relay->num_links());
    for (const std::uint32_t k : in.relay->relay_children()) {
      const auto cands = in.relay->candidates(k);
      const std::size_t off = in.relay->link_offset(k);
      const auto& gamma = in.modulators[k].states();
      for (std::size_t ci = 0; ci < cands.size(); ++ci) {
        const cf32 h_tp = gain(in.tags[k], in.tags[cands[ci]], 1.0);
        delta_tt[off + ci] = static_cast<float>(envelope_swing(
            h_st[cands[ci]], h_tp * gamma.gamma_reflect * h_st[k],
            h_tp * gamma.gamma_absorb * h_st[k]));
      }
    }
  }

  // Serving gateway per tag (kBestGateway): strongest tag->gateway link
  // of this realisation; ties to the lowest index.
  auto serving = arena.alloc<std::size_t>(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) {
    std::size_t best = 0;
    float best_mag = std::abs(h_tr[k * n_gw]);
    for (std::size_t g = 1; g < n_gw; ++g) {
      const float mag = std::abs(h_tr[k * n_gw + g]);
      if (mag > best_mag) {
        best_mag = mag;
        best = g;
      }
    }
    serving[k] = best;
  }

  // Composed ambient->tag->gateway coefficient of each switch position,
  // exactly as the synthesizer folds them (h_tag->gw * Gamma(state) *
  // h_ambient->tag, left to right). The analytic swing table, per-slot
  // synthesis and escalation all read these.
  auto coup_on = arena.alloc<cf32>(n_tags * n_gw);
  auto coup_off = arena.alloc<cf32>(n_tags * n_gw);
  for (std::size_t k = 0; k < n_tags; ++k) {
    const auto& gamma = in.modulators[k].states();
    for (std::size_t g = 0; g < n_gw; ++g) {
      const std::size_t i = k * n_gw + g;
      coup_on[i] = h_tr[i] * gamma.gamma_reflect * h_st[k];
      coup_off[i] = h_tr[i] * gamma.gamma_absorb * h_st[k];
    }
  }

  // Envelope swing of every (tag, gateway) link — exact for the
  // block-static channel — in SoA layout: `delta` feeds the classifier,
  // `half` is the in-range-masked half swing the interference fold adds.
  auto delta = arena.alloc<float>(n_tags * n_gw);
  auto half = arena.alloc<float>(n_tags * n_gw);
  for (std::size_t i = 0; i < n_tags * n_gw; ++i) {
    delta[i] = static_cast<float>(
        envelope_swing(h_sr[i % n_gw], coup_on[i], coup_off[i]));
    half[i] = in.in_range[i] ? 0.5f * delta[i] : 0.0f;
  }

  // Per-slot harvest increments in the two activity states. Reflecting
  // alternates absorb/reflect roughly half the time, so the harvester
  // sees the mean of the two fractions.
  auto h_idle = arena.alloc<double>(n_tags);
  auto h_act = arena.alloc<double>(n_tags);
  for (std::size_t k = 0; k < n_tags; ++k) {
    const auto& mod = in.modulators[k];
    const double p_inc = static_cast<double>(std::norm(h_st[k]));
    h_idle[k] = in.harvester.harvest(p_inc * mod.harvest_fraction(false),
                                     in.slot_s);
    h_act[k] = in.harvester.harvest(
        p_inc * (0.5 * (mod.harvest_fraction(false) +
                        mod.harvest_fraction(true))),
        in.slot_s);
  }
  return {h_sr, h_st, h_tr, coup_on, coup_off, delta, half,
          delta_tt, serving, h_idle, h_act};
}

NetworkSimulator::NetworkSimulator(NetworkSimConfig config)
    : config_(std::move(config)),
      scene_(config_.pathloss, config_.shadowing_seed),
      tx_(config_.modem),
      rx_(config_.modem),
      harvester_(config_.harvester),
      synth_(config_.modem.data.rates, config_.envelope_cutoff_mult) {
  config_.validate();
  assert(config_.modem.consistent());

  ambient_device_ = scene_.add_device(
      {"ambient", channel::DeviceKind::kAmbientTx, config_.ambient_position});
  // Device order is part of the determinism contract: the pair-keyed
  // shadowing substream hashes device indices, so extra gateways append
  // AFTER the tags — a single-gateway deployment keeps every historical
  // index (ambient 0, rx 1, tags 2..) and therefore every shadowing
  // draw.
  gateway_device_.push_back(scene_.add_device(
      {"rx", channel::DeviceKind::kReceiver, config_.receiver_position}));
  tag_device_.reserve(config_.tags.size());
  modulators_.reserve(config_.tags.size());
  for (std::size_t k = 0; k < config_.tags.size(); ++k) {
    tag_device_.push_back(scene_.add_device({"tag" + std::to_string(k),
                                             channel::DeviceKind::kTag,
                                             config_.tags[k].position}));
    modulators_.emplace_back(
        channel::ReflectionStates::ook(config_.tags[k].reflection_rho));
  }
  for (std::size_t g = 0; g < config_.extra_gateways.size(); ++g) {
    gateway_device_.push_back(
        scene_.add_device({"gw" + std::to_string(g + 1),
                           channel::DeviceKind::kReceiver,
                           config_.extra_gateways[g]}));
  }

  // Per-tag earliest collision-notification latency: each gateway
  // notifies mac::notify_latency_slots(base, distance, slope) after the
  // overlap begins; the tag aborts on whichever arrives first (the
  // closest gateway's).
  notify_slots_.reserve(config_.tags.size());
  notify_pg_.reserve(config_.tags.size() * gateway_device_.size());
  for (std::size_t k = 0; k < config_.tags.size(); ++k) {
    std::size_t best = SIZE_MAX;
    for (const std::size_t gw : gateway_device_) {
      const double dist = channel::distance_m(
          scene_.device(tag_device_[k]).position, scene_.device(gw).position);
      const std::size_t lat = mac::notify_latency_slots(
          config_.notify_delay_slots, dist, config_.notify_slots_per_m);
      notify_pg_.push_back(lat);
      best = std::min(best, lat);
    }
    notify_slots_.push_back(best);
  }

  const auto& rates = config_.modem.data.rates;
  slot_samples_ = rates.samples_per_feedback_bit();
  burst_samples_ = tx_.burst_samples(config_.payload_bytes);
  frame_slots_ = (burst_samples_ + slot_samples_ - 1) / slot_samples_;
  frame_cost_j_ = static_cast<double>(frame_slots_) * slot_seconds() *
                  config_.power.backscattering_w;

  // MAC policy: every per-slot medium-access decision of the slot loop
  // below is delegated here. The scheduled kind sizes its slotframe
  // cells off frame_slots_, so this must follow the rate derivation.
  policy_ = mac::make_mac_policy(
      config_.mac_kind,
      {.contention = {.timeout_slots = config_.timeout_slots,
                      .backoff_min_slots = config_.backoff_min_slots,
                      .backoff_max_exponent = config_.backoff_max_exponent},
       .num_tags = config_.tags.size(),
       .frame_slots = frame_slots_,
       .dedicated_cells = config_.sched_dedicated_cells,
       .shared_cells = config_.sched_shared_cells});

  // Fault injector: compiled once against this deployment. Per-trial
  // plans come from a salted side substream, so fault randomness never
  // perturbs the main trial draws.
  injector_ = FaultInjector(config_.faults, config_.seed,
                            gateway_device_.size(), config_.tags.size(),
                            config_.slots_per_trial, slot_samples_,
                            rates.samples_per_chip,
                            std::sqrt(config_.noise_power_w() / 2.0));

  // Fleet engine: margin classifier (only built when a mode uses it —
  // kWaveform without frame recording may carry an unchecked target
  // BER) and the spatial-culling index. Each gateway queries its
  // interference disk out of the tag-position grid; the union defines
  // the per-(tag, gateway) in-range mask and the culled set.
  const bool classifier_used =
      config_.fleet.fidelity != FidelityMode::kWaveform ||
      config_.fleet.record_frames;
  if (classifier_used) {
    resolver_ = FleetResolver(config_.fleet,
                              std::sqrt(config_.noise_power_w() / 2.0),
                              rates.samples_per_chip);
  }
  const std::size_t n_gw = gateway_device_.size();
  in_range_.assign(config_.tags.size() * n_gw, 0);
  culled_.assign(config_.tags.size(), 1);
  {
    std::vector<channel::Vec2> positions(config_.tags.size());
    for (std::size_t k = 0; k < positions.size(); ++k) {
      positions[k] = config_.tags[k].position;
    }
    const CullingGrid grid(positions, config_.fleet.grid_cell_m);
    std::vector<std::uint32_t> hits;
    for (std::size_t g = 0; g < n_gw; ++g) {
      grid.within_into(scene_.device(gateway_device_[g]).position,
                       config_.fleet.cull_radius_m, hits);
      for (const std::uint32_t k : hits) {
        in_range_[k * n_gw + g] = 1;
        culled_[k] = 0;
      }
    }
    // Relay topology: BFS hop levels out of the in-range set just
    // computed, plus each culled tag's parent-candidate list.
    relay_topo_ = RelayTopology(positions, culled_, config_.relay,
                                config_.fleet.grid_cell_m);
  }
  num_culled_ = static_cast<std::size_t>(
      std::count(culled_.begin(), culled_.end(), std::uint8_t{1}));


  // Static-channel cache: with static fading and shadowing disabled the
  // trial build below is trial-invariant (StaticFading draws nothing and
  // amplitude_gain ignores the coherence block), so it runs once here
  // with the unit gain source — bit-identical tables, no draw skipped.
  if (config_.fading == "static" &&
      config_.pathloss.shadowing_sigma_db == 0.0) {
    auto st = std::make_shared<StaticChannel>();
    st->tables = build_channel_tables(channel_inputs(), {}, st->arena);
    static_channel_ = std::move(st);
  }
}

ChannelInputs NetworkSimulator::channel_inputs() const {
  const bool relay_on = config_.relay.enabled && relay_topo_.num_links() > 0;
  return {.scene = scene_,
          .ambient = ambient_device_,
          .gateways = gateway_device_,
          .tags = tag_device_,
          .modulators = modulators_,
          .in_range = in_range_,
          .relay = relay_on ? &relay_topo_ : nullptr,
          .tx_power_w = config_.tx_power_w,
          .harvester = harvester_,
          .slot_s = slot_seconds()};
}

double NetworkSimulator::slot_seconds() const {
  return static_cast<double>(slot_samples_) /
         config_.modem.data.rates.sample_rate_hz;
}

std::size_t NetworkSimulator::nearest_gateway(std::size_t k) const {
  std::size_t best = 0;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t g = 0; g < gateway_device_.size(); ++g) {
    const double dist = channel::distance_m(
        scene_.device(tag_device_.at(k)).position,
        scene_.device(gateway_device_[g]).position);
    if (dist < best_dist) {
      best_dist = dist;
      best = g;
    }
  }
  return best;
}

NetworkTrialResult NetworkSimulator::run_trial(
    std::uint64_t trial_index) const {
  // One warm arena per thread: disjoint trials may run concurrently on
  // one simulator, and after warm-up no trial touches the heap for
  // synthesis scratch.
  thread_local SynthArena arena;
  return run_trial_impl(trial_index, arena, nullptr);
}

NetworkTrialResult NetworkSimulator::run_trial(std::uint64_t trial_index,
                                               SynthArena& arena,
                                               TrialStageTimes* stages) const {
  return run_trial_impl(trial_index, arena, stages);
}

/// One trial's components and its frame-level steps (start, advance,
/// resolve). Members are declared — hence constructed — in the trial
/// Rng's draw order: ambient source seed, channel fade draws, one AWGN
/// fork per gateway (forked in every mode to keep the MAC draws
/// aligned), then the MAC's trial-opening waits. All modes consume the
/// Rng identically, so a trial's MAC evolution and channel realisation
/// are mode-independent and only the verdict mechanism differs.
struct NetworkSimulator::Trial {
  using Clock = std::chrono::steady_clock;
  static double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  Trial(const NetworkSimulator& s, std::uint64_t trial_index, SynthArena& a,
        bool timed_)
      : sim(s),
        cfg(s.config_),
        arena(a),
        timed(timed_),
        n_tags(cfg.tags.size()),
        n_gw(s.gateway_device_.size()),
        slots(cfg.slots_per_trial),
        ss(s.slot_samples_),
        total(slots * ss),
        frame(s.frame_slots_),
        // Decode windows reach a couple of chips past the burst (RC
        // group delay shifts sync late by a fraction of a chip), never a
        // full slot: a short tail keeps a back-to-back successor's
        // preamble out of this frame's sync search.
        tail(2 * cfg.modem.data.rates.samples_per_bit()),
        waveform_all(cfg.fleet.fidelity == FidelityMode::kWaveform),
        hybrid(cfg.fleet.fidelity == FidelityMode::kHybrid),
        analytic_on(!waveform_all || cfg.fleet.record_frames),
        relay_on(cfg.relay.enabled && s.relay_topo_.num_links() > 0),
        notify_aborts(s.policy_->aborts_on_notify()),
        noise_sigma(std::sqrt(cfg.noise_power_w() / 2.0)),
        // Fault realisation (empty when injection is disabled), from a
        // salted side substream: the main trial draws never see it.
        fplan(s.injector_.plan(trial_index)),
        rng(Rng::substream(cfg.seed, trial_index)),
        source(channel::make_ambient_source(cfg.carrier, rng())),
        ch(s.static_channel_ ? s.static_channel_->tables
                             : draw_tables(trial_index)),
        noise(fork_noise()),
        wake(arena, slots, n_tags),
        rt(open_tags()),
        failover(cfg, n_gw, trial_index, ch, arena),
        relay(s.relay_topo_, cfg.relay, relay_on, n_tags),
        acct(cfg.payload_bytes, frame, fplan, rt, failover, relay, res),
        energy(cfg, ch, s.slot_seconds(), rt, res.tags, arena),
        window(arena, n_tags, analytic_on ? n_gw : 0),
        synth(arena, waveform_all || hybrid, n_tags, ss, ch, noise, fplan),
        esc(arena, hybrid, n_tags, n_gw, slots, ss,
            frame + 1 + (tail + ss - 1) / ss),
        gw_verdict(n_gw, LinkVerdict::kClearFail),
        gw_margin(n_gw, -std::numeric_limits<double>::infinity()) {
    res.tags.resize(n_tags);
    res.gateway_decodes.resize(n_gw);
    res.slots = slots;
    active.reserve(n_tags);
    // Ambient carrier for the whole trial, so any decode window is a
    // pure history lookup. kWaveform generates it upfront; kHybrid
    // streams it lazily up to the highest sample an escalated window has
    // needed (the source is sequential and owns its seed, so the prefix
    // is identical either way); kAnalytic never touches samples.
    if (waveform_all || hybrid) ambient = arena.alloc<cf32>(total);
    if (waveform_all) {
      source->generate(ambient);
      ambient_filled = total;
      // Per-gateway RC envelope state carried across slots, plus a
      // full-trial envelope history each.
      envelopes = arena.alloc<dsp::EnvelopeDetector>(n_gw);
      for (auto& e : envelopes) std::construct_at(&e, s.synth_.make_envelope());
      env_buf = arena.alloc_zeroed<float>(n_gw * total);
      rx_slot = arena.alloc<cf32>(n_gw * ss);
    }
  }

  ChannelTables draw_tables(std::uint64_t trial_index) {
    auto fading = channel::make_fading(cfg.fading, rng);
    return build_channel_tables(sim.channel_inputs(),
                                {fading.get(), &rng, trial_index}, arena);
  }

  std::span<channel::AwgnChannel> fork_noise() {
    static_assert(std::is_trivially_destructible_v<channel::AwgnChannel>);
    static_assert(std::is_trivially_destructible_v<dsp::EnvelopeDetector>);
    auto forks = arena.alloc<channel::AwgnChannel>(n_gw);
    const double noise_power = cfg.noise_power_w();
    for (auto& n : forks) std::construct_at(&n, noise_power, rng.fork());
    return forks;
  }

  /// Per-tag runtime state; the policy hands out the trial-opening waits
  /// (contention policies draw them from the trial Rng in tag order).
  std::vector<TagRt> open_tags() {
    std::vector<TagRt> tags;
    tags.reserve(n_tags);
    for (std::size_t k = 0; k < n_tags; ++k) {
      tags.emplace_back(cfg.storage, cfg.power);
      wake.arm(WakeBuckets::kBackoff, k, 0,
               sim.policy_->initial_wait(k, tags[k].mac, rng));
    }
    return tags;
  }

  void redraw_wait(std::size_t k, std::uint64_t slot) {
    wake.arm(WakeBuckets::kBackoff, k, slot + 1,
             sim.policy_->next_wait(k, slot, rt[k].mac, rng));
  }

  /// Phase A body: tag k's backoff expired at `slot`.
  void try_start(std::size_t k, std::uint64_t slot) {
    // Frames that cannot fully resolve inside the trial are not started:
    // the tag parks on a wait that runs off the end of the trial.
    if (slot + frame + 2 > slots) {
      wake.arm(WakeBuckets::kBackoff, k, slot + 1, slots);
      return;
    }
    energy.sync(k, slot);  // gating reads storage: bring it current
    if (cfg.energy_gating && rt[k].storage.level_j() < sim.frame_cost_j_) {
      ++res.tags[k].energy_outages;
      redraw_wait(k, slot);
      return;
    }
    start_frame(k, slot);
    active.insert(std::lower_bound(active.begin(), active.end(), k), k);
    if (analytic_on) window.start(k);
  }

  void start_frame(std::size_t k, std::uint64_t slot) {
    TagRt& tag = rt[k];
    tag.st = TagRt::St::kTx;
    tag.progress = 0;
    tag.start_slot = slot;
    tag.overlapped = false;
    tag.forwarding = relay_on && !relay.queue[k].empty();
    if (tag.forwarding) {
      // Forwarding outranks fresh traffic — the queued frame is older.
      // No payload draw: the scheduled MAC never touches the trial Rng
      // either, so the draw sequence is a pure function of the queue
      // evolution.
      QueuedFrame f = std::move(relay.queue[k].front());
      relay.queue[k].erase(relay.queue[k].begin());
      tag.fwd_originator = f.originator;
      tag.fwd_hops = f.hops;
      tag.payload = std::move(f.payload);
      ++res.relay_tx_frames;
    } else {
      ++res.tags[k].frames_attempted;
      tag.payload.resize(cfg.payload_bytes);
      for (auto& byte : tag.payload) {
        byte = static_cast<std::uint8_t>(rng.uniform_int(256));
      }
    }
    // Antenna states are only modulated where samples are needed:
    // per-slot synthesis (kWaveform) now, escalated windows (kHybrid)
    // lazily from the frame log, never in kAnalytic.
    const auto k32 = static_cast<std::uint32_t>(k);
    if (waveform_all) {
      tag.states = frame_states(k32, slot, tag.payload);
    } else if (hybrid) {
      tag.frame_id = esc.log(k32, slot, tag.payload);
    }
  }

  /// Modulated antenna states of a frame, zero-padded to whole slots (0 =
  /// absorb, i.e. "frame ended mid-slot") so every slot of the frame is a
  /// plain pointer view for the slot kernel, then rewritten for the
  /// tag's own hardware fault: a stuck switch pins the fault-covered
  /// slots to the jammed position; oscillator drift shifts the burst by
  /// the skew accumulated since fault onset.
  std::vector<std::uint8_t> frame_states(
      std::uint32_t k, std::uint64_t start,
      const std::vector<std::uint8_t>& payload) const {
    std::vector<std::uint8_t> states = sim.tx_.modulate(payload);
    states.resize(frame * ss, 0);
    const TagFault* f = fplan.any() ? fplan.tag_fault(k) : nullptr;
    if (f == nullptr) return states;
    const auto start_i = static_cast<std::int64_t>(start);
    if (f->stuck) {
      const std::int64_t lo = std::max<std::int64_t>(f->start_slot, start_i);
      const std::int64_t hi = std::min<std::int64_t>(
          f->end_slot, start_i + static_cast<std::int64_t>(frame));
      const auto ss_i = static_cast<std::int64_t>(ss);
      if (lo < hi) {
        std::fill(states.begin() + (lo - start_i) * ss_i,
                  states.begin() + (hi - start_i) * ss_i, f->stuck_state);
      }
      return states;
    }
    const std::size_t shift = fplan.drift_shift_samples(k, start_i);
    if (shift >= states.size()) {
      std::fill(states.begin(), states.end(), std::uint8_t{0});
    } else if (shift > 0) {
      states.insert(states.begin(), shift, std::uint8_t{0});
      states.resize(frame * ss);
    }
    return states;
  }

  /// kWaveform slot synthesis: each on-air tag's mask block for this
  /// slot is resolved once, then every gateway runs its chain and RC
  /// envelope stage into the trial history.
  void synthesize_slot(std::uint64_t slot) {
    const std::size_t base = static_cast<std::size_t>(slot) * ss;
    const auto carrier = std::span<const cf32>(ambient).subspan(base, ss);
    for (std::size_t e = 0; e < active.size(); ++e) {
      const TagRt& tag = rt[active[e]];
      synth.masks[e] = tag.states.data() + (slot - tag.start_slot) * ss;
      synth.tags[e] = static_cast<std::uint32_t>(active[e]);
    }
    for (std::size_t g = 0; g < n_gw; ++g) {
      const auto out = rx_slot.subspan(g * ss, ss);
      synth.run(g, slot, active.size(), carrier, out);
      envelopes[g].process(out, env_buf.subspan(g * total + base, ss));
    }
    res.gateway_slots_synthesized += n_gw;
  }

  /// Per-gateway in-range half-swing sum of the on-air tags, folded into
  /// the interference window. Under faults the sum mirrors the synthesis
  /// transform: half swings scale with the carrier sag and the gateway
  /// attenuation, and burst-interferer envelopes arrive over the air.
  void fold_interference(std::uint64_t slot) {
    for (std::size_t g = 0; g < n_gw; ++g) {
      float sum = 0.0f;
      for (const std::size_t k : active) {
        if (sim.in_range_[k * n_gw + g]) sum += ch.half[k * n_gw + g];
      }
      if (fplan.any()) {
        sum = sum * fplan.signal_scale(g, slot) +
              fplan.interferer_env(g, slot) * fplan.gateway_atten(g, slot);
      }
      window.record(g, sum, active);
    }
  }

  /// Whether tag k's collision notification has arrived by `slot`. A
  /// gateway only notifies if it was alive to *detect* the overlap: an
  /// outage then silences it, and the tag keeps burning the collided
  /// frame until a healthy gateway's (possibly slower) notification
  /// arrives — the failure mode dead-gateway failover responds to.
  bool notified(std::size_t k, std::uint64_t slot) const {
    const TagRt& tag = rt[k];
    if (!notify_aborts || !tag.overlapped) return false;
    const std::uint64_t waited = slot - tag.overlap_start + 1;
    if (!fplan.any()) return waited >= sim.notify_slots_[k];
    for (std::size_t g = 0; g < n_gw; ++g) {
      if (waited >= sim.notify_pg_[k * n_gw + g] &&
          fplan.gateway_alive(g, tag.overlap_start)) {
        return true;
      }
    }
    return false;
  }

  /// Phase C: transmission progress, overlap, aborts, frame ends. The
  /// on-air list is compacted in place, keeping its ascending order.
  void advance_frames(std::uint64_t slot) {
    const bool collision_now = active.size() >= 2;
    std::size_t keep = 0;
    for (std::size_t ai = 0, n = active.size(); ai < n; ++ai) {
      const std::size_t k = active[ai];
      TagRt& tag = rt[k];
      ++tag.progress;
      if (collision_now && !tag.overlapped) {
        tag.overlapped = true;
        tag.overlap_start = slot;
      }
      // Storage emptied under the switch drive (the frame dies on air),
      // or the earliest gateway's notification arrived: abort now.
      const bool brownout = std::exchange(tag.brownout_now, false);
      if (brownout || notified(k, slot)) {
        acct.settle(k, slot,
                    brownout ? Outcome::kBrownout : Outcome::kNotifyAbort);
        if (!brownout) sim.policy_->on_notify_abort(k, tag.mac);
        tag.st = TagRt::St::kBackoff;
        redraw_wait(k, slot);
        continue;
      }
      if (tag.progress >= frame) {
        // Fully on air. The policy decides the drain: one slot for the
        // final block verdict (notify / scheduled), the ACK timeout for
        // the timeout MAC.
        tag.st = TagRt::St::kWaitVerdict;
        wake.arm(WakeBuckets::kVerdict, k, slot + 1,
                 sim.policy_->verdict_wait_slots());
        ++n_waiting;
        continue;
      }
      active[keep++] = k;
    }
    active.resize(keep);
  }

  /// Resolves tag k's completed frame; `learn_slot` is when the
  /// transmitter hears the outcome. Also the verdict stage-timing
  /// boundary (escalation is carved out inside escalate()).
  void resolve_frame(std::size_t k, std::uint64_t learn_slot, bool update_mac) {
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    if (relay_on && sim.relay_topo_.reachable(k) &&
        sim.relay_topo_.level(k) >= 1) {
      resolve_hop(k, learn_slot, update_mac);
    } else {
      resolve_verdict(k, learn_slot, update_mac);
    }
    if (timed) verdict_s += seconds_since(t0);
  }

  /// A relay child's frame against its current parent link: the hop
  /// delivers iff the frame stayed clean on air and the tag-tag swing
  /// clears the analytic margin floor — one rule in every fidelity mode,
  /// since no sample-level receiver exists at a tag. A delivered hop
  /// lands in the parent's forwarding queue.
  void resolve_hop(std::size_t k, std::uint64_t learn_slot, bool update_mac) {
    TagRt& tag = rt[k];
    const std::size_t link = relay.link(k);
    const std::uint32_t parent = sim.relay_topo_.candidates(k)[relay.parent[k]];
    ++relay.etx_attempts[link];
    const double margin = analytic_margin_db(
        ch.delta_tt[link], 0.0, noise_sigma,
        cfg.modem.data.rates.samples_per_chip, cfg.fleet.analytic_target_ber);
    const bool success = !tag.overlapped && margin >= cfg.relay.min_margin_db;
    if (update_mac) sim.policy_->on_outcome(k, success, tag.mac);
    if (!success) {
      acct.settle(k, learn_slot, Outcome::kHopFailed);
      return;
    }
    ++relay.etx_success[link];
    const std::uint32_t originator =
        tag.forwarding ? tag.fwd_originator : static_cast<std::uint32_t>(k);
    if (relay.queue[parent].size() < cfg.relay.queue_capacity) {
      relay.queue[parent].push_back(
          {originator, tag.forwarding ? tag.fwd_hops + 1 : 1, tag.payload});
      ++res.relay_rx_frames;
      res.useful_slots += frame;
    } else {
      ++res.relay_drops;
      relay.charge_failure(originator, learn_slot, /*charge_link=*/true, res);
    }
  }

  /// A frame at the gateways: kWaveform decodes every gateway's envelope
  /// history; the fleet modes classify analytically and (kHybrid)
  /// escalate contested frames back to synthesis.
  void resolve_verdict(std::size_t k, std::uint64_t learn_slot,
                       bool update_mac) {
    TagRt& tag = rt[k];
    const std::uint64_t lo = tag.start_slot;
    const std::uint64_t hi = lo + frame;
    bool delivered = false;
    bool escalated = false;
    LinkVerdict combined = LinkVerdict::kContested;
    double best_margin = -std::numeric_limits<double>::infinity();

    // The tag's own hardware fault this frame: stuck and drift-shifted
    // frames force kContested in every classifying mode (only synthesis,
    // which rewrites the faulted states, can judge a corrupted burst).
    bool own_stuck = false;
    std::size_t own_shift = 0;
    if (fplan.any()) {
      const auto k32 = static_cast<std::uint32_t>(k);
      own_stuck = fplan.stuck_in_window(k32, static_cast<std::int64_t>(lo),
                                        static_cast<std::int64_t>(hi));
      own_shift = fplan.drift_shift_samples(k32, static_cast<std::int64_t>(lo));
    }

    if (analytic_on) {
      // Per-gateway one-sided-safe verdicts over the gateways the
      // combining rule listens to.
      bool any_deliver = false;
      bool any_contested = false;
      std::size_t best_g = failover.serving(k);
      for (std::size_t g = 0; g < n_gw; ++g) {
        if (!failover.listens(k, g)) {
          gw_verdict[g] = LinkVerdict::kClearFail;
          gw_margin[g] = -std::numeric_limits<double>::infinity();
          continue;
        }
        const double d = ch.delta[k * n_gw + g];
        // Worst concurrent in-range interference over the window minus
        // the tag's own share. Under faults the own share takes the
        // *minimum* window scale, keeping the residual an over-estimate
        // — the safe side for the one-sided classifier.
        double own = sim.in_range_[k * n_gw + g] ? 0.5 * d : 0.0;
        if (fplan.any()) own *= fplan.min_signal_scale(g, lo, hi);
        const double interf = std::max(
            0.0, static_cast<double>(window.worst(k, g)) - own);
        double margin;
        if (fplan.any()) {
          // The pessimistic arm takes the window's minimum signal scale,
          // the optimistic arm its maximum.
          const double scale_min = fplan.min_signal_scale(g, lo, hi);
          const double scale_max = fplan.max_signal_scale(g, lo, hi);
          gw_verdict[g] =
              sim.resolver_.classify(d * scale_min, d * scale_max, interf);
          margin = sim.resolver_.margin_db(d * scale_min, interf);
          if (own_stuck || own_shift > 0) {
            gw_verdict[g] = LinkVerdict::kContested;
          }
        } else {
          gw_verdict[g] = sim.resolver_.classify(d, interf);
          margin = sim.resolver_.margin_db(d, interf);
        }
        if (tag.forwarding && gw_verdict[g] == LinkVerdict::kClearDeliver) {
          // Relayed delivery is never claimed from the margin band alone
          // (one-sided-safe): kHybrid escalates, kAnalytic point-estimates.
          gw_verdict[g] = LinkVerdict::kContested;
        }
        gw_margin[g] = margin;
        if (margin > best_margin) {
          best_margin = margin;
          best_g = g;
        }
        any_deliver |= gw_verdict[g] == LinkVerdict::kClearDeliver;
        any_contested |= gw_verdict[g] == LinkVerdict::kContested;
      }
      combined = any_deliver     ? LinkVerdict::kClearDeliver
                 : any_contested ? LinkVerdict::kContested
                                 : LinkVerdict::kClearFail;

      if (!waveform_all) {
        if (combined == LinkVerdict::kClearDeliver) {
          delivered = true;
          for (std::size_t g = 0; g < n_gw; ++g) {
            if (gw_verdict[g] == LinkVerdict::kClearDeliver) {
              ++res.gateway_decodes[g];
            }
          }
        } else if (combined == LinkVerdict::kContested) {
          if (hybrid) {
            delivered = escalate(k);
            escalated = true;
          } else if (!own_stuck) {
            // Point estimate at the band centre; a drifted burst must
            // also still fit the decode window's tail. A jammed switch
            // never reached the air: fail.
            delivered = best_margin >= 0.0 && own_shift <= tail;
            if (delivered) ++res.gateway_decodes[best_g];
          }
        }
        ++(escalated ? res.frames_escalated : res.frames_resolved_analytic);
        if (sim.culled_[k]) ++res.frames_culled;
      }
    }
    if (waveform_all) delivered = decode_history(k);

    if (cfg.fleet.record_frames) {
      res.frames.push_back({static_cast<std::uint32_t>(k), lo, tag.overlapped,
                            combined, best_margin, delivered, escalated});
    }
    acct.settle(k, learn_slot,
                delivered ? Outcome::kDelivered : Outcome::kFailed);
    if (update_mac) {
      if (!tag.forwarding) failover.note(k, delivered, lo, learn_slot, res);
      sim.policy_->on_outcome(k, delivered, tag.mac);
    }
  }

  /// kWaveform: demodulates the frame's window out of every gateway's
  /// envelope history; delivered iff a gateway the combining rule
  /// listens to decodes it.
  bool decode_history(std::size_t k) {
    const TagRt& tag = rt[k];
    const std::size_t lo = static_cast<std::size_t>(tag.start_slot) * ss;
    const std::size_t hi = std::min(total, lo + sim.burst_samples_ + tail);
    bool delivered = false;
    for (std::size_t g = 0; g < n_gw; ++g) {
      const auto window_env = std::span<const float>(env_buf).subspan(
          g * total + lo, hi - lo);
      if (decoded(sim.rx_.demodulate(window_env, {}, cfg.payload_bytes),
                  tag.payload)) {
        ++res.gateway_decodes[g];
        delivered |= failover.listens(k, g);
      }
    }
    return delivered;
  }

  /// kHybrid escalation of a contested frame: the real sample-level
  /// chain over this frame's decode window only, at the contested
  /// gateways only. Gateways are tried best-margin-first and the loop
  /// stops at the first decode that settles delivery, so weaker
  /// gateways' windows never need synthesizing.
  bool escalate(std::size_t k) {
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    esc.order.clear();
    for (std::size_t g = 0; g < n_gw; ++g) {
      if (gw_verdict[g] == LinkVerdict::kContested) esc.order.push_back(g);
    }
    std::sort(esc.order.begin(), esc.order.end(),
              [&](std::size_t a, std::size_t b) {
                return gw_margin[a] != gw_margin[b]
                           ? gw_margin[a] > gw_margin[b]
                           : a < b;
              });
    bool delivered = false;
    for (const std::size_t g : esc.order) {
      if (decoded(escalated_demod(g, rt[k].start_slot), rt[k].payload)) {
        ++res.gateway_decodes[g];
        if (failover.listens(k, g)) {
          delivered = true;
          break;
        }
      }
    }
    if (timed) escalate_s += seconds_since(t0);
    return delivered;
  }

  /// Receiver output over the decode window of a frame started at
  /// `start`, at gateway g: synthesized slot by slot into the escalation
  /// cache (one warm-up slot ahead settles the fresh RC envelope state),
  /// folding in only in-range logged frames, then envelope + demod.
  const core::FdRxResult& escalated_demod(std::size_t g, std::uint64_t start) {
    // A cluster peer already demodulated this exact window: every slot
    // of it is built, so reuse consumes no RNG and changes no accounting.
    if (const auto* hit = esc.find(g, start)) return hit->r;
    const std::size_t lo = static_cast<std::size_t>(start) * ss;
    const std::size_t hi = std::min(total, lo + sim.burst_samples_ + tail);
    const std::size_t w0_slot = start > 0 ? start - 1 : 0;
    const std::size_t hi_slot = std::min(slots, (hi + ss - 1) / ss);
    const std::size_t w0 = w0_slot * ss;
    const std::size_t win_samples = hi_slot * ss - w0;
    assert(win_samples <= esc.win.size());
    if (hi_slot * ss > ambient_filled) {
      source->generate(
          ambient.subspan(ambient_filled, hi_slot * ss - ambient_filled));
      ambient_filled = hi_slot * ss;
    }
    for (std::size_t s = w0_slot; s < hi_slot; ++s) {
      cf32* const slot_p = esc.slot_ptr(arena, g, s);
      if (esc.claim(g, s)) {
        ++res.gateway_slots_synthesized;
        std::size_t n = 0;
        for (std::uint32_t i = esc.slot_off[s]; i < esc.slot_off[s + 1]; ++i) {
          FrameLog& fl = esc.frames[esc.slot_frames[i]];
          if (!sim.in_range_[fl.tag * n_gw + g]) continue;
          if (fl.states.empty()) {
            fl.states = frame_states(fl.tag, fl.start_slot, fl.payload);
          }
          synth.masks[n] = fl.states.data() + (s - fl.start_slot) * ss;
          synth.tags[n++] = fl.tag;
        }
        synth.run(g, s, n, std::span<const cf32>(ambient).subspan(s * ss, ss),
                  std::span<cf32>(slot_p, ss));
      }
      std::memcpy(esc.win.data() + (s - w0_slot) * ss, slot_p,
                  ss * sizeof(cf32));
    }
    dsp::EnvelopeDetector env = sim.synth_.make_envelope();
    const auto env_out = esc.env.subspan(0, win_samples);
    env.process(std::span<const cf32>(esc.win.data(), win_samples), env_out);
    const auto burst =
        std::span<const float>(env_out).subspan(lo - w0, hi - lo);
    esc.demod.push_back({static_cast<std::uint32_t>(g), start,
                         sim.rx_.demodulate(burst, {}, cfg.payload_bytes)});
    return esc.demod.back().r;
  }

  /// Trial end: attempts still waiting on a verdict have fully
  /// synthesized frames (starts are parked otherwise), so they resolve
  /// for the stats without MAC consequences; frames still sitting in
  /// forwarding queues never reached a gateway (fabric drops).
  void finish() {
    for (std::size_t k = 0; k < n_tags; ++k) {
      if (rt[k].st == TagRt::St::kWaitVerdict) {
        resolve_frame(k, slots - 1, /*update_mac=*/false);
      }
      rt[k].st = TagRt::St::kBackoff;
      energy.sync(k, slots);  // settle the trailing idle span
      res.tags[k].spent_j = rt[k].ledger.total_energy_j();
    }
    for (const auto& q : relay.queue) res.relay_drops += q.size();
    res.wasted_slots =
        (res.busy_slots > res.useful_slots ? res.busy_slots - res.useful_slots
                                           : 0) +
        idle_wait_slots;
  }

  const NetworkSimulator& sim;
  const NetworkSimConfig& cfg;
  SynthArena& arena;
  const bool timed;
  const std::size_t n_tags, n_gw, slots, ss, total, frame, tail;
  const bool waveform_all, hybrid, analytic_on, relay_on, notify_aborts;
  const double noise_sigma;  ///< per-quadrature receiver noise
  const FaultPlan fplan;
  Rng rng;
  const std::unique_ptr<channel::AmbientSource> source;
  const ChannelTables ch;
  const std::span<channel::AwgnChannel> noise;
  NetworkTrialResult res;
  WakeBuckets wake;
  std::vector<TagRt> rt;
  Failover failover;
  RelayFabric relay;
  TrialAccounting acct;
  EnergyFastForward energy;
  SegmentMaxWindow window;
  GatewaySlotSynth synth;
  EscalationCache esc;
  std::vector<LinkVerdict> gw_verdict;
  std::vector<double> gw_margin;

  std::vector<std::size_t> active;  ///< on-air tags, ascending
  std::size_t n_waiting = 0;        ///< tags in WaitVerdict
  std::uint64_t idle_wait_slots = 0;
  std::span<cf32> ambient{};
  std::size_t ambient_filled = 0;
  std::span<dsp::EnvelopeDetector> envelopes{};
  std::span<float> env_buf{};
  std::span<cf32> rx_slot{};
  double verdict_s = 0.0;    ///< resolve time incl. escalation (wall s)
  double escalate_s = 0.0;   ///< escalation share of verdict_s
};

NetworkTrialResult NetworkSimulator::run_trial_impl(
    std::uint64_t trial_index, SynthArena& arena,
    TrialStageTimes* stages) const {
  using Clock = std::chrono::steady_clock;
  const auto t_entry = stages ? Clock::now() : Clock::time_point{};
  arena.reset();
  Trial t(*this, trial_index, arena, stages != nullptr);
  const auto t_loop = stages ? Clock::now() : Clock::time_point{};

  for (std::uint64_t slot = 0; slot < t.slots; ++slot) {
    // Phase A: backoff expiries; frame starts (energy-gated).
    t.wake.fire(WakeBuckets::kBackoff, slot,
                [&](std::size_t k) { t.try_start(k, slot); });

    // Phase B: airtime, channel synthesis, interference, energy. The
    // fleet modes skip per-slot synthesis: the analytic path tracks the
    // interference window instead, and kHybrid only indexes the slot
    // for the windows its contested frames will re-synthesize.
    if (!t.active.empty()) {
      ++t.res.busy_slots;
    } else if (t.n_waiting > 0) {
      ++t.idle_wait_slots;  // dead air while timers / verdict drains run
    }
    if (t.waveform_all) t.synthesize_slot(slot);
    if (t.analytic_on && !t.active.empty()) t.fold_interference(slot);
    if (t.hybrid) t.esc.index_slot(slot, t.active, t.rt, culled_);
    t.energy.on_slot(slot, t.active);

    // Phase C: transmission progress, overlap, aborts, frame ends.
    t.advance_frames(slot);

    // Phase D: verdict waits resolve.
    t.wake.fire(WakeBuckets::kVerdict, slot, [&](std::size_t k) {
      t.resolve_frame(k, slot, /*update_mac=*/true);
      t.rt[k].st = TagRt::St::kBackoff;
      --t.n_waiting;
      t.redraw_wait(k, slot);
    });
  }
  t.finish();

  if (stages) {
    // Pure measurement: the verdict/escalation shares were accumulated
    // at their dispatch sites; the slot-loop share is the remainder.
    const auto t_end = Clock::now();
    stages->setup_s += std::chrono::duration<double>(t_loop - t_entry).count();
    stages->slot_loop_s +=
        std::chrono::duration<double>(t_end - t_loop).count() - t.verdict_s;
    stages->verdict_s += t.verdict_s - t.escalate_s;
    stages->escalate_s += t.escalate_s;
  }
  return std::move(t.res);
}

NetworkSimSummary NetworkSimulator::run(std::size_t n) const {
  NetworkSimSummary summary;
  for (std::size_t t = 0; t < n; ++t) summary.add(run_trial(t));
  return summary;
}

}  // namespace fdb::sim
