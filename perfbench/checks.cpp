#include "checks.hpp"

#include <bit>
#include <string>

namespace perfbench {

namespace {

using fdb::sim::FidelityMode;

std::string fmt(const char* what, std::uint64_t lhs, const char* op,
                std::uint64_t rhs) {
  return std::string(what) + ": " + std::to_string(lhs) + " " + op + " " +
         std::to_string(rhs);
}

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void stats(const fdb::RunningStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
    f64(s.min());
    f64(s.max());
  }
  void rate(const fdb::ErrorRateCounter& c) {
    u64(c.errors());
    u64(c.trials());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::vector<std::string> check_trial(const fdb::sim::NetworkTrialResult& r,
                                     const fdb::sim::NetworkSimConfig& config) {
  std::vector<std::string> bad;
  if (r.slots != config.slots_per_trial) {
    bad.push_back(fmt("slots != slots_per_trial", r.slots, "!=",
                      config.slots_per_trial));
  }
  if (r.busy_slots > r.slots) {
    bad.push_back(fmt("busy_slots > slots", r.busy_slots, ">", r.slots));
  }
  if (r.useful_slots + r.wasted_slots > r.slots) {
    bad.push_back(fmt("useful + wasted > slots",
                      r.useful_slots + r.wasted_slots, ">", r.slots));
  }
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t collided = 0;
  for (std::size_t k = 0; k < r.tags.size(); ++k) {
    const auto& t = r.tags[k];
    if (t.frames_delivered > t.frames_attempted) {
      bad.push_back(fmt(("tag " + std::to_string(k) +
                         " delivered > attempted").c_str(),
                        t.frames_delivered, ">", t.frames_attempted));
    }
    attempted += t.frames_attempted;
    delivered += t.frames_delivered;
    collided += t.frames_collided;
  }
  if (delivered > attempted) {
    bad.push_back(fmt("delivered > attempted", delivered, ">", attempted));
  }
  if (collided != r.collisions) {
    bad.push_back(fmt("sum of per-tag collided != collisions", collided,
                      "!=", r.collisions));
  }
  const FidelityMode mode = config.fleet.fidelity;
  if (mode != FidelityMode::kHybrid && r.frames_escalated != 0) {
    bad.push_back(fmt("frames_escalated outside kHybrid", r.frames_escalated,
                      "!=", 0));
  }
  if (mode == FidelityMode::kAnalytic && r.gateway_slots_synthesized != 0) {
    bad.push_back(fmt("gateway_slots_synthesized in kAnalytic",
                      r.gateway_slots_synthesized, "!=", 0));
  }
  if (mode == FidelityMode::kWaveform &&
      r.gateway_slots_synthesized != r.slots * config.num_gateways()) {
    bad.push_back(fmt("gateway_slots_synthesized != slots x gateways",
                      r.gateway_slots_synthesized, "!=",
                      r.slots * config.num_gateways()));
  }
  return bad;
}

std::vector<std::string> check_link_trial(const fdb::sim::TrialResult& r) {
  std::vector<std::string> bad;
  if (r.data_bit_errors > r.data_bits) {
    bad.push_back(fmt("data bit errors > bits", r.data_bit_errors, ">",
                      r.data_bits));
  }
  if (r.feedback_bit_errors > r.feedback_bits) {
    bad.push_back(fmt("feedback bit errors > bits", r.feedback_bit_errors,
                      ">", r.feedback_bits));
  }
  return bad;
}

std::uint64_t contradicted_verdicts(const fdb::sim::NetworkTrialResult& r) {
  std::uint64_t n = 0;
  for (const auto& f : r.frames) {
    if ((f.analytic == fdb::sim::LinkVerdict::kClearDeliver && !f.delivered) ||
        (f.analytic == fdb::sim::LinkVerdict::kClearFail && f.delivered)) {
      ++n;
    }
  }
  return n;
}

std::uint64_t digest(const fdb::sim::NetworkSimSummary& s) {
  Fnv h;
  h.u64(s.tags.size());
  for (const auto& t : s.tags) {
    h.u64(t.frames_attempted);
    h.u64(t.frames_delivered);
    h.u64(t.frames_collided);
    h.u64(t.frames_aborted);
    h.u64(t.payload_bits_delivered);
    h.u64(t.energy_outages);
    h.f64(t.harvested_j);
    h.f64(t.spent_j);
  }
  h.u64(s.gateway_decodes.size());
  for (const std::uint64_t g : s.gateway_decodes) h.u64(g);
  for (const std::uint64_t v :
       {s.trials, s.slots, s.busy_slots, s.useful_slots, s.wasted_slots,
        s.collisions, s.sync_failures, s.frames_resolved_analytic,
        s.frames_escalated, s.frames_culled, s.gateway_slots_synthesized,
        s.faulted_frames_attempted, s.faulted_frames_delivered,
        s.frames_lost_outage, s.frames_lost_sag, s.frames_lost_interference,
        s.frames_lost_tag_fault, s.failovers, s.relay_tx_frames,
        s.relay_rx_frames, s.relayed_delivered, s.relay_drops}) {
    h.u64(v);
  }
  h.stats(s.detect_latency_slots);
  h.stats(s.escalation_rate_trials);
  h.stats(s.time_to_failover_slots);
  h.stats(s.relay_hops);
  return h.value();
}

std::uint64_t digest(const fdb::sim::LinkSimSummary& s) {
  Fnv h;
  h.rate(s.data);
  h.rate(s.data_aligned);
  h.rate(s.feedback);
  h.u64(s.sync_failures);
  h.u64(s.false_syncs);
  h.u64(s.trials);
  h.stats(s.harvested_per_frame_j);
  return h.value();
}

}  // namespace perfbench
