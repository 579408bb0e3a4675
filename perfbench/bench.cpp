// fdb_perfbench — the simulator's benchmark. One binary, four named
// workloads, each driven from outside through libfdb's public API:
//
//   link-ber            LinkSimulator over e2's BER-vs-distance sweep
//                       (8 separations x feedback on/off): the paper's
//                       own figure, the DSP chain in link shape.
//   fleet-waveform-1k   warehouse-10k at 1,000 tags, kWaveform with
//                       record_frames: every gateway-slot synthesized;
//                       the ground-truth mode.
//   fleet-hybrid-10k    warehouse-10k at 10,000 tags, kHybrid, 24-slot
//                       trials: escalation cache + windowed
//                       re-synthesis dominate.
//   fleet-analytic-10k  warehouse-10k at 10,000 tags, kAnalytic,
//                       2,048-slot trials: slot engine, MAC, SoA fold,
//                       culling — no synthesis at all.
//
//   fdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Every pass runs the same fixed trial set, so a pass's summary is a
// pure function of (workload, seed): passes must agree bit for bit with
// each other and at any job count. --trace 0 reports the end-to-end
// metrics (medians over repeated passes; serial passes run as one
// concurrent copy per CPU, see run()); --trace 1 reports the
// per-layer rows (stage accumulator, exact counters, layer kernels
// timed on the workload's own shapes, jobs 1/2/4 scaling). The last
// stdout line is one JSON object; the process exits 1 if any trial
// threw or failed a check.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "channel/ambient_source.hpp"
#include "channel/backscatter.hpp"
#include "channel/impairments.hpp"
#include "checks.hpp"
#include "core/fd_modem.hpp"
#include "core/feedback.hpp"
#include "dsp/correlator.hpp"
#include "dsp/envelope.hpp"
#include "phy/preamble.hpp"
#include "sim/link_sim.hpp"
#include "sim/network_sim.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"
#include "sim/sweep.hpp"
#include "sim/synthesis.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using fdb::sim::FidelityMode;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (numpy's default), q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// splitmix64: neighbouring --seed values give unrelated trial streams.
std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct WorkloadDef {
  const char* name;
  std::size_t tags;  ///< 0 = the link-ber sweep
  std::size_t slots_per_trial;
  FidelityMode mode;
  bool record_frames;
  std::size_t trials;  ///< trials per pass, a multiple of 4 chunks
};

// Trial lengths are part of each workload's definition: slots/s of the
// analytic engine falls as trials grow, and the hybrid arm's 24-slot
// trials are e13's 10k shape. Trials per pass are whole multiples of
// four runner chunks, so a jobs-4 pass has no straggler round, and at
// least 128, so at least 12 trials lie beyond the serial p90.
constexpr WorkloadDef kWorkloads[] = {
    {"link-ber", 0, 0, FidelityMode::kWaveform, false, 256},
    {"fleet-waveform-1k", 1000, 96, FidelityMode::kWaveform, true, 128},
    {"fleet-hybrid-10k", 10000, 24, FidelityMode::kHybrid, false, 128},
    {"fleet-analytic-10k", 10000, 2048, FidelityMode::kAnalytic, false, 256},
};

/// Keeps timed work observable so the optimizer cannot drop it. Per
/// thread: concurrent serial copies each write their own.
thread_local volatile float g_sink = 0.0f;

/// Exact counters of a pass: simulated statistics and structural
/// counts, a pure function of (workload, seed). Every row appears on
/// every workload's traced run; rows a workload has no layer for read 0.
enum Counter : std::size_t {
  kSlots, kBusySlots, kFramesAttempted, kFramesDelivered, kCollisions,
  kFramesAborted, kSyncFailures, kEnergyOutages, kFramesAnalytic,
  kFramesEscalated, kEscalationRate, kFramesCulled, kCulledTags,
  kGatewaySlots, kSlotFraction, kLinkFrames, kLinkDataBitErrors,
  kLinkFeedbackBitErrors, kNumCounters
};

struct CounterRow {
  const char* name;
  const char* unit;
};

constexpr CounterRow kCounterRows[kNumCounters] = {
    {"network_sim.slots", "count"},
    {"network_sim.busy_slots", "count"},
    {"network_sim.frames_attempted", "count"},
    {"network_sim.frames_delivered", "count"},
    {"mac.collisions", "count"},
    {"mac.frames_aborted", "count"},
    {"phy.sync_failures", "count"},
    {"energy.outages", "count"},
    {"fleet.frames_analytic", "count"},
    {"fleet.frames_escalated", "count"},
    {"fleet.escalation_rate", "ratio"},
    {"fleet.frames_culled", "count"},
    {"fleet.culled_tags", "count"},
    {"synthesis.gateway_slots", "count"},
    {"synthesis.slot_fraction", "ratio"},
    {"link.frames", "count"},
    {"link.data_bit_errors", "count"},
    {"link.feedback_bit_errors", "count"},
};

using Counters = std::array<double, kNumCounters>;

/// One pass over the workload's fixed trial set.
struct PassResult {
  double seconds = 0.0;
  std::uint64_t digest = 0;
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;
  double slots = 0.0;   ///< simulated slots
  double frames = 0.0;  ///< simulated frames attempted
  std::string first_error;
  Counters counters{};
  double verdict_error_rate = 0.0;
  bool dsp_work = false;  ///< any sample-level synthesis ran
  /// Mean tags reflecting in a busy slot: frame air time over busy
  /// slots (aborted frames end early, so this is an upper estimate).
  double entities_per_busy_slot = 0.0;
};

/// Collects the first failure message of a pass across worker threads.
class ErrorNote {
 public:
  void note(const std::string& msg) {
    const std::lock_guard<std::mutex> lock(mu_);
    if (first_.empty()) first_ = msg;
  }
  std::string take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return first_;
  }

 private:
  std::mutex mu_;
  std::string first_;
};

/// The layer shapes the kernel timings use.
struct KernelShape {
  bool dsp_work = false;            ///< does the workload run the DSP chain
  bool link = false;                ///< link-shaped (two-device) chain
  std::size_t slot_samples = 0;     ///< one slot = one feedback bit
  double entities_per_busy_slot = 0.0;
  fdb::core::FdModemConfig modem;
  std::size_t payload_bytes = 16;
  double envelope_cutoff_mult = 4.0;
};

class Bench {
 public:
  virtual ~Bench() = default;
  Bench() = default;
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  /// Builds inputs and simulator(s) from scratch; returns
  /// {input build seconds, simulator construction seconds}.
  virtual std::pair<double, double> setup() = 0;
  /// Runs trial `i` of the trial set (modulo its size) untimed on the
  /// calling thread: warms the thread's arena before it is timed, and
  /// keeps a core busy while other copies finish.
  virtual void run_untimed(std::size_t i) const = 0;
  /// Runs the fixed trial set on `jobs` workers. `trial_s` (serial
  /// only) receives each run_trial call's host time. Untraced passes
  /// touch no member state, so several may run concurrently; `traced`
  /// routes trials through the caller-arena overload with the stage
  /// accumulator (serial, one caller).
  virtual PassResult pass(std::size_t jobs, std::vector<double>* trial_s,
                          bool traced) = 0;
  /// Kernel shapes, given a serial pass of this workload.
  virtual KernelShape shape(const PassResult& serial) const = 0;
  /// Stage times (ms per trial) and arena size of the last traced pass.
  virtual std::array<double, 4> stage_ms_per_trial() const = 0;
  virtual double arena_mb() const = 0;
};

// ---------------------------------------------------------------------
// link-ber

class LinkBench final : public Bench {
 public:
  static constexpr std::size_t kPoints = 16;  // 8 separations x fb on/off
  static constexpr std::size_t kFramesPerPoint = 16;
  static_assert(kFramesPerPoint == fdb::sim::ExperimentRunner::kTrialsPerChunk,
                "one runner chunk per sweep point");
  static constexpr std::size_t kPayloadBytes = 16;

  explicit LinkBench(std::uint64_t seed) : seed_(seed) {}

  std::pair<double, double> setup() override {
    sims_.clear();
    const auto t0 = Clock::now();
    std::vector<fdb::sim::LinkSimConfig> configs;
    for (const double d : fdb::sim::linspace(0.5, 4.0, 8)) {
      for (const bool feedback : {true, false}) {
        fdb::sim::LinkSimConfig c;
        c.modem = fdb::core::FdModemConfig::make(4, 6);
        c.carrier = "cw";
        c.fading = "static";
        c.noise_power_override_w = 1e-9;
        c.a_to_b_m = d;
        c.feedback_active = feedback;
        c.seed = seed_;
        configs.push_back(c);
      }
    }
    const double build_s = seconds_since(t0);
    const auto t1 = Clock::now();
    sims_.reserve(configs.size());
    for (const auto& c : configs) {
      sims_.emplace_back(c);
      sims_.back().set_payload_bytes(kPayloadBytes);
    }
    return {build_s, seconds_since(t1)};
  }

  void run_untimed(std::size_t i) const override {
    const std::size_t t = i % (kPoints * kFramesPerPoint);
    g_sink = static_cast<float>(
        sims_[t / kFramesPerPoint].run_trial(t % kFramesPerPoint).data_bits);
  }

  PassResult pass(std::size_t jobs, std::vector<double>* trial_s,
                  bool traced) override {
    struct Acc {
      std::array<fdb::sim::LinkSimSummary, kPoints> points;
      std::uint64_t failed = 0;
      void merge(const Acc& o) {
        for (std::size_t p = 0; p < kPoints; ++p) points[p].merge(o.points[p]);
        failed += o.failed;
      }
    };
    const std::size_t trials = kPoints * kFramesPerPoint;
    if (trial_s) trial_s->assign(trials, 0.0);
    if (traced) {
      g_sink = static_cast<float>(sims_[0].run_trial(0, arena_).data_bits);
    }
    ErrorNote err;
    const fdb::sim::ExperimentRunner runner(jobs);
    const auto t0 = Clock::now();
    const Acc acc = runner.run_chunked<Acc>(
        trials, [&](Acc& a, std::size_t t) {
          const std::size_t p = t / kFramesPerPoint;
          const std::size_t frame = t % kFramesPerPoint;
          const auto s0 = Clock::now();
          fdb::sim::TrialResult r;
          try {
            r = traced ? sims_[p].run_trial(frame, arena_)
                       : sims_[p].run_trial(frame);
          } catch (const std::exception& e) {
            ++a.failed;
            err.note(std::string("trial threw: ") + e.what());
            return;
          }
          if (trial_s) (*trial_s)[t] = seconds_since(s0);
          const auto bad = perfbench::check_link_trial(r);
          if (!bad.empty()) {
            ++a.failed;
            err.note(bad.front());
          }
          a.points[p].add(r);
        });
    PassResult out;
    out.seconds = seconds_since(t0);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto& s : acc.points) {
      h = (h ^ perfbench::digest(s)) * 0x100000001b3ULL;
    }
    out.digest = h;
    out.trials = trials;
    out.failed = acc.failed;
    out.frames = static_cast<double>(trials);
    out.slots = out.frames * static_cast<double>(frame_slots());
    out.first_error = err.take();
    std::uint64_t frames = 0, data_err = 0, fb_err = 0, sync_fail = 0;
    for (const auto& s : acc.points) {
      frames += s.trials;
      data_err += s.data.errors();
      fb_err += s.feedback.errors();
      sync_fail += s.sync_failures;
    }
    out.counters[kLinkFrames] = static_cast<double>(frames);
    out.counters[kLinkDataBitErrors] = static_cast<double>(data_err);
    out.counters[kLinkFeedbackBitErrors] = static_cast<double>(fb_err);
    out.counters[kSyncFailures] = static_cast<double>(sync_fail);
    return out;
  }

  KernelShape shape(const PassResult&) const override {
    KernelShape k;
    k.dsp_work = true;
    k.link = true;
    k.modem = sims_.front().config().modem;
    k.slot_samples = k.modem.data.rates.samples_per_feedback_bit();
    k.payload_bytes = kPayloadBytes;
    k.envelope_cutoff_mult = sims_.front().config().envelope_cutoff_mult;
    return k;
  }

  std::array<double, 4> stage_ms_per_trial() const override { return {}; }
  double arena_mb() const override {
    return static_cast<double>(arena_.capacity_bytes()) / 1e6;
  }

 private:
  /// Air time of one link frame in protocol slots (one slot = one
  /// feedback bit, the network simulator's slot unit).
  std::size_t frame_slots() const {
    const auto& modem = sims_.front().config().modem;
    const std::size_t slot = modem.data.rates.samples_per_feedback_bit();
    const fdb::core::FdDataTransmitter tx(modem);
    return (tx.burst_samples(kPayloadBytes) + slot - 1) / slot;
  }

  std::uint64_t seed_;
  std::vector<fdb::sim::LinkSimulator> sims_;
  fdb::sim::SynthArena arena_;
};

// ---------------------------------------------------------------------
// fleet workloads

class FleetBench final : public Bench {
 public:
  FleetBench(const WorkloadDef& def, std::uint64_t seed)
      : def_(def), seed_(seed) {}

  std::pair<double, double> setup() override {
    sim_.reset();
    const auto t0 = Clock::now();
    auto scenario =
        fdb::sim::make_scenario("warehouse-10k", def_.tags, seed_);
    scenario.config.slots_per_trial = def_.slots_per_trial;
    scenario.config.fleet.fidelity = def_.mode;
    scenario.config.fleet.record_frames = def_.record_frames;
    const double build_s = seconds_since(t0);
    const auto t1 = Clock::now();
    sim_ = std::make_unique<fdb::sim::NetworkSimulator>(
        std::move(scenario.config));
    return {build_s, seconds_since(t1)};
  }

  void run_untimed(std::size_t i) const override {
    g_sink = static_cast<float>(sim_->run_trial(i % def_.trials).slots);
  }

  PassResult pass(std::size_t jobs, std::vector<double>* trial_s,
                  bool traced) override {
    struct Acc {
      fdb::sim::NetworkSimSummary summary;
      std::uint64_t failed = 0;
      std::uint64_t recorded = 0;
      std::uint64_t contradicted = 0;
      void merge(const Acc& o) {
        summary.merge(o.summary);
        failed += o.failed;
        recorded += o.recorded;
        contradicted += o.contradicted;
      }
    };
    if (traced) {
      // The arena and stage accumulator are single-caller state.
      jobs = 1;
      g_sink = static_cast<float>(sim_->run_trial(0, arena_).slots);
      stages_ = {};
    }
    if (trial_s) trial_s->assign(def_.trials, 0.0);
    ErrorNote err;
    const fdb::sim::ExperimentRunner runner(jobs);
    const auto t0 = Clock::now();
    const Acc acc = runner.run_chunked<Acc>(
        def_.trials, [&](Acc& a, std::size_t i) {
          const auto s0 = Clock::now();
          fdb::sim::NetworkTrialResult r;
          try {
            r = traced ? sim_->run_trial(i, arena_, &stages_)
                       : sim_->run_trial(i);
          } catch (const std::exception& e) {
            ++a.failed;
            err.note(std::string("trial threw: ") + e.what());
            return;
          }
          if (trial_s) (*trial_s)[i] = seconds_since(s0);
          const auto bad = perfbench::check_trial(r, sim_->config());
          if (!bad.empty()) {
            ++a.failed;
            err.note("trial " + std::to_string(i) + ": " + bad.front());
          }
          a.recorded += r.frames.size();
          a.contradicted += perfbench::contradicted_verdicts(r);
          a.summary.add(r);
        });
    PassResult out;
    out.seconds = seconds_since(t0);
    out.digest = perfbench::digest(acc.summary) ^
                 mix_seed(acc.recorded) ^ mix_seed(~acc.contradicted);
    out.trials = def_.trials;
    out.failed = acc.failed;
    out.slots = static_cast<double>(acc.summary.slots);
    out.frames = static_cast<double>(acc.summary.frames_attempted());
    out.first_error = err.take();

    const auto& s = acc.summary;
    std::uint64_t aborted = 0;
    for (const auto& t : s.tags) aborted += t.frames_aborted;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto& c = out.counters;
    c[kSlots] = d(s.slots);
    c[kBusySlots] = d(s.busy_slots);
    c[kFramesAttempted] = d(s.frames_attempted());
    c[kFramesDelivered] = d(s.frames_delivered());
    c[kCollisions] = d(s.collisions);
    c[kFramesAborted] = d(aborted);
    c[kSyncFailures] = d(s.sync_failures);
    c[kEnergyOutages] = d(s.energy_outages());
    c[kFramesAnalytic] = d(s.frames_resolved_analytic);
    c[kFramesEscalated] = d(s.frames_escalated);
    c[kEscalationRate] = s.escalation_rate();
    c[kFramesCulled] = d(s.frames_culled);
    c[kCulledTags] = d(sim_->num_culled());
    c[kGatewaySlots] = d(s.gateway_slots_synthesized);
    c[kSlotFraction] = s.synthesized_slot_fraction();
    out.verdict_error_rate =
        acc.recorded ? d(acc.contradicted) / d(acc.recorded) : 0.0;
    out.dsp_work = s.gateway_slots_synthesized > 0;
    out.entities_per_busy_slot =
        s.busy_slots ? d(s.frames_attempted() * sim_->frame_slots()) /
                           d(s.busy_slots)
                     : 0.0;
    return out;
  }

  KernelShape shape(const PassResult& serial) const override {
    KernelShape k;
    k.dsp_work = serial.dsp_work;
    k.modem = sim_->config().modem;
    k.slot_samples = sim_->slot_samples();
    k.entities_per_busy_slot = serial.entities_per_busy_slot;
    k.payload_bytes = sim_->config().payload_bytes;
    k.envelope_cutoff_mult = sim_->config().envelope_cutoff_mult;
    return k;
  }

  std::array<double, 4> stage_ms_per_trial() const override {
    const double per = 1e3 / static_cast<double>(def_.trials);
    return {stages_.setup_s * per, stages_.slot_loop_s * per,
            stages_.verdict_s * per, stages_.escalate_s * per};
  }
  double arena_mb() const override {
    return static_cast<double>(arena_.capacity_bytes()) / 1e6;
  }

 private:
  WorkloadDef def_;
  std::uint64_t seed_;
  std::unique_ptr<fdb::sim::NetworkSimulator> sim_;
  fdb::sim::SynthArena arena_;
  fdb::sim::TrialStageTimes stages_;
};

// ---------------------------------------------------------------------
// layer kernels, timed on the workload's own shapes

/// Median seconds per call over five batches of >= 20 ms each.
template <typename Fn>
double time_per_call(Fn&& fn) {
  fn();
  std::size_t calls = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    if (seconds_since(t0) >= 0.02) break;
    calls *= 2;
  }
  std::vector<double> per_call;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_since(t0) / static_cast<double>(calls));
  }
  return median(per_call);
}

struct KernelTimes {
  double slot_gateway_ns = 0.0;
  double link_ns = 0.0;
  double awgn_ns = 0.0;
  double envelope_ns = 0.0;
  double correlator_ns = 0.0;
  double demod_us = 0.0;
  double feedback_decode_us = 0.0;
};

KernelTimes time_kernels(const KernelShape& k, std::uint64_t seed) {
  KernelTimes out;
  if (!k.dsp_work) return out;
  const auto& rates = k.modem.data.rates;
  fdb::Rng rng(seed);

  // A link-shaped frame exchange: the data frame (plus one slot of
  // capture tail, as LinkSimulator captures it) and, for the link
  // workload, concurrent feedback from the receiver.
  const fdb::core::FdDataTransmitter tx(k.modem);
  std::vector<std::uint8_t> payload(k.payload_bytes);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  auto states_a = tx.modulate(payload);
  states_a.insert(states_a.end(), rates.samples_per_feedback_bit(), 0);
  const std::size_t total = states_a.size();
  const std::size_t data_start = tx.preamble_samples();
  const std::size_t fb_bits_n =
      std::max<std::size_t>(1, (total - data_start) / k.slot_samples);
  std::vector<std::uint8_t> fb_bits(fb_bits_n);
  for (auto& b : fb_bits) b = rng.chance(0.5) ? 1 : 0;
  std::vector<std::uint8_t> states_b(total, 0);
  if (k.link) {
    const fdb::core::FeedbackEncoder enc(rates, k.modem.feedback);
    const auto fb = enc.encode(fb_bits);
    std::copy_n(fb.begin(), std::min(fb.size(), total - data_start),
                states_b.begin() + data_start);
  }
  std::vector<fdb::cf32> ambient(total);
  fdb::channel::make_ambient_source("cw", rng())->generate(ambient);

  const fdb::sim::WaveformSynthesizer synth(rates, k.envelope_cutoff_mult);
  const fdb::channel::BackscatterModulator modulator(
      fdb::channel::ReflectionStates::ook(0.4));
  const double noise_w = 1e-9;
  fdb::channel::AwgnChannel noise_a(noise_w, rng.fork());
  fdb::channel::AwgnChannel noise_b(noise_w, rng.fork());
  fdb::sim::LinkSynthSpec spec;
  spec.ambient = ambient;
  spec.states_a = states_a;
  spec.states_b = states_b;
  spec.modulator = &modulator;
  spec.h_sa = fdb::cf32(0.02f, 0.0f);
  spec.h_sb = fdb::cf32(0.02f, 0.0f);
  spec.h_ab = fdb::cf32(0.05f, 0.01f);
  spec.self_coupling = 0.3f;
  spec.noise_a = &noise_a;
  spec.noise_b = &noise_b;
  fdb::sim::SynthArena arena;
  const auto link_streams = [&] {
    arena.reset();
    return synth.synthesize_link(spec, arena);
  };
  if (k.link) {
    out.link_ns = time_per_call([&] {
                    g_sink = link_streams().envelope_b[0];
                  }) * 1e9 / static_cast<double>(total);
  }
  const auto streams = link_streams();
  const std::vector<float> env_a(streams.envelope_a.begin(),
                                 streams.envelope_a.end());
  const std::vector<float> env_b(streams.envelope_b.begin(),
                                 streams.envelope_b.end());

  // Per-slot kernels run on one slot in the fleet, on the whole frame
  // capture in the link.
  const std::size_t n = k.link ? total : k.slot_samples;
  std::vector<fdb::cf32> field(n);
  for (auto& x : field) {
    x = fdb::cf32(static_cast<float>(rng.normal()),
                  static_cast<float>(rng.normal()));
  }
  std::vector<fdb::cf32> noisy(n);
  fdb::channel::AwgnChannel awgn(noise_w, rng.fork());
  out.awgn_ns = time_per_call([&] {
                  awgn.process(field, noisy);
                  g_sink = noisy[0].real();
                }) * 1e9 / static_cast<double>(n);
  std::vector<float> env(n);
  auto detector = synth.make_envelope();
  out.envelope_ns = time_per_call([&] {
                      detector.process(noisy, env);
                      g_sink = env[0];
                    }) * 1e9 / static_cast<double>(n);

  if (!k.link) {
    const auto entities = static_cast<std::size_t>(
        std::max(1.0, std::round(k.entities_per_busy_slot)));
    std::vector<std::vector<std::uint8_t>> masks(
        entities, std::vector<std::uint8_t>(n));
    std::vector<const std::uint8_t*> mask_ptrs;
    std::vector<fdb::cf32> c_on, c_off;
    for (auto& m : masks) {
      for (auto& b : m) b = rng.chance(0.5) ? 1 : 0;
      mask_ptrs.push_back(m.data());
      c_on.emplace_back(static_cast<float>(rng.normal()), 0.1f);
      c_off.emplace_back(0.1f, static_cast<float>(rng.normal()));
    }
    std::vector<fdb::cf32> coeff(n), slot_out(n);
    out.slot_gateway_ns =
        time_per_call([&] {
          fdb::sim::WaveformSynthesizer::synthesize_slot_gateway(
              std::span<const fdb::cf32>(ambient.data(), n),
              fdb::cf32(0.3f, 0.0f), mask_ptrs, c_on, c_off, coeff,
              slot_out);
          g_sink = slot_out[0].real();
        }) * 1e9 / static_cast<double>(n);
  }

  // Sync search over the whole frame capture, shaped as the data
  // receiver shapes it (stride-decimated for long chips).
  const std::size_t spc = rates.samples_per_chip;
  std::size_t stride = 1;
  if (spc >= 16) {
    for (std::size_t s = spc / 8; s >= 2; --s) {
      if (spc % s == 0) {
        stride = s;
        break;
      }
    }
  }
  const auto pattern = fdb::phy::chips_to_pattern(
      fdb::phy::default_preamble_chips());
  const std::size_t corr_n = total / stride;
  std::vector<float> corr_in(corr_n), corr_out(corr_n);
  for (std::size_t j = 0; j < corr_n; ++j) corr_in[j] = env_b[j * stride];
  out.correlator_ns = time_per_call([&] {
                        fdb::dsp::SlidingCorrelator corr(pattern,
                                                         spc / stride);
                        corr.process(corr_in, corr_out);
                        g_sink = corr_out.back();
                      }) * 1e9 / static_cast<double>(corr_n);

  const fdb::core::FdDataReceiver rx(k.modem);
  const std::span<const std::uint8_t> own_b =
      k.link ? std::span<const std::uint8_t>(states_b)
             : std::span<const std::uint8_t>{};
  out.demod_us = time_per_call([&] {
                   const auto r = rx.demodulate(env_b, own_b, k.payload_bytes);
                   g_sink = static_cast<float>(r.diag.sync_sample);
                 }) * 1e6;
  if (k.link) {
    const fdb::core::FdFeedbackReceiver fb_rx(k.modem);
    out.feedback_decode_us =
        time_per_call([&] {
          const auto r = fb_rx.decode(env_a, states_a, data_start, fb_bits_n);
          g_sink = static_cast<float>(r.bits.size());
        }) * 1e6;
  }
  return out;
}

/// Scaling ratios (jobs 2, jobs 4) of a CPU-bound loop with no shared
/// data: the parallelism this host actually offers.
std::pair<double, double> calibrate_ceiling() {
  constexpr std::size_t kItems = 48;
  const auto item = [](std::size_t i) {
    std::uint64_t x = i + 1;
    double acc = 0.0;
    for (int k = 0; k < 1'000'000; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      acc += static_cast<double>(x >> 11) * 0x1p-53;
    }
    return acc;
  };
  std::array<double, 3> t{};
  const std::array<std::size_t, 3> jobs = {1, 2, 4};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const fdb::sim::ExperimentRunner runner(jobs[j]);
      const auto t0 = Clock::now();
      const auto v = runner.map(kItems, item);
      reps.push_back(seconds_since(t0));
      g_sink = static_cast<float>(v.back());
    }
    t[j] = median(reps);
  }
  return {t[0] / t[1], t[0] / t[2]};
}

// ---------------------------------------------------------------------
// command line and run loop

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        a.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") return std::nullopt;
        a.trace = val == "1";
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || !have_workload || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  /// Deterministic per (workload, seed): compared exactly, not timed.
  bool exact = false;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;

  /// Folds a pass in; a pass whose digest differs from the reference
  /// (the first serial pass) fails as a whole.
  void add(const PassResult& p, std::uint64_t reference, const char* what) {
    attempted += p.trials;
    failed += p.failed;
    if (first_error.empty() && !p.first_error.empty()) {
      first_error = p.first_error;
    }
    if (p.digest != reference) {
      failed += p.trials - p.failed;
      if (first_error.empty()) {
        first_error = std::string(what) +
                      " summary differs from the serial pass";
      }
    }
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int run(const Args& args, const WorkloadDef& def) {
  const std::uint64_t seed = mix_seed(args.seed);
  std::unique_ptr<Bench> bench;
  if (def.tags == 0) {
    bench = std::make_unique<LinkBench>(seed);
  } else {
    bench = std::make_unique<FleetBench>(def, seed);
  }
  const auto run_start = Clock::now();
  const double budget = args.seconds;
  std::vector<Metric> metrics;
  Tally tally;

  // Set-up: inputs + simulator construction up to the point where
  // trial 0 can run. One sample is the mean over a batch of set-ups
  // lasting >= 10 ms, so a 2 us set-up is timed over thousands of
  // repeats; setup_s is the median sample.
  std::vector<double> build_s, ctor_s, setup_s;
  double setup_spent = 0.0;
  const auto setup_batch = [&] {
    double build = 0.0, ctor = 0.0;
    std::size_t n = 0;
    const auto t0 = Clock::now();
    do {
      const auto [b, c] = bench->setup();
      build += b;
      ctor += c;
      ++n;
    } while (seconds_since(t0) < 0.01);
    setup_spent += seconds_since(t0);
    const auto per = static_cast<double>(n);
    build_s.push_back(build / per);
    ctor_s.push_back(ctor / per);
    setup_s.push_back((build + ctor) / per);
  };
  do {
    setup_batch();
  } while (args.trace && setup_spent < 0.1 * budget);

  // The first pass fixes the digest every later pass must reproduce:
  // passes are pure functions of (workload, seed).
  std::optional<std::uint64_t> reference;
  const auto account = [&](const PassResult& p, const char* what) {
    if (!reference) reference = p.digest;
    tally.add(p, *reference, what);
  };
  const auto slots_per_s = [](const PassResult& p) {
    return p.slots / p.seconds;
  };
  const auto frames_per_s = [](const PassResult& p) {
    return p.frames / p.seconds;
  };
  bench->run_untimed(0);

  if (!args.trace) {
    // Serial passes run as one independent copy per CPU (up to 4), each
    // a single thread walking the trial set in order: the host slows its
    // cores one by one, and with every core busy a round reads all of
    // them where a lone thread reads only its own. The copies start
    // their timed passes together and keep running untimed trials until
    // the last one finishes, so no copy's timed window ever has an idle
    // core beside it.
    const std::size_t copies = std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    // Per trial of the set: host seconds summed over every serial run of
    // it (all copies, all rounds), and how many runs that is.
    std::vector<double> trial_s_sum;
    double trial_runs = 0.0;
    std::vector<double> slots_ps, frames_ps;
    std::vector<double> slots_ps4, frames_ps4;
    PassResult serial;
    double rss_mb = 0.0;
    const auto serial_round = [&] {
      std::vector<PassResult> round(copies);
      std::vector<std::vector<double>> trial_s(copies);
      std::vector<std::exception_ptr> errors(copies);
      std::atomic<std::size_t> ready{0}, done{0};
      std::vector<std::thread> threads;
      const auto copy = [&](std::size_t k) {
        try {
          bench->run_untimed(0);
        } catch (...) {
          errors[k] = std::current_exception();
        }
        ready.fetch_add(1);
        while (ready.load() < copies) std::this_thread::yield();
        if (!errors[k]) {
          try {
            round[k] = bench->pass(1, &trial_s[k], false);
          } catch (...) {
            errors[k] = std::current_exception();
          }
        }
        done.fetch_add(1);
        try {
          for (std::size_t i = 1; done.load() < copies; ++i) {
            bench->run_untimed(i);
          }
        } catch (...) {
          if (!errors[k]) errors[k] = std::current_exception();
        }
      };
      try {
        for (std::size_t k = 0; k < copies; ++k) threads.emplace_back(copy, k);
      } catch (...) {
        // A thread failed to start: release the barrier and the fillers
        // so the started copies finish, and join them before unwinding.
        ready.fetch_add(copies);
        done.fetch_add(copies);
        for (auto& t : threads) t.join();
        throw;
      }
      for (auto& t : threads) t.join();
      for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
      }
      // One sample per round: the copies' total work over their total
      // wall time, so each sample spans every core the copies ran on.
      PassResult total;
      for (std::size_t k = 0; k < copies; ++k) {
        account(round[k], "serial");
        total.slots += round[k].slots;
        total.frames += round[k].frames;
        total.seconds += round[k].seconds;
        trial_s_sum.resize(trial_s[k].size(), 0.0);
        for (std::size_t t = 0; t < trial_s[k].size(); ++t) {
          trial_s_sum[t] += trial_s[k][t];
        }
        trial_runs += 1.0;
      }
      slots_ps.push_back(slots_per_s(total));
      frames_ps.push_back(frames_per_s(total));
      serial = round[0];
    };

    // The phases interleave over the whole run, so every metric samples
    // all of it: each round is one serial round (4 copies), then jobs-4
    // passes until they have had 0.7x the serial time, each followed by
    // set-up batches until those have had 0.2x (about 50% / 35% / 10%
    // of the run). The host's speed drifts over seconds; a metric
    // measured in one block of the run would read only part of that
    // drift. A step starts only if it should end before 95% of the run;
    // the first serial round and the first jobs-4 pass always run.
    const auto fits = [&](double step_s) {
      return seconds_since(run_start) + step_s <= 0.95 * budget;
    };
    double serial_spent = 0.0, j4_spent = 0.0, serial_s = 0.0, j4_s = 0.0;
    do {
      const auto round_start = Clock::now();
      serial_round();
      serial_s = seconds_since(round_start);
      serial_spent += serial_s;
      if (slots_ps.size() == 1) {
        // Peak memory of set-up plus four concurrent trial streams, read
        // before any jobs-4 pass: their per-pass worker threads churn
        // thread-local arenas through the allocator, which at random
        // adds up to ~14 MB of high-water that no simulator change
        // caused.
        rss_mb = peak_rss_mb();
      }
      while (j4_spent < 0.7 * serial_spent &&
             (slots_ps4.empty() || fits(j4_s))) {
        const auto t0 = Clock::now();
        const PassResult p = bench->pass(4, nullptr, false);
        j4_s = seconds_since(t0);
        j4_spent += j4_s;
        account(p, "jobs-4");
        slots_ps4.push_back(slots_per_s(p));
        frames_ps4.push_back(frames_per_s(p));
        while (setup_spent < 0.2 / 0.7 * j4_spent && fits(0.01)) {
          setup_batch();
        }
      }
    } while (fits(serial_s));

    // Percentiles over the trial set of each trial's mean host time: a
    // trial's runs land on different cores at different moments, and the
    // mean averages out which of them the host slowed.
    std::vector<double> trial_ms(trial_s_sum.size());
    for (std::size_t t = 0; t < trial_ms.size(); ++t) {
      trial_ms[t] = trial_s_sum[t] / trial_runs * 1e3;
    }

    metrics = {
        {"slots_per_s", median(slots_ps), "1/s"},
        {"slots_per_s_j4", median(slots_ps4), "1/s"},
        {"frames_per_s", median(frames_ps), "1/s"},
        {"frames_per_s_j4", median(frames_ps4), "1/s"},
        {"trial_ms_p50", percentile(trial_ms, 0.5), "ms"},
        {"trial_ms_p90", percentile(trial_ms, 0.9), "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    std::printf("# %s: %zu serial rounds of %zu concurrent copies +"
                " %zu jobs-4 passes of %llu trials, %zu set-up batches\n",
                def.name, slots_ps.size(), copies, slots_ps4.size(),
                static_cast<unsigned long long>(serial.trials),
                setup_s.size());
    std::printf("# verdict_error_rate = %.6g\n", serial.verdict_error_rate);
  } else {
    // Scaling runs against a lone serial pass: the classic jobs-N
    // speedup, set beside the calibrated ceiling of the same host.
    const PassResult p1 = bench->pass(1, nullptr, false);
    account(p1, "serial");
    const PassResult pt = bench->pass(1, nullptr, true);
    account(pt, "traced");
    const PassResult p2 = bench->pass(2, nullptr, false);
    account(p2, "jobs-2");
    const PassResult p4 = bench->pass(4, nullptr, false);
    account(p4, "jobs-4");

    const KernelShape shape = bench->shape(p1);
    const KernelTimes kt = time_kernels(shape, seed);
    const auto [ceil2, ceil4] = calibrate_ceiling();
    const auto stages = bench->stage_ms_per_trial();
    const bool link = shape.link;

    metrics = {
        {"scenarios.build_ms", median(build_s) * 1e3, "ms"},
        {"network_sim.ctor_ms", link ? 0.0 : median(ctor_s) * 1e3, "ms"},
        {"link_sim.ctor_ms", link ? median(ctor_s) * 1e3 : 0.0, "ms"},
        {"network_sim.trial_setup_ms", stages[0], "ms"},
        {"network_sim.slot_loop_ms", stages[1], "ms"},
        {"network_sim.verdict_ms", stages[2], "ms"},
        {"network_sim.escalate_ms", stages[3], "ms"},
    };
    for (std::size_t k = 0; k < kNumCounters; ++k) {
      metrics.push_back(
          {kCounterRows[k].name, p1.counters[k], kCounterRows[k].unit, true});
    }
    metrics.insert(
        metrics.end(),
        {
            {"verdict_error_rate", p1.verdict_error_rate, "ratio", true},
            {"synthesis.slot_gateway_ns_per_sample", kt.slot_gateway_ns,
             "ns"},
            {"synthesis.link_ns_per_sample", kt.link_ns, "ns"},
            {"synthesis.arena_mb", bench->arena_mb(), "MB"},
            {"channel.awgn_ns_per_sample", kt.awgn_ns, "ns"},
            {"dsp.envelope_ns_per_sample", kt.envelope_ns, "ns"},
            {"dsp.correlator_ns_per_sample", kt.correlator_ns, "ns"},
            {"core.demod_us_per_call", kt.demod_us, "us"},
            {"core.feedback_decode_us_per_call", kt.feedback_decode_us,
             "us"},
            {"runner.chunks",
             static_cast<double>(
                 (p1.trials + fdb::sim::ExperimentRunner::kTrialsPerChunk -
                  1) /
                 fdb::sim::ExperimentRunner::kTrialsPerChunk),
             "count", true},
            {"runner.scaling_j2", p1.seconds / p2.seconds, "ratio"},
            {"runner.scaling_j4", p1.seconds / p4.seconds, "ratio"},
            {"runner.ceiling_j2", ceil2, "ratio"},
            {"runner.ceiling_j4", ceil4, "ratio"},
            {"trace.overhead", p1.seconds / pt.seconds, "ratio"},
        });
  }

  const double failed_frac =
      tally.attempted ? static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted)
                      : 1.0;
  if (args.trace) {
    metrics.push_back({"failed_frac", failed_frac, "ratio", true});
  }
  std::printf("# failed_frac = %.6g (%llu of %llu trials)\n", failed_frac,
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  if (!tally.first_error.empty()) {
    std::printf("# first failure: %s\n", tally.first_error.c_str());
  }
  bool finite = true;
  for (const auto& m : metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    finite = finite && std::isfinite(m.value);
  }
  const bool correct = tally.failed == 0 && finite;

  // The rows compare.py must compare exactly, ahead of the result line.
  std::string exact = "{\"exact\": [";
  bool first = true;
  for (const auto& m : metrics) {
    if (!m.exact) continue;
    exact += (first ? "\"" : ", \"") + m.name + "\"";
    first = false;
  }
  if (!first) std::printf("%s]}\n", exact.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S"
                 " --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  for (const auto& def : kWorkloads) {
    if (args->workload == def.name) {
      try {
        return run(*args, def);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", def.name, e.what());
        return 1;
      }
    }
  }
  std::fprintf(stderr, "unknown workload '%s'; known:", args->workload.c_str());
  for (const auto& def : kWorkloads) std::fprintf(stderr, " %s", def.name);
  std::fprintf(stderr, "\n");
  return 2;
}
