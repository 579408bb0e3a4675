// Self-test of the benchmark's output checks: real trials must pass,
// and each doctored result must be caught by the identity it breaks.
//
//   cmake --build .bench_build --target perfbench_checks_test
//   .bench_build/perfbench_checks_test      # exit 0 = all cases pass
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "sim/runner.hpp"
#include "sim/scenarios.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

/// True when some violation message starts with `prefix`.
bool flags(const std::vector<std::string>& bad, const std::string& prefix) {
  for (const auto& msg : bad) {
    if (msg.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

fdb::sim::NetworkSimConfig small_fleet(fdb::sim::FidelityMode mode) {
  auto scenario = fdb::sim::make_scenario("warehouse-10k", 200, 11);
  scenario.config.slots_per_trial = 48;
  scenario.config.fleet.fidelity = mode;
  scenario.config.fleet.record_frames =
      mode == fdb::sim::FidelityMode::kWaveform;
  return scenario.config;
}

void test_fleet_checks() {
  using fdb::sim::FidelityMode;
  for (const auto mode : {FidelityMode::kWaveform, FidelityMode::kHybrid,
                          FidelityMode::kAnalytic}) {
    const auto config = small_fleet(mode);
    const fdb::sim::NetworkSimulator sim(config);
    const std::string name = fdb::sim::fidelity_name(mode);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const auto r = sim.run_trial(i);
      const auto bad = perfbench::check_trial(r, config);
      expect(bad.empty(), name + ": real trial passes" +
                              (bad.empty() ? "" : " (" + bad.front() + ")"));
    }
  }

  const auto config = small_fleet(FidelityMode::kWaveform);
  const fdb::sim::NetworkSimulator sim(config);
  const auto good = sim.run_trial(0);
  expect(!good.tags.empty(), "trial has tags");

  auto r = good;
  r.tags[0].frames_delivered = r.tags[0].frames_attempted + 1;
  expect(flags(perfbench::check_trial(r, config), "tag 0 delivered"),
         "per-tag delivered > attempted is caught");

  r = good;
  r.busy_slots = r.slots + 1;
  expect(flags(perfbench::check_trial(r, config), "busy_slots > slots"),
         "busy > slots is caught");

  r = good;
  r.useful_slots = r.slots;
  r.wasted_slots = 1;
  expect(flags(perfbench::check_trial(r, config), "useful + wasted"),
         "useful + wasted > slots is caught");

  r = good;
  ++r.collisions;
  expect(flags(perfbench::check_trial(r, config), "sum of per-tag collided"),
         "per-tag collisions not summing to the total is caught");

  r = good;
  r.frames_escalated = 1;
  expect(flags(perfbench::check_trial(r, config), "frames_escalated"),
         "escalation outside kHybrid is caught");

  r = good;
  --r.gateway_slots_synthesized;
  expect(flags(perfbench::check_trial(r, config), "gateway_slots_synthesized"),
         "a skipped gateway-slot in kWaveform is caught");

  r = good;
  ++r.slots;
  expect(flags(perfbench::check_trial(r, config), "slots != slots_per_trial"),
         "a wrong slot count is caught");

  auto analytic = small_fleet(FidelityMode::kAnalytic);
  r = fdb::sim::NetworkSimulator(analytic).run_trial(0);
  r.gateway_slots_synthesized = 3;
  expect(flags(perfbench::check_trial(r, analytic),
               "gateway_slots_synthesized in kAnalytic"),
         "synthesis in kAnalytic is caught");

  // Contradicted verdicts: a clear-deliver frame that failed, and a
  // clear-fail frame that delivered, count; contested frames never do.
  r = good;
  r.frames.assign(3, fdb::sim::FrameRecord{});
  r.frames[0].analytic = fdb::sim::LinkVerdict::kClearDeliver;
  r.frames[0].delivered = false;
  r.frames[1].analytic = fdb::sim::LinkVerdict::kClearFail;
  r.frames[1].delivered = true;
  r.frames[2].analytic = fdb::sim::LinkVerdict::kContested;
  r.frames[2].delivered = false;
  expect(perfbench::contradicted_verdicts(r) == 2,
         "contradicted verdicts counted");
}

void test_link_checks() {
  fdb::sim::LinkSimConfig config;
  config.modem = fdb::core::FdModemConfig::make(4, 6);
  config.noise_power_override_w = 1e-9;
  const fdb::sim::LinkSimulator sim(config);
  const auto good = sim.run_trial(0);
  expect(perfbench::check_link_trial(good).empty(), "real link trial passes");

  auto r = good;
  r.data_bit_errors = r.data_bits + 1;
  expect(flags(perfbench::check_link_trial(r), "data bit errors"),
         "data errors > bits is caught");
  r = good;
  r.feedback_bit_errors = r.feedback_bits + 1;
  expect(flags(perfbench::check_link_trial(r), "feedback bit errors"),
         "feedback errors > bits is caught");
}

void test_digests() {
  const auto config = small_fleet(fdb::sim::FidelityMode::kHybrid);
  const fdb::sim::NetworkSimulator sim(config);
  const auto run = [&](std::size_t jobs) {
    return fdb::sim::ExperimentRunner(jobs)
        .run_chunked<fdb::sim::NetworkSimSummary>(
            40, [&](fdb::sim::NetworkSimSummary& acc, std::size_t i) {
              acc.add(sim.run_trial(i));
            });
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  expect(perfbench::digest(serial) == perfbench::digest(parallel),
         "jobs 1 and jobs 4 summaries digest equal");

  auto moved = serial;
  moved.tags[5].harvested_j =
      std::nextafter(moved.tags[5].harvested_j, 1.0);
  expect(perfbench::digest(moved) != perfbench::digest(serial),
         "a one-ulp change moves the digest");
  moved = serial;
  ++moved.collisions;
  expect(perfbench::digest(moved) != perfbench::digest(serial),
         "a moved counter moves the digest");

  fdb::sim::LinkSimSummary a, b;
  fdb::sim::LinkSimConfig lc;
  lc.modem = fdb::core::FdModemConfig::make(4, 6);
  const fdb::sim::LinkSimulator link(lc);
  a.add(link.run_trial(0));
  b.add(link.run_trial(0));
  expect(perfbench::digest(a) == perfbench::digest(b),
         "a pure link trial digests equal");
  b.add(link.run_trial(1));
  expect(perfbench::digest(a) != perfbench::digest(b),
         "an extra link trial moves the digest");
}

}  // namespace

int main() {
  test_fleet_checks();
  test_link_checks();
  test_digests();
  std::printf("%s (%d failure%s)\n", g_failures ? "FAILED" : "ok",
              g_failures, g_failures == 1 ? "" : "s");
  return g_failures ? 1 : 0;
}
