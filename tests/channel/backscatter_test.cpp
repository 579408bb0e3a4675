#include "channel/backscatter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace fdb::channel {
namespace {

TEST(ReflectionStates, OokMagnitudes) {
  const auto states = ReflectionStates::ook(0.49);
  EXPECT_NEAR(std::abs(states.gamma_absorb), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(states.gamma_reflect), 0.7f, 1e-6f);
}

TEST(ReflectionStates, BpskOppositePhases) {
  const auto states = ReflectionStates::bpsk(0.25);
  EXPECT_NEAR(std::abs(states.gamma_absorb), 0.5f, 1e-6f);
  EXPECT_NEAR(std::abs(states.gamma_reflect), 0.5f, 1e-6f);
  EXPECT_NEAR(std::abs(states.gamma_reflect + states.gamma_absorb), 0.0f,
              1e-6f);
}

TEST(ReflectionStates, DifferentialAmplitude) {
  EXPECT_NEAR(ReflectionStates::ook(0.25).differential_amplitude(), 0.5f,
              1e-6f);
  EXPECT_NEAR(ReflectionStates::bpsk(0.25).differential_amplitude(), 1.0f,
              1e-6f);
}

TEST(BackscatterModulator, ReflectScalesIncident) {
  BackscatterModulator mod(ReflectionStates::ook(0.64));
  const cf32 incident{2.0f, 0.0f};
  EXPECT_NEAR(std::abs(mod.reflect(incident, true)), 1.6f, 1e-5f);
  EXPECT_NEAR(std::abs(mod.reflect(incident, false)), 0.0f, 1e-6f);
}

TEST(BackscatterModulator, BlockReflection) {
  BackscatterModulator mod(ReflectionStates::ook(1.0));
  const std::vector<cf32> incident(4, cf32{1.0f, 0.0f});
  const std::vector<std::uint8_t> states = {0, 1, 0, 1};
  std::vector<cf32> out(4);
  mod.reflect(incident, states, out);
  EXPECT_NEAR(std::abs(out[0]), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(out[1]), 1.0f, 1e-6f);
  EXPECT_NEAR(std::abs(out[2]), 0.0f, 1e-6f);
  EXPECT_NEAR(std::abs(out[3]), 1.0f, 1e-6f);
}

TEST(BackscatterModulator, HarvestFractionComplementsReflection) {
  BackscatterModulator mod(ReflectionStates::ook(0.36));
  EXPECT_NEAR(mod.harvest_fraction(false), 1.0, 1e-9);   // absorbing
  EXPECT_NEAR(mod.harvest_fraction(true), 0.64, 1e-6);   // 1 - 0.36
}

TEST(BackscatterModulator, EnergyConservation) {
  // Reflected power + harvestable power <= incident power, all states.
  for (const double rho : {0.1, 0.5, 0.9, 1.0}) {
    BackscatterModulator mod(ReflectionStates::ook(rho));
    for (const bool state : {false, true}) {
      const double reflected =
          std::norm(mod.reflect({1.0f, 0.0f}, state));
      EXPECT_LE(reflected + mod.harvest_fraction(state), 1.0 + 1e-6);
    }
  }
}

TEST(BackscatterModulator, BlockReflectionRejectsMismatchedSpans) {
  BackscatterModulator mod(ReflectionStates::ook(1.0));
  const std::vector<cf32> incident(64);
  const std::vector<std::uint8_t> states(64), short_states(32);
  std::vector<cf32> out(64), short_out(32);
  EXPECT_THROW(mod.reflect(incident, states, short_out),
               std::invalid_argument);
  EXPECT_THROW(mod.reflect(incident, short_states, out),
               std::invalid_argument);
}

}  // namespace
}  // namespace fdb::channel
