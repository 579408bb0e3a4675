#include "channel/backscatter.hpp"

#include <cassert>
#include <cmath>

#include "util/check.hpp"

namespace fdb::channel {

ReflectionStates ReflectionStates::ook(double rho) {
  assert(rho > 0.0 && rho <= 1.0);
  ReflectionStates s;
  s.gamma_absorb = {0.0f, 0.0f};
  s.gamma_reflect = {static_cast<float>(std::sqrt(rho)), 0.0f};
  return s;
}

ReflectionStates ReflectionStates::bpsk(double rho) {
  assert(rho > 0.0 && rho <= 1.0);
  ReflectionStates s;
  const float mag = static_cast<float>(std::sqrt(rho));
  s.gamma_absorb = {-mag, 0.0f};
  s.gamma_reflect = {mag, 0.0f};
  return s;
}

float ReflectionStates::differential_amplitude() const {
  return std::abs(gamma_reflect - gamma_absorb);
}

BackscatterModulator::BackscatterModulator(ReflectionStates states)
    : states_(states) {}

cf32 BackscatterModulator::reflect(cf32 incident, bool state) const {
  return incident * (state ? states_.gamma_reflect : states_.gamma_absorb);
}

void BackscatterModulator::reflect(std::span<const cf32> incident,
                                   std::span<const std::uint8_t> states,
                                   std::span<cf32> out) const {
  require_same_size("BackscatterModulator::reflect", incident.size(),
                    states.size());
  require_same_size("BackscatterModulator::reflect", incident.size(),
                    out.size());
  for (std::size_t i = 0; i < incident.size(); ++i) {
    out[i] = reflect(incident[i], states[i] != 0);
  }
}

double BackscatterModulator::harvest_fraction(bool state) const {
  const cf32 gamma = state ? states_.gamma_reflect : states_.gamma_absorb;
  const double reflected = std::norm(gamma);
  return std::max(0.0, 1.0 - reflected);
}

}  // namespace fdb::channel
