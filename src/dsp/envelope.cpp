#include "dsp/envelope.hpp"

#include <cmath>

#include "util/check.hpp"

namespace fdb::dsp {

EnvelopeDetector::EnvelopeDetector(double rc_cutoff_hz, double sample_rate_hz)
    : smoother_(OnePole::from_cutoff(rc_cutoff_hz, sample_rate_hz)) {}

float EnvelopeDetector::process(cf32 x) {
  float y = 0.0f;
  process(std::span<const cf32>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void EnvelopeDetector::process(std::span<const cf32> in,
                               std::span<float> out) {
  require_same_size("EnvelopeDetector::process", in.size(), out.size());
  // Two-pass batch kernel: the magnitude pass vectorizes (sqrt of
  // I^2+Q^2 over contiguous memory, staged through `out` so no scratch
  // buffer is needed), then the one-pole RC recurrence runs in place.
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::abs(in[i]);
  smoother_.process(std::span<const float>(out.data(), out.size()), out);
}

void EnvelopeDetector::reset() { smoother_.reset(); }

SquareLawDetector::SquareLawDetector(double rc_cutoff_hz,
                                     double sample_rate_hz)
    : smoother_(OnePole::from_cutoff(rc_cutoff_hz, sample_rate_hz)) {}

float SquareLawDetector::process(cf32 x) {
  float y = 0.0f;
  process(std::span<const cf32>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void SquareLawDetector::process(std::span<const cf32> in,
                                std::span<float> out) {
  require_same_size("SquareLawDetector::process", in.size(), out.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::norm(in[i]);
  smoother_.process(std::span<const float>(out.data(), out.size()), out);
}

void SquareLawDetector::reset() { smoother_.reset(); }

}  // namespace fdb::dsp
