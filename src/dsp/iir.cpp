#include "dsp/iir.hpp"

#include <cassert>
#include <cmath>
#include <numbers>

#include "util/check.hpp"

namespace fdb::dsp {

OnePole::OnePole(double alpha) : alpha_(alpha) {
  assert(alpha > 0.0 && alpha <= 1.0);
}

OnePole OnePole::from_cutoff(double cutoff_hz, double sample_rate_hz) {
  assert(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0);
  // Exact mapping of an RC pole to its discrete equivalent.
  const double alpha =
      1.0 - std::exp(-2.0 * std::numbers::pi * cutoff_hz / sample_rate_hz);
  return OnePole(alpha);
}

float OnePole::process(float x) {
  float y = 0.0f;
  process(std::span<const float>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void OnePole::process(std::span<const float> in, std::span<float> out) {
  require_same_size("OnePole::process", in.size(), out.size());
  // Batch kernel: the recurrence runs on registers, state is written
  // back once. Safe for in-place use (in.data() == out.data()).
  const double a = alpha_;
  const double b = 1.0 - alpha_;
  float y = y_;
  for (std::size_t i = 0; i < in.size(); ++i) {
    y = static_cast<float>(a * in[i] + b * y);
    out[i] = y;
  }
  y_ = y;
}

void OnePole::reset(float value) { y_ = value; }

Biquad::Biquad(double b0, double b1, double b2, double a1, double a2)
    : b0_(b0), b1_(b1), b2_(b2), a1_(a1), a2_(a2) {}

namespace {
struct RbjCommon {
  double w0, cosw, sinw, alpha;
};
RbjCommon rbj(double cutoff_hz, double sample_rate_hz, double q) {
  assert(cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0 && q > 0.0);
  RbjCommon c{};
  c.w0 = 2.0 * std::numbers::pi * cutoff_hz / sample_rate_hz;
  c.cosw = std::cos(c.w0);
  c.sinw = std::sin(c.w0);
  c.alpha = c.sinw / (2.0 * q);
  return c;
}
}  // namespace

Biquad Biquad::lowpass(double cutoff_hz, double sample_rate_hz, double q) {
  const auto c = rbj(cutoff_hz, sample_rate_hz, q);
  const double a0 = 1.0 + c.alpha;
  return Biquad((1.0 - c.cosw) / 2.0 / a0, (1.0 - c.cosw) / a0,
                (1.0 - c.cosw) / 2.0 / a0, -2.0 * c.cosw / a0,
                (1.0 - c.alpha) / a0);
}

Biquad Biquad::highpass(double cutoff_hz, double sample_rate_hz, double q) {
  const auto c = rbj(cutoff_hz, sample_rate_hz, q);
  const double a0 = 1.0 + c.alpha;
  return Biquad((1.0 + c.cosw) / 2.0 / a0, -(1.0 + c.cosw) / a0,
                (1.0 + c.cosw) / 2.0 / a0, -2.0 * c.cosw / a0,
                (1.0 - c.alpha) / a0);
}

Biquad Biquad::dc_blocker(double sample_rate_hz, double cutoff_hz) {
  return highpass(cutoff_hz, sample_rate_hz, 0.7071);
}

float Biquad::process(float x) {
  float y = 0.0f;
  process(std::span<const float>(&x, 1), std::span<float>(&y, 1));
  return y;
}

void Biquad::process(std::span<const float> in, std::span<float> out) {
  require_same_size("Biquad::process", in.size(), out.size());
  // Batch kernel: direct-form-I state lives in registers across the
  // block. Safe for in-place use.
  double x1 = x1_, x2 = x2_, y1 = y1_, y2 = y2_;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double x = in[i];
    const double y = b0_ * x + b1_ * x1 + b2_ * x2 - a1_ * y1 - a2_ * y2;
    x2 = x1;
    x1 = x;
    y2 = y1;
    y1 = y;
    out[i] = static_cast<float>(y);
  }
  x1_ = x1;
  x2_ = x2;
  y1_ = y1;
  y2_ = y2;
}

void Biquad::reset() { x1_ = x2_ = y1_ = y2_ = 0.0; }

}  // namespace fdb::dsp
