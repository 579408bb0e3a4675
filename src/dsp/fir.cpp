#include "dsp/fir.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numbers>

#include "util/check.hpp"

namespace fdb::dsp {
namespace detail {
namespace {

// Samples appended per compaction cycle: the history buffer holds
// num_taps-1 + kBlock samples, so the tail memmove amortises to
// (T-1)/kBlock samples per input sample.
constexpr std::size_t kBlock = 4096;

}  // namespace

template <typename Tap, typename Sample>
BlockFir<Tap, Sample>::BlockFir(std::vector<Tap> taps)
    : taps_(std::move(taps)) {
  assert(!taps_.empty());
  rtaps_.assign(taps_.rbegin(), taps_.rend());
  // hist_len_ guards the empty-taps case in NDEBUG builds (the seed
  // implementation degraded to all-zero output there; sizing with
  // taps_.size() - 1 would underflow instead).
  hist_len_ = taps_.empty() ? 0 : taps_.size() - 1;
  hist_.assign(hist_len_ + kBlock, Sample{});
  cursor_ = hist_len_;
}

template <typename Tap, typename Sample>
void BlockFir<Tap, Sample>::compact() {
  std::memmove(hist_.data(), hist_.data() + cursor_ - hist_len_,
               hist_len_ * sizeof(Sample));
  cursor_ = hist_len_;
}

template <typename Tap, typename Sample>
void BlockFir<Tap, Sample>::run(std::span<const Sample> in,
                                std::span<Sample> out) {
  require_same_size("FirFilter::process", in.size(), out.size());
  const std::size_t t = taps_.size();
  const Tap* rt = rtaps_.data();
  std::size_t done = 0;
  while (done < in.size()) {
    if (cursor_ >= hist_.size()) compact();
    const std::size_t take =
        std::min(in.size() - done, hist_.size() - cursor_);
    std::copy_n(in.data() + done, take, hist_.data() + cursor_);
    // base[i + j] for j in [0, t) walks the window oldest -> newest;
    // rtaps_ is reversed to match, so this is a straight correlation.
    const Sample* base = hist_.data() + cursor_ - hist_len_;
    Sample* o = out.data() + done;
    // Tap-outer / sample-inner ("saxpy") block convolution: each pass
    // adds one tap's contribution to every output. The inner loop is
    // element-parallel, so it vectorizes under strict FP semantics (no
    // reduction to reassociate), and every output accumulates its taps
    // in the same j order — deterministic and chunk-size invariant.
    std::fill_n(o, take, Sample{});
    for (std::size_t j = 0; j < t; ++j) {
      const Tap c = rt[j];
      const Sample* src = base + j;
      for (std::size_t i = 0; i < take; ++i) {
        o[i] += c * src[i];
      }
    }
    cursor_ += take;
    done += take;
  }
}

template <typename Tap, typename Sample>
Sample BlockFir<Tap, Sample>::step(Sample x) {
  // Scalar fast path. The accumulation order (ascending j over reversed
  // taps, one rounding per multiply-add) is identical to the batch
  // kernel's per-output order, so interleaving step() and run() calls in
  // any pattern yields bit-identical streams — pinned by the
  // BatchEquivalence tests.
  if (cursor_ >= hist_.size()) compact();
  hist_[cursor_] = x;
  const std::size_t t = taps_.size();
  const Sample* win = hist_.data() + cursor_ - hist_len_;
  const Tap* rt = rtaps_.data();
  Sample acc{};
  for (std::size_t j = 0; j < t; ++j) {
    acc += rt[j] * win[j];
  }
  ++cursor_;
  return acc;
}

template <typename Tap, typename Sample>
void BlockFir<Tap, Sample>::reset() {
  std::fill(hist_.begin(), hist_.end(), Sample{});
  cursor_ = hist_len_;
}

template class BlockFir<float, float>;
template class BlockFir<float, cf32>;
template class BlockFir<cf32, cf32>;

}  // namespace detail

std::vector<float> design_lowpass(double cutoff_norm, std::size_t num_taps,
                                  WindowType window) {
  assert(cutoff_norm > 0.0 && cutoff_norm < 0.5);
  assert(num_taps >= 1);
  const auto w = make_window(window, num_taps);
  std::vector<float> taps(num_taps);
  const double center = static_cast<double>(num_taps - 1) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < num_taps; ++i) {
    const double t = static_cast<double>(i) - center;
    const double x = 2.0 * std::numbers::pi * cutoff_norm * t;
    const double sinc = (std::abs(t) < 1e-12) ? 2.0 * cutoff_norm
                                              : std::sin(x) / (std::numbers::pi * t);
    taps[i] = static_cast<float>(sinc) * w[i];
    sum += taps[i];
  }
  for (auto& tap : taps) tap = static_cast<float>(tap / sum);
  return taps;
}

std::vector<float> design_highpass(double cutoff_norm, std::size_t num_taps,
                                   WindowType window) {
  assert(num_taps % 2 == 1 && "type-I (odd) length required for high-pass");
  auto taps = design_lowpass(cutoff_norm, num_taps, window);
  // Spectral inversion: delta at center minus low-pass.
  for (auto& tap : taps) tap = -tap;
  taps[(num_taps - 1) / 2] += 1.0f;
  return taps;
}

std::vector<float> design_boxcar(std::size_t n) {
  assert(n > 0);
  return std::vector<float>(n, 1.0f / static_cast<float>(n));
}

}  // namespace fdb::dsp
