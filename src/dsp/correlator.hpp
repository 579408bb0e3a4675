// Sliding correlator for preamble detection on envelope streams.
//
// The pattern is a ±1 chip sequence; incoming envelope samples are
// mean-removed over the correlation window so the detector is invariant
// to the (large, slowly varying) ambient-carrier DC level.
//
// Batch-first: the primary API is process(span, span), which keeps the
// window in a contiguous history buffer (no modulo indexing), tracks
// the window mean and energy incrementally, and computes the pattern
// dots through an output-blocked SIMD kernel (8-wide AVX-512 or 4-wide
// AVX2 FMA lanes). Both kernels are compiled into every x86-64 GCC/Clang
// build through target attributes, and one is picked at run time from
// cpuid (detail::dispatched_kernel); without either — another
// architecture, MSVC, or an older CPU — process(span) runs the scalar
// reference. process_scalar(span, span) is that bit-exact reference;
// process(x) is a specialized single-sample path over the same
// arithmetic. All three are bit-identical for any chunking of the
// stream and on any host:
//
//   * every float×float product is exact in double (24+24 < 53 bits),
//     so vector FMA ≡ scalar multiply-then-add, and
//   * the dot's summation tree is fixed (four k-mod-4 partial sums
//     combined as (d0+d1)+(d2+d3), then a sequential tail) and each
//     SIMD lane reproduces that tree exactly, one output per lane.
//
// The TU is compiled with -ffp-contract=off so the genuinely
// contraction-sensitive double×double expressions (energy and
// mean-removal folds) round identically in every path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace fdb::dsp {

namespace detail {

/// Pattern-dot kernels of the batch path, ordered by ISA: a host that
/// runs one runs every kernel before it.
enum class DotKernel { kScalar, kAvx2, kAvx512 };

/// The widest kernel this build and CPU support, read from cpuid once.
DotKernel dispatched_kernel();

/// True when `k` can run here (kScalar always can).
bool supported(DotKernel k);

/// "scalar", "avx2" or "avx512".
const char* kernel_name(DotKernel k);

/// Reference dot of the taps pat[0, w) with win[0, w): four k-mod-4
/// partial sums combined (d0+d1)+(d2+d3), then a sequential tail.
double dot_one_d(const double* pat, std::size_t w, const double* win);

/// dots[j] = dot_one_d(pat, w, first + j) for j in [0, n), bit-exactly,
/// through kernel `k`. Throws std::invalid_argument if !supported(k).
void dot_block(DotKernel k, const double* pat, std::size_t w,
               const double* first, std::size_t n, double* dots);

}  // namespace detail

class SlidingCorrelator {
 public:
  /// `pattern` holds ±1 chips; `samples_per_chip` stretches each chip.
  /// Throws std::invalid_argument for an empty pattern, a chip other
  /// than ±1, or samples_per_chip == 0.
  SlidingCorrelator(std::vector<float> pattern, std::size_t samples_per_chip);

  /// Pushes one envelope sample; returns the normalised correlation in
  /// [-1, 1] once the window has filled (0 before that, including the
  /// samples leading up to — but not — the exact-fill sample).
  /// Specialized single-sample path (no span/loop overhead), same
  /// arithmetic as the batch kernels.
  float process(float x);

  /// Batch kernel: out[i] is the correlation after pushing in[i].
  /// Arbitrary span lengths; state carries across calls, so splitting a
  /// stream into chunks of any size yields bit-identical output. Pattern
  /// dots run through the kernel() chosen at construction. Throws
  /// std::invalid_argument when in and out differ in size.
  void process(std::span<const float> in, std::span<float> out);

  /// Scalar determinism reference: the per-sample loop the SIMD path
  /// must match bit-for-bit (pinned by tests/dsp/batch_equivalence).
  /// Same state machine as process(span, span); only the dot kernel
  /// differs in shape, not in arithmetic. Same size check.
  void process_scalar(std::span<const float> in, std::span<float> out);

  /// The dot kernel process(span, span) uses: dispatched_kernel() unless
  /// use_kernel() overrode it. use_kernel lets tests drive every kernel
  /// the host supports; it throws std::invalid_argument otherwise.
  detail::DotKernel kernel() const { return kernel_; }
  void use_kernel(detail::DotKernel k);

  /// True once the internal window is full and outputs are meaningful.
  bool warmed_up() const { return total_ >= window_len_; }

  std::size_t window_length() const { return window_len_; }
  void reset();

 private:
  void compact();
  void refresh_sums(const float* window);

  std::vector<float> stretched_;   // pattern expanded & mean-removed
  std::vector<double> pattern_d_;  // same taps widened once for the dot
  double pattern_energy_ = 0.0;
  double pattern_sum_ = 0.0;  // residual DC of the float-rounded pattern
  std::size_t window_len_ = 0;
  detail::DotKernel kernel_;

  // Contiguous history: hist_[cursor_ - (window_len_-1) .. cursor_) holds
  // the most recent window_len_-1 samples; incoming blocks append at
  // cursor_ and the tail is memmoved back to the front only when the
  // buffer runs out (amortised O(1) per sample).
  std::vector<float> hist_;
  std::size_t cursor_ = 0;

  // Per-block scratch for the two-pass batch kernel (bookkeeping pass
  // records mean/denom per output, dot pass fills dots). Lazily sized to
  // the largest block processed so far.
  std::vector<double> mean_buf_;
  std::vector<double> denom_buf_;
  std::vector<double> dot_buf_;
  std::vector<double> win_d_;  // window widened to double once per block

  // Incremental window statistics (doubles: float inputs accumulate
  // exactly enough precision, and a periodic refresh re-derives them
  // from the window at fixed absolute sample counts to kill drift
  // without breaking chunk-size invariance).
  double sum_ = 0.0;
  double sumsq_ = 0.0;
  std::uint64_t total_ = 0;  // samples ever pushed (drives warm-up)
};

/// Peak picker: reports a detection when the correlation exceeds
/// `threshold` and is a local maximum within `lockout` samples.
class PeakDetector {
 public:
  PeakDetector(float threshold, std::size_t lockout);

  /// Pushes a correlation value. Returns the sample index (counted from
  /// the first process() call) at which a confirmed peak occurred, once
  /// the lockout has elapsed and the peak is finalised.
  std::optional<std::size_t> process(float corr);

  /// Bulk-advances the sample counter by `n` values without examining
  /// them. Only legal while !is_tracking() and when every skipped value
  /// is below threshold — i.e. when process() would have been a no-op
  /// for each. Lets batch callers pre-scan a block's maximum and skip
  /// the per-sample state machine over quiet stretches.
  void skip(std::size_t n);

  /// True while a candidate peak is being tracked (lockout running).
  bool is_tracking() const { return tracking_; }

  void reset();

 private:
  float threshold_;
  std::size_t lockout_;
  std::size_t index_ = 0;
  bool tracking_ = false;
  float best_ = 0.0f;
  std::size_t best_index_ = 0;
  std::size_t since_best_ = 0;
};

}  // namespace fdb::dsp
