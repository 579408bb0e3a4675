// Argument checks that hold in every build, not only with assertions
// on. A batch kernel writes out[i] for every in[i], so an assert-only
// size check lets an optimized (NDEBUG) build write past a short `out`.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace fdb {

/// Throws std::invalid_argument naming `who` unless `a == b`. Batch
/// kernels call it once per call, outside the sample loop.
inline void require_same_size(const char* who, std::size_t a,
                              std::size_t b) {
  if (a != b) {
    throw std::invalid_argument(std::string(who) + ": span sizes differ (" +
                                std::to_string(a) + " vs " +
                                std::to_string(b) + ")");
  }
}

}  // namespace fdb
