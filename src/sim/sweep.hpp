// Sweep-axis spacing shared by the benches and perfbench: log and lin
// spaced knob values (distance, channel BER, frame size). The benches
// map an axis through ExperimentRunner::map and print the rows in a
// Report.
#pragma once

#include <cstddef>
#include <vector>

namespace fdb::sim {

/// Logarithmically spaced values in [lo, hi], n points (lo, hi > 0).
/// n == 0 returns empty and n == 1 returns {lo}.
std::vector<double> logspace(double lo, double hi, std::size_t n);

/// Linearly spaced values in [lo, hi], n points.
/// n == 0 returns empty and n == 1 returns {lo}.
std::vector<double> linspace(double lo, double hi, std::size_t n);

}  // namespace fdb::sim
