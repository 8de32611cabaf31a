// Trial timing shared by the bench runners: one warm-up run, then the
// median of repeated timed runs, or the median of passes a runner times
// itself.
#pragma once

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

namespace polymem::bench {

/// The middle of `samples` (the upper middle for an even count).
inline double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Median wall time in nanoseconds of `trials` timed calls of `run`, after
/// one untimed warm-up call that fills plan caches and faults in memory.
template <typename Fn>
double median_ns(int trials, Fn&& run) {
  using Clock = std::chrono::steady_clock;
  run();
  std::vector<double> ns;
  for (int t = 0; t < trials; ++t) {
    const auto start = Clock::now();
    run();
    const auto stop = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(stop - start).count());
  }
  return median(std::move(ns));
}

}  // namespace polymem::bench
