// Trial timing shared by the bench runners: one warm-up run, then the
// median of repeated timed runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <vector>

namespace polymem::bench {

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
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace polymem::bench
