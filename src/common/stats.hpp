// Running statistics and small fitting helpers.
//
// Used by the STREAM harness (min/avg/max over 1000 runs, as the original
// STREAM reports), by the software-cache observability counters (src/cache
// hot path) and, for pearson, by the synthesis-model tests' oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace polymem {

/// Software-cache event counters (src/cache hot path; surfaced through
/// maxsim::DmaStats and the bench_cache JSON report). A *hit* is a tile
/// request served from a resident frame; a *miss* triggers a refill; an
/// *eviction* displaces a resident tile (dirty or clean); a *writeback*
/// is the dirty half of an eviction or flush. Prefetch counters split
/// issued background loads into useful (consumed by a later miss) and
/// dropped (overwritten or invalidated before use).
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_useful = 0;
  std::uint64_t prefetch_dropped = 0;
  /// Contiguous ascending-LMem-address write-back runs issued by flush():
  /// a flush of N dirty tiles in perfect layout order counts 1; unordered
  /// it would count up to N. The burst-friendliness measure of the DMA
  /// path (Ferry et al., PAPERS.md).
  std::uint64_t flush_runs = 0;

  /// hits / (hits + misses); 0 when no accesses happened.
  double hit_rate() const;

  CacheCounters& operator+=(const CacheCounters& other);

  friend bool operator==(const CacheCounters&, const CacheCounters&) =
      default;
};

/// Accumulates count/min/max/mean/variance in one pass (Welford).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double min() const { return min_; }
  double max() const { return max_; }
  double mean() const { return mean_; }
  double variance() const;  // population variance
  double stddev() const;

 private:
  std::size_t n_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Fixed-capacity percentile reservoir (Vitter's algorithm R): add() every
/// sample, keep a uniform random subset of at most `capacity`, and answer
/// p50/p95/p99 queries over the retained set. While the stream fits the
/// capacity the answer is exact; beyond it, each sample survives with
/// probability capacity/count, so tail percentiles stay unbiased without
/// storing millions of latency points. The replacement RNG is a seeded
/// splitmix64 walk — deterministic run to run, like every generator in
/// this library. Used by the service load generator (bench/bench_service)
/// for latency distributions.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = 4096, std::uint64_t seed = 1);

  void add(double x);

  /// Samples offered / retained.
  std::uint64_t count() const { return count_; }
  std::size_t size() const { return samples_.size(); }

  /// The pct-th percentile (pct in [0, 100]) of the retained samples by
  /// linear interpolation; NaN when empty.
  double percentile(double pct) const;

  struct Summary {
    std::uint64_t count = 0;
    double min = 0, p50 = 0, p95 = 0, p99 = 0, max = 0;
  };
  /// min/p50/p95/p99/max in one sort of the retained set.
  Summary summary() const;

 private:
  std::uint64_t next_random();

  std::size_t capacity_;
  std::uint64_t state_;
  std::uint64_t count_ = 0;
  std::vector<double> samples_;
};

/// Pearson correlation coefficient; returns 0 for degenerate input.
double pearson(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace polymem
