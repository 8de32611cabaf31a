#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace polymem {

double CacheCounters::hit_rate() const {
  const std::uint64_t accesses = hits + misses;
  return accesses == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(accesses);
}

CacheCounters& CacheCounters::operator+=(const CacheCounters& other) {
  hits += other.hits;
  misses += other.misses;
  evictions += other.evictions;
  writebacks += other.writebacks;
  prefetch_issued += other.prefetch_issued;
  prefetch_useful += other.prefetch_useful;
  prefetch_dropped += other.prefetch_dropped;
  flush_runs += other.flush_runs;
  return *this;
}

void RunningStats::add(double x) {
  ++n_;
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), state_(seed) {
  POLYMEM_REQUIRE(capacity > 0, "reservoir capacity must be positive");
  samples_.reserve(capacity);
}

std::uint64_t Reservoir::next_random() {
  // splitmix64: the same constants as runtime::derive_seed, kept local so
  // common/ stays dependency-free.
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Reservoir::add(double x) {
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(x);
    return;
  }
  // Replace a random slot with probability capacity/count: slot index
  // uniform in [0, count); keep only when it lands inside the reservoir.
  const std::uint64_t slot = next_random() % count_;
  if (slot < capacity_) samples_[static_cast<std::size_t>(slot)] = x;
}

double Reservoir::percentile(double pct) const {
  POLYMEM_REQUIRE(pct >= 0.0 && pct <= 100.0,
                  "percentile must lie in [0, 100]");
  if (samples_.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank =
      pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

Reservoir::Summary Reservoir::summary() const {
  Summary s;
  s.count = count_;
  if (samples_.empty()) return s;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double pct) {
    const double rank =
        pct / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
  };
  s.min = sorted.front();
  s.p50 = at(50.0);
  s.p95 = at(95.0);
  s.p99 = at(99.0);
  s.max = sorted.back();
  return s;
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  POLYMEM_REQUIRE(a.size() == b.size(), "series must be equally sized");
  const std::size_t n = a.size();
  if (n < 2) return 0.0;
  RunningStats sa, sb;
  for (double x : a) sa.add(x);
  for (double x : b) sb.add(x);
  if (sa.stddev() == 0.0 || sb.stddev() == 0.0) return 0.0;
  double cov = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    cov += (a[i] - sa.mean()) * (b[i] - sb.mean());
  cov /= static_cast<double>(n);
  return cov / (sa.stddev() * sb.stddev());
}

}  // namespace polymem
