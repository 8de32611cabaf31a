#include "adapt/profiler.hpp"

#include "common/error.hpp"

namespace polymem::adapt {

bool run_aligned(unsigned p, unsigned q, access::Coord anchor,
                 access::Coord stride) {
  const auto sp = static_cast<std::int64_t>(p);
  const auto sq = static_cast<std::int64_t>(q);
  // Floored-safe: anchors are in-space (non-negative) in practice, but the
  // MAFs are defined for negative coordinates too, so use remainder == 0
  // which is sign-agnostic for divisibility.
  return anchor.i % sp == 0 && anchor.j % sq == 0 && stride.i % sp == 0 &&
         stride.j % sq == 0;
}

access::PatternKind WindowProfile::dominant() const {
  access::PatternKind best = access::kAllPatterns[0];
  std::int64_t best_count = -1;
  for (access::PatternKind kind : access::kAllPatterns) {
    const std::int64_t n = of(kind).total();
    if (n > best_count) {
      best = kind;
      best_count = n;
    }
  }
  return best;
}

AccessProfiler::AccessProfiler(unsigned p, unsigned q, ProfilerOptions opts)
    : p_(p), q_(q), opts_(opts) {
  POLYMEM_REQUIRE(p > 0 && q > 0, "profiler: bank geometry must be nonzero");
  POLYMEM_REQUIRE(opts_.window > 0, "profiler: window must be positive");
}

void AccessProfiler::observe_run(bool is_write, access::PatternKind kind,
                                 access::Coord anchor, access::Coord stride,
                                 std::int64_t count) {
  if (count <= 0) return;
  observed_total_ += count;
  KindCounts& k = cur_.kinds[static_cast<std::size_t>(kind)];
  (is_write ? k.writes : k.reads) += count;
  (is_write ? cur_.writes : cur_.reads) += count;
  cur_.accesses += count;
  if (run_aligned(p_, q_, anchor, stride)) k.aligned += count;
  if (cur_.accesses >= opts_.window) seal();
}

WindowProfile AccessProfiler::take_window() {
  POLYMEM_REQUIRE(ready_, "profiler: no sealed window to take");
  ready_ = false;
  return sealed_;
}

void AccessProfiler::reset() {
  cur_ = WindowProfile{};
  sealed_ = WindowProfile{};
  ready_ = false;
}

void AccessProfiler::seal() {
  cur_.sequence = sealed_count_++;
  sealed_ = cur_;
  ready_ = true;
  cur_ = WindowProfile{};
}

}  // namespace polymem::adapt
