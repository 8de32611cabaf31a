#include "access/pattern.hpp"

#include "common/error.hpp"

namespace polymem::access {

const char* pattern_name(PatternKind kind) {
  switch (kind) {
    case PatternKind::kRow: return "row";
    case PatternKind::kCol: return "col";
    case PatternKind::kRect: return "rect";
    case PatternKind::kTRect: return "trect";
    case PatternKind::kMainDiag: return "mdiag";
    case PatternKind::kSecDiag: return "sdiag";
  }
  throw InvalidArgument("unknown pattern kind");
}

PatternKind pattern_from_name(const std::string& name) {
  for (PatternKind kind : kAllPatterns)
    if (name == pattern_name(kind)) return kind;
  throw InvalidArgument("unknown pattern name: " + name);
}

PatternExtent pattern_extent(PatternKind kind, unsigned p, unsigned q) {
  const std::int64_t n = static_cast<std::int64_t>(p) * q;
  switch (kind) {
    case PatternKind::kRow: return {1, n, 0};
    case PatternKind::kCol: return {n, 1, 0};
    case PatternKind::kRect: return {p, q, 0};
    case PatternKind::kTRect: return {q, p, 0};
    case PatternKind::kMainDiag: return {n, n, 0};
    case PatternKind::kSecDiag: return {n, n, -(n - 1)};
  }
  throw InvalidArgument("unknown pattern kind");
}

void expand_into(const ParallelAccess& access, unsigned p, unsigned q,
                 std::vector<Coord>& out) {
  POLYMEM_REQUIRE(p >= 1 && q >= 1, "bank geometry must be at least 1x1");
  const std::int64_t n = static_cast<std::int64_t>(p) * q;
  const auto [a, b] = access.anchor;
  // Indexed writes into a pre-sized vector: a no-op resize in steady state,
  // so callers that reuse `out` (the AGU scratch) never reallocate and skip
  // push_back's per-element capacity checks.
  out.resize(static_cast<std::size_t>(n));
  Coord* dst = out.data();
  switch (access.kind) {
    case PatternKind::kRow:
      for (std::int64_t k = 0; k < n; ++k) dst[k] = {a, b + k};
      break;
    case PatternKind::kCol:
      for (std::int64_t k = 0; k < n; ++k) dst[k] = {a + k, b};
      break;
    case PatternKind::kRect:
      for (std::int64_t u = 0; u < p; ++u)
        for (std::int64_t v = 0; v < q; ++v) *dst++ = {a + u, b + v};
      break;
    case PatternKind::kTRect:
      for (std::int64_t u = 0; u < q; ++u)
        for (std::int64_t v = 0; v < p; ++v) *dst++ = {a + u, b + v};
      break;
    case PatternKind::kMainDiag:
      for (std::int64_t k = 0; k < n; ++k) dst[k] = {a + k, b + k};
      break;
    case PatternKind::kSecDiag:
      for (std::int64_t k = 0; k < n; ++k) dst[k] = {a + k, b - k};
      break;
    default:
      throw InvalidArgument("unknown pattern kind");
  }
}

std::vector<Coord> expand(const ParallelAccess& access, unsigned p,
                          unsigned q) {
  std::vector<Coord> out;
  expand_into(access, p, q, out);
  return out;
}

bool fits(const ParallelAccess& access, unsigned p, unsigned q,
          std::int64_t height, std::int64_t width) {
  const PatternExtent ext = pattern_extent(access.kind, p, q);
  const auto [a, b] = access.anchor;
  // Compared against bounds moved to the other side, so no sum of an
  // extreme anchor and an extent can overflow.
  return a >= 0 && a <= height - ext.rows && b >= -ext.col_offset &&
         b <= width - ext.cols - ext.col_offset;
}

}  // namespace polymem::access
