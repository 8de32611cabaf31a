// AccessBatch — a strided sequence of parallel accesses — and the
// BatchCoalescer that folds an access stream into them.
//
// Split out of core/polymem.hpp so the service queues (src/service) and
// the trace recorder (src/sched) can build batches without pulling in the
// whole PolyMem interface.
#pragma once

#include <cstdint>
#include <optional>

#include "access/pattern.hpp"

namespace polymem::core {

/// A strided sequence of parallel accesses, validated once and executed
/// through one gather or scatter with no per-access allocation. Anchors
/// form an outer x inner grid walked row-major:
///
///   anchor(o, t) = start + o*outer_stride + t*inner_stride,
///   o in [0, outer_count), t in [0, inner_count).
///
/// This covers the library's bulk walks: a STREAM band is (rows x groups),
/// a matrix load is (rows x row segments), a transpose is the tile grid,
/// a plain 1D sweep is outer_count == 1.
struct AccessBatch {
  access::PatternKind kind = access::PatternKind::kRect;
  access::Coord start;
  access::Coord inner_stride;
  std::int64_t inner_count = 1;
  access::Coord outer_stride;
  std::int64_t outer_count = 1;

  std::int64_t count() const { return inner_count * outer_count; }

  /// The flat-index-t access, t in [0, count()), inner index fastest.
  access::ParallelAccess access(std::int64_t t) const {
    const std::int64_t o = t / inner_count;
    const std::int64_t k = t % inner_count;
    return {kind,
            {start.i + o * outer_stride.i + k * inner_stride.i,
             start.j + o * outer_stride.j + k * inner_stride.j}};
  }

  /// A 1D strided sequence (outer_count == 1).
  static AccessBatch strided(access::PatternKind kind, access::Coord start,
                             access::Coord stride, std::int64_t count) {
    return {kind, start, stride, count, {0, 0}, 1};
  }

  /// Anchor (o, k) of the grid, or nullopt when a coordinate overflows
  /// int64 (such an anchor lies outside every address space). The bounds
  /// checks evaluate the grid's corners through this.
  std::optional<access::Coord> anchor(std::int64_t o, std::int64_t k) const {
    access::Coord a;
    if (!affine(start.i, o, outer_stride.i, k, inner_stride.i, a.i) ||
        !affine(start.j, o, outer_stride.j, k, inner_stride.j, a.j))
      return std::nullopt;
    return a;
  }

 private:
  /// out = base + o*so + k*sk; false on int64 overflow.
  static bool affine(std::int64_t base, std::int64_t o, std::int64_t so,
                     std::int64_t k, std::int64_t sk, std::int64_t& out) {
    std::int64_t a = 0, b = 0;
    return !__builtin_mul_overflow(o, so, &a) &&
           !__builtin_mul_overflow(k, sk, &b) &&
           !__builtin_add_overflow(base, a, &out) &&
           !__builtin_add_overflow(out, b, &out);
  }
};

/// Greedy run detector: folds a stream of parallel accesses into maximal
/// constant-stride, same-pattern runs, each expressible as one strided
/// AccessBatch. This is the batch-coalescing entry point of the service
/// layer (src/service): a port queue feeds the accesses it pops in FIFO
/// order, and every emitted run is one read_batch / write_batch call —
/// one lowering and one gather/scatter amortized over many requests.
///
/// Semantics: the first access opens a run; the second fixes the stride
/// (any value, including zero); each later access must repeat the pattern
/// kind and continue the arithmetic progression. try_add leaves the run
/// untouched when the access does not extend it, so the caller can stop
/// popping, take() the batch, and start the next run with the rejected
/// access.
class BatchCoalescer {
 public:
  bool empty() const { return len_ == 0; }
  std::int64_t size() const { return len_; }

  /// True when `access` joined (or opened) the pending run.
  bool try_add(const access::ParallelAccess& access) {
    if (len_ == 0) {
      kind_ = access.kind;
      start_ = access.anchor;
      len_ = 1;
      return true;
    }
    if (access.kind != kind_) return false;
    if (len_ == 1) {
      stride_ = {access.anchor.i - start_.i, access.anchor.j - start_.j};
      next_ = {access.anchor.i + stride_.i, access.anchor.j + stride_.j};
      len_ = 2;
      return true;
    }
    if (access.anchor != next_) return false;
    next_ = {next_.i + stride_.i, next_.j + stride_.j};
    ++len_;
    return true;
  }

  /// The pending run as a 1D strided batch; resets the coalescer.
  AccessBatch take() {
    const AccessBatch batch = AccessBatch::strided(
        kind_, start_, len_ >= 2 ? stride_ : access::Coord{0, 0}, len_);
    len_ = 0;
    return batch;
  }

 private:
  access::PatternKind kind_ = access::PatternKind::kRect;
  access::Coord start_;
  access::Coord stride_;
  access::Coord next_;
  std::int64_t len_ = 0;
};

}  // namespace polymem::core
