// CachedMatrix — the out-of-core facade over TileCache.
//
// Presents a row-major LMem matrix of any size as if it were resident in
// PolyMem: block, row and scalar accessors translate matrix coordinates
// to the caching frames, faulting tiles in (and evicting) as needed.
// Apps and the STREAM harness run matrices far larger than the on-chip
// capacity unchanged — the Fig. 1 "software cache" promise completed.
//
// Reads and writes of resident data go through the batched parallel
// engine (PolyMem::read_batch / write_batch, full-width row accesses)
// whenever the sub-rectangle is lane-aligned and the scheme serves rows
// at any anchor; otherwise they fall back to element-wise copies (one
// PolyMem::fill_rect/dump_rect per sub-block row), counted one PolyMem
// access per element — the honest cost of a scheme mismatch, same as the
// DMA engine's fallback.
#pragma once

#include <cstdint>
#include <span>

#include "cache/tile_cache.hpp"

namespace polymem::cache {

class CachedMatrix {
 public:
  /// See TileCache: `matrix` lives in `lmem`, tiles are cached in the
  /// `frames` region of `mem`.
  CachedMatrix(maxsim::LMem& lmem, core::PolyMem& mem,
               const maxsim::LMemMatrix& matrix, core::FramePool frames,
               CacheOptions options = {});

  std::int64_t rows() const { return cache_.matrix().rows; }
  std::int64_t cols() const { return cache_.matrix().cols; }

  /// Row-major copy of the `rows` x `cols` rectangle at (i, j) out of /
  /// into the cached matrix. `out`/`data` hold rows * cols words.
  void read_block(std::int64_t i, std::int64_t j, std::int64_t rows,
                  std::int64_t cols, std::span<hw::Word> out);
  void write_block(std::int64_t i, std::int64_t j, std::int64_t rows,
                   std::int64_t cols, std::span<const hw::Word> data);

  /// Row accessors: elements (i, j .. j + n) with n = span size.
  void read_row(std::int64_t i, std::int64_t j, std::span<hw::Word> out) {
    read_block(i, j, 1, static_cast<std::int64_t>(out.size()), out);
  }
  void write_row(std::int64_t i, std::int64_t j,
                 std::span<const hw::Word> data) {
    write_block(i, j, 1, static_cast<std::int64_t>(data.size()), data);
  }

  /// Scalar accessors (one cached element; a full parallel access's cost
  /// only on a miss).
  hw::Word read(std::int64_t i, std::int64_t j);
  void write(std::int64_t i, std::int64_t j, hw::Word value);

  /// Writes every dirty tile back to LMem (no-op under write-through).
  void flush() { cache_.flush(); }

  TileCache& cache() { return cache_; }
  const TileCache& cache() const { return cache_; }
  CacheStats stats() const { return cache_.stats(); }

 private:
  void check_block(std::int64_t i, std::int64_t j, std::int64_t rows,
                   std::int64_t cols, std::size_t buffer) const;
  /// True when the sub-rect copy can use full-width row accesses.
  bool row_path(std::int64_t sub_cols) const;

  TileCache cache_;
  std::int64_t lanes_;
  bool rows_any_anchor_;
};

}  // namespace polymem::cache
