#include "cache/cached_matrix.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace polymem::cache {

using access::PatternKind;
using core::AccessBatch;

CachedMatrix::CachedMatrix(maxsim::LMem& lmem, core::PolyMem& mem,
                           const maxsim::LMemMatrix& matrix,
                           core::FramePool frames, CacheOptions options)
    : cache_(lmem, mem, matrix, frames, options),
      lanes_(static_cast<std::int64_t>(mem.config().lanes())),
      rows_any_anchor_(mem.supports(PatternKind::kRow) ==
                       maf::SupportLevel::kAny) {}

void CachedMatrix::check_block(std::int64_t i, std::int64_t j,
                               std::int64_t rows, std::int64_t cols,
                               std::size_t buffer) const {
  POLYMEM_REQUIRE(rows >= 1 && cols >= 1, "block must be non-empty");
  POLYMEM_REQUIRE(i >= 0 && j >= 0 && i + rows <= this->rows() &&
                      j + cols <= this->cols(),
                  "block exceeds the cached matrix");
  POLYMEM_REQUIRE(buffer == static_cast<std::size_t>(rows * cols),
                  "buffer does not match the block shape");
}

bool CachedMatrix::row_path(std::int64_t sub_cols) const {
  return rows_any_anchor_ && sub_cols % lanes_ == 0;
}

void CachedMatrix::read_block(std::int64_t i, std::int64_t j,
                              std::int64_t rows, std::int64_t cols,
                              std::span<hw::Word> out) {
  check_block(i, j, rows, cols, out.size());
  const std::int64_t t_rows = cache_.frames().tile_rows();
  const std::int64_t t_cols = cache_.frames().tile_cols();
  core::PolyMem& mem = cache_.polymem();

  for (std::int64_t ti = i / t_rows; ti * t_rows < i + rows; ++ti) {
    for (std::int64_t tj = j / t_cols; tj * t_cols < j + cols; ++tj) {
      const TileCache::TileRef ref = cache_.acquire(ti, tj);
      const std::int64_t bi0 = std::max(i, ti * t_rows);
      const std::int64_t bi1 = std::min(i + rows, ti * t_rows + ref.rows);
      const std::int64_t bj0 = std::max(j, tj * t_cols);
      const std::int64_t bj1 = std::min(j + cols, tj * t_cols + ref.cols);
      const std::int64_t sub_rows = bi1 - bi0;
      const std::int64_t sub_cols = bj1 - bj0;
      const std::int64_t fi = bi0 - ti * t_rows;  // frame-relative
      const std::int64_t fj = bj0 - tj * t_cols;

      const bool rows_path = row_path(sub_cols);
      for (std::int64_t r = 0; r < sub_rows; ++r) {
        const access::Coord at{ref.origin.i + fi + r, ref.origin.j + fj};
        const std::span<hw::Word> row = out.subspan(
            static_cast<std::size_t>((bi0 - i + r) * cols + (bj0 - j)),
            static_cast<std::size_t>(sub_cols));
        if (rows_path) {
          mem.read_batch(AccessBatch::strided(PatternKind::kRow, at,
                                              {0, lanes_}, sub_cols / lanes_),
                         0, row);
        } else {
          mem.dump_rect(at, 1, sub_cols, row);
        }
      }
      cache_.note_kernel_accesses(
          static_cast<std::uint64_t>(sub_rows * (rows_path ? sub_cols / lanes_
                                                           : sub_cols)),
          static_cast<std::uint64_t>(sub_rows * sub_cols));
    }
  }
}

void CachedMatrix::write_block(std::int64_t i, std::int64_t j,
                               std::int64_t rows, std::int64_t cols,
                               std::span<const hw::Word> data) {
  check_block(i, j, rows, cols, data.size());
  const std::int64_t t_rows = cache_.frames().tile_rows();
  const std::int64_t t_cols = cache_.frames().tile_cols();
  const bool through =
      cache_.options().write_policy == WritePolicy::kWriteThrough;
  core::PolyMem& mem = cache_.polymem();

  for (std::int64_t ti = i / t_rows; ti * t_rows < i + rows; ++ti) {
    for (std::int64_t tj = j / t_cols; tj * t_cols < j + cols; ++tj) {
      const TileCache::TileRef ref = cache_.acquire(ti, tj);
      const std::int64_t bi0 = std::max(i, ti * t_rows);
      const std::int64_t bi1 = std::min(i + rows, ti * t_rows + ref.rows);
      const std::int64_t bj0 = std::max(j, tj * t_cols);
      const std::int64_t bj1 = std::min(j + cols, tj * t_cols + ref.cols);
      const std::int64_t sub_rows = bi1 - bi0;
      const std::int64_t sub_cols = bj1 - bj0;
      const std::int64_t fi = bi0 - ti * t_rows;
      const std::int64_t fj = bj0 - tj * t_cols;

      const bool rows_path = row_path(sub_cols);
      for (std::int64_t r = 0; r < sub_rows; ++r) {
        const access::Coord at{ref.origin.i + fi + r, ref.origin.j + fj};
        const std::span<const hw::Word> row = data.subspan(
            static_cast<std::size_t>((bi0 - i + r) * cols + (bj0 - j)),
            static_cast<std::size_t>(sub_cols));
        if (rows_path) {
          mem.write_batch(AccessBatch::strided(PatternKind::kRow, at,
                                               {0, lanes_}, sub_cols / lanes_),
                          row);
        } else {
          mem.fill_rect(at, 1, sub_cols, row);
        }
      }
      cache_.note_kernel_accesses(
          static_cast<std::uint64_t>(sub_rows * (rows_path ? sub_cols / lanes_
                                                           : sub_cols)),
          static_cast<std::uint64_t>(sub_rows * sub_cols));

      if (through) {
        for (std::int64_t r = 0; r < sub_rows; ++r)
          cache_.write_through(
              bi0 + r, bj0,
              data.subspan(static_cast<std::size_t>((bi0 - i + r) * cols +
                                                    (bj0 - j)),
                           static_cast<std::size_t>(sub_cols)));
      } else {
        cache_.mark_dirty(ref.frame);
      }
    }
  }
}

hw::Word CachedMatrix::read(std::int64_t i, std::int64_t j) {
  hw::Word value = 0;
  read_block(i, j, 1, 1, std::span<hw::Word>(&value, 1));
  return value;
}

void CachedMatrix::write(std::int64_t i, std::int64_t j, hw::Word value) {
  write_block(i, j, 1, 1, std::span<const hw::Word>(&value, 1));
}

}  // namespace polymem::cache
