#include "maxsim/dma.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace polymem::maxsim {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;
using core::AccessBatch;

DmaStats& DmaStats::operator+=(const DmaStats& other) {
  words += other.words;
  polymem_accesses += other.polymem_accesses;
  polymem_cycles += other.polymem_cycles;
  lmem_seconds += other.lmem_seconds;
  cache += other.cache;
  return *this;
}

DmaEngine::DmaEngine(LMem& lmem, core::PolyMem& polymem)
    : lmem_(&lmem), mem_(&polymem) {}

DmaEngine::Shape DmaEngine::pick_shape(std::int64_t rows, std::int64_t cols,
                                       Coord origin) const {
  const auto& cfg = mem_->config();
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  if (cols % lanes == 0 &&
      mem_->supports(PatternKind::kRow) == maf::SupportLevel::kAny) {
    return Shape::kRowAccesses;
  }
  // Rect anchors advance in p/q steps from the origin, so alignment (for
  // RoCo) holds at every tile position iff it holds at the origin.
  const maf::SupportLevel rect = mem_->supports(PatternKind::kRect);
  const bool aligned = origin.i % cfg.p == 0 && origin.j % cfg.q == 0;
  if (rows % cfg.p == 0 && cols % cfg.q == 0 &&
      (rect == maf::SupportLevel::kAny ||
       (rect == maf::SupportLevel::kAligned && aligned))) {
    return Shape::kRectAccesses;
  }
  return Shape::kScalar;
}

void DmaEngine::check_tile(const LMemMatrix& m, std::int64_t tile_i,
                           std::int64_t tile_j, std::int64_t rows,
                           std::int64_t cols, Coord origin) const {
  POLYMEM_REQUIRE(rows >= 1 && cols >= 1, "tile must be non-empty");
  POLYMEM_REQUIRE(tile_i >= 0 && tile_j >= 0 && tile_i + rows <= m.rows &&
                      tile_j + cols <= m.cols,
                  "tile exceeds the LMem matrix");
  POLYMEM_REQUIRE(m.leading_dim >= m.cols, "bad leading dimension");
  const auto& cfg = mem_->config();
  POLYMEM_REQUIRE(origin.i >= 0 && origin.j >= 0 &&
                      origin.i + rows <= cfg.height &&
                      origin.j + cols <= cfg.width,
                  "tile exceeds the PolyMem address space");
}

void DmaEngine::check_staged(std::span<const hw::Word> tile,
                             std::int64_t rows, std::int64_t cols,
                             Coord origin) const {
  POLYMEM_REQUIRE(rows >= 1 && cols >= 1, "tile must be non-empty");
  POLYMEM_REQUIRE(tile.size() == static_cast<std::size_t>(rows * cols),
                  "staged buffer does not match the tile shape");
  const auto& cfg = mem_->config();
  POLYMEM_REQUIRE(origin.i >= 0 && origin.j >= 0 &&
                      origin.i + rows <= cfg.height &&
                      origin.j + cols <= cfg.width,
                  "tile exceeds the PolyMem address space");
}

void DmaEngine::write_polymem(std::span<const hw::Word> tile,
                              std::int64_t rows, std::int64_t cols,
                              Coord origin, DmaStats& stats) {
  const auto& cfg = mem_->config();
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const Shape shape = pick_shape(rows, cols, origin);

  switch (shape) {
    case Shape::kRowAccesses: {
      // The batch's canonical-lane concatenation (inner = row segments,
      // outer = rows) is exactly the row-major tile buffer.
      const AccessBatch batch{PatternKind::kRow, origin,    {0, lanes},
                              cols / lanes,      {1, 0},    rows};
      mem_->write_batch(batch, tile);
      stats.polymem_accesses += static_cast<std::uint64_t>(batch.count());
      break;
    }
    case Shape::kRectAccesses: {
      // Re-stage row-major into per-access canonical groups: p x q block
      // row-major, blocks walked row-of-blocks first (the batch order).
      const AccessBatch batch{PatternKind::kRect,
                              origin,
                              {0, static_cast<std::int64_t>(cfg.q)},
                              cols / cfg.q,
                              {static_cast<std::int64_t>(cfg.p), 0},
                              rows / cfg.p};
      block_.resize(tile.size());
      std::int64_t g = 0;
      for (std::int64_t br = 0; br < rows; br += cfg.p)
        for (std::int64_t bc = 0; bc < cols; bc += cfg.q)
          for (std::int64_t u = 0; u < cfg.p; ++u)
            for (std::int64_t v = 0; v < cfg.q; ++v)
              block_[static_cast<std::size_t>(g++)] =
                  tile[static_cast<std::size_t>((br + u) * cols + bc + v)];
      mem_->write_batch(batch, block_);
      stats.polymem_accesses += static_cast<std::uint64_t>(batch.count());
      break;
    }
    case Shape::kScalar:
      mem_->fill_rect(origin, rows, cols, tile);
      stats.polymem_accesses += static_cast<std::uint64_t>(rows * cols);
      break;
  }
}

void DmaEngine::read_polymem(std::span<hw::Word> tile, std::int64_t rows,
                             std::int64_t cols, Coord origin,
                             DmaStats& stats) {
  const auto& cfg = mem_->config();
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const Shape shape = pick_shape(rows, cols, origin);

  switch (shape) {
    case Shape::kRowAccesses: {
      const AccessBatch batch{PatternKind::kRow, origin,    {0, lanes},
                              cols / lanes,      {1, 0},    rows};
      mem_->read_batch(batch, 0, tile);
      stats.polymem_accesses += static_cast<std::uint64_t>(batch.count());
      break;
    }
    case Shape::kRectAccesses: {
      const AccessBatch batch{PatternKind::kRect,
                              origin,
                              {0, static_cast<std::int64_t>(cfg.q)},
                              cols / cfg.q,
                              {static_cast<std::int64_t>(cfg.p), 0},
                              rows / cfg.p};
      block_.resize(tile.size());
      mem_->read_batch(batch, 0, block_);
      std::int64_t g = 0;
      for (std::int64_t br = 0; br < rows; br += cfg.p)
        for (std::int64_t bc = 0; bc < cols; bc += cfg.q)
          for (std::int64_t u = 0; u < cfg.p; ++u)
            for (std::int64_t v = 0; v < cfg.q; ++v)
              tile[static_cast<std::size_t>((br + u) * cols + bc + v)] =
                  block_[static_cast<std::size_t>(g++)];
      stats.polymem_accesses += static_cast<std::uint64_t>(batch.count());
      break;
    }
    case Shape::kScalar:
      mem_->dump_rect(origin, rows, cols, tile);
      stats.polymem_accesses += static_cast<std::uint64_t>(rows * cols);
      break;
  }
}

DmaStats DmaEngine::write_staged(std::span<const hw::Word> tile,
                                 std::int64_t rows, std::int64_t cols,
                                 Coord origin) {
  check_staged(tile, rows, cols, origin);
  DmaStats stats;
  stats.words = static_cast<std::uint64_t>(rows * cols);
  write_polymem(tile, rows, cols, origin, stats);
  stats.polymem_cycles = stats.polymem_accesses;
  return stats;
}

DmaStats DmaEngine::load_tile(const LMemMatrix& src, std::int64_t tile_i,
                              std::int64_t tile_j, std::int64_t rows,
                              std::int64_t cols, Coord dst_origin) {
  check_tile(src, tile_i, tile_j, rows, cols, dst_origin);
  DmaStats stats;
  stats.words = static_cast<std::uint64_t>(rows * cols);
  stats.lmem_seconds =
      lmem_->burst_seconds(static_cast<std::uint64_t>(rows) * cols * 8);

  // The whole tile is staged row-major (the DMA's burst buffer).
  stage_.resize(static_cast<std::size_t>(rows * cols));
  for (std::int64_t r = 0; r < rows; ++r)
    lmem_->read(src.word_addr(tile_i + r, tile_j),
                std::span<hw::Word>(stage_).subspan(
                    static_cast<std::size_t>(r * cols),
                    static_cast<std::size_t>(cols)));

  write_polymem(stage_, rows, cols, dst_origin, stats);
  stats.polymem_cycles = stats.polymem_accesses;
  return stats;
}

DmaStats DmaEngine::store_tile(const LMemMatrix& dst, std::int64_t tile_i,
                               std::int64_t tile_j, std::int64_t rows,
                               std::int64_t cols, Coord src_origin) {
  check_tile(dst, tile_i, tile_j, rows, cols, src_origin);
  DmaStats stats;
  stats.words = static_cast<std::uint64_t>(rows * cols);
  stats.lmem_seconds =
      lmem_->burst_seconds(static_cast<std::uint64_t>(rows) * cols * 8);

  stage_.resize(static_cast<std::size_t>(rows * cols));
  read_polymem(stage_, rows, cols, src_origin, stats);

  for (std::int64_t r = 0; r < rows; ++r)
    lmem_->write(dst.word_addr(tile_i + r, tile_j),
                 std::span<const hw::Word>(stage_).subspan(
                     static_cast<std::size_t>(r * cols),
                     static_cast<std::size_t>(cols)));
  stats.polymem_cycles = stats.polymem_accesses;
  return stats;
}

}  // namespace polymem::maxsim
