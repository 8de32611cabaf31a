// DMA engine between board DRAM (LMem) and PolyMem.
//
// Completes the paper's Fig. 1 system organisation: PolyMem "acts like a
// high-bandwidth, 2D parallel software cache" between the off-chip DRAM
// and the kernel. The DMA engine moves rectangular tiles of a row-major
// LMem matrix into/out of the PolyMem 2D space, using full-width parallel
// accesses where the scheme supports them, and accounts both sides' time
// (LMem burst time vs PolyMem cycles) so applications can quantify the
// caching win.
//
// The PolyMem side of a transfer runs through the batched access engine
// (PolyMem::read_batch / write_batch): the whole tile is one validated
// AccessBatch, lowered row by row through the plan-template cache (one
// lookup per residue class a row visits, a copy for the rest of the row)
// and executed as one gather or scatter. The LMem side moves each tile
// row as page runs (maxsim/lmem.hpp). A PolyMem whose plan cache is off runs
// those batches access by access on the AGU reference, the differential
// oracle of tests/maxsim/dma_test.cpp.
#pragma once

#include <cstdint>
#include <span>

#include "access/coord.hpp"
#include "common/stats.hpp"
#include "core/polymem.hpp"
#include "maxsim/lmem.hpp"

namespace polymem::maxsim {

/// Timing/volume accounting of one tile transfer (and, aggregated, of a
/// software-cache session: TileCache sums the DmaStats of its refills and
/// write-backs and fills in the `cache` event counters).
struct DmaStats {
  std::uint64_t words = 0;            ///< elements moved
  std::uint64_t polymem_accesses = 0; ///< parallel accesses used
  std::uint64_t polymem_cycles = 0;   ///< == polymem_accesses (1/cycle)
  double lmem_seconds = 0;            ///< DRAM burst time for the tile
  CacheCounters cache;                ///< cache events (zero for raw DMA)

  DmaStats& operator+=(const DmaStats& other);
};

/// Describes a dense row-major matrix resident in LMem.
struct LMemMatrix {
  std::uint64_t base_word = 0;   ///< word address of element (0, 0)
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t leading_dim = 0;  ///< words between consecutive rows

  std::uint64_t word_addr(std::int64_t i, std::int64_t j) const {
    return base_word + static_cast<std::uint64_t>(i * leading_dim + j);
  }
};

class DmaEngine {
 public:
  DmaEngine(LMem& lmem, core::PolyMem& polymem);

  /// Copies the rows x cols tile of `src` anchored at (tile_i, tile_j)
  /// into PolyMem at `dst_origin`. The engine picks the widest transfer
  /// the scheme serves at these anchors: full-lane ROW accesses, then
  /// p x q RECTANGLE accesses, then element-wise stores through
  /// PolyMem::fill_rect (counted one access per element — the honest cost
  /// of a scheme mismatch).
  DmaStats load_tile(const LMemMatrix& src, std::int64_t tile_i,
                     std::int64_t tile_j, std::int64_t rows,
                     std::int64_t cols, access::Coord dst_origin);

  /// The reverse: PolyMem tile -> LMem.
  DmaStats store_tile(const LMemMatrix& dst, std::int64_t tile_i,
                      std::int64_t tile_j, std::int64_t rows,
                      std::int64_t cols, access::Coord src_origin);

  /// The PolyMem half of a load on its own: writes a staged row-major
  /// tile buffer (rows * cols words) into the frame at `origin`, LMem
  /// untouched (lmem_seconds stays 0). load_tile is "LMem burst +
  /// write_staged"; the software cache calls it directly to install a tile
  /// its prefetcher already staged.
  DmaStats write_staged(std::span<const hw::Word> tile, std::int64_t rows,
                        std::int64_t cols, access::Coord origin);

  /// The transfer shape the engine would use for this tile.
  enum class Shape : std::uint8_t { kRowAccesses, kRectAccesses, kScalar };
  Shape pick_shape(std::int64_t rows, std::int64_t cols,
                   access::Coord origin) const;

 private:
  void check_tile(const LMemMatrix& m, std::int64_t tile_i,
                  std::int64_t tile_j, std::int64_t rows,
                  std::int64_t cols, access::Coord origin) const;
  void check_staged(std::span<const hw::Word> tile, std::int64_t rows,
                    std::int64_t cols, access::Coord origin) const;
  /// Moves a row-major rows x cols tile buffer into / out of PolyMem at
  /// `origin` in the pick_shape() transfer shape, counting the accesses.
  void write_polymem(std::span<const hw::Word> tile, std::int64_t rows,
                     std::int64_t cols, access::Coord origin,
                     DmaStats& stats);
  void read_polymem(std::span<hw::Word> tile, std::int64_t rows,
                    std::int64_t cols, access::Coord origin, DmaStats& stats);

  LMem* lmem_;
  core::PolyMem* mem_;
  std::vector<hw::Word> stage_;  ///< tile burst buffer (reused)
  std::vector<hw::Word> block_;  ///< rect-order staging (reused)
};

}  // namespace polymem::maxsim
