// Ordered write-back: flush() returns dirty tiles to LMem in ascending
// address order, so adjacent tiles coalesce into one burst run
// (counters().flush_runs) and a hole in the order starts a new one.
#include <gtest/gtest.h>

#include "cache/tile_cache.hpp"

namespace polymem::cache {
namespace {

core::PolyMemConfig pm_cfg() {
  core::PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  return c;
}

// A 64x64 LMem matrix of i*1000 + j at word 64; 8x32 tiles -> an 8x2
// tile grid whose lexicographic (ti, tj) key is the LMem address order.
maxsim::LMemMatrix make_matrix(maxsim::LMem& lmem) {
  maxsim::LMemMatrix m{64, 64, 64, 64};
  std::vector<hw::Word> row(64);
  for (std::int64_t i = 0; i < 64; ++i) {
    for (std::int64_t j = 0; j < 64; ++j)
      row[static_cast<std::size_t>(j)] = static_cast<hw::Word>(i * 1000 + j);
    lmem.write(m.word_addr(i, 0), row);
  }
  return m;
}

// Dirty one word of tile (ti, tj) through the PolyMem and mark it.
void dirty_tile(TileCache& cache, std::int64_t ti, std::int64_t tj,
                hw::Word value) {
  const auto ref = cache.acquire(ti, tj);
  cache.polymem().store({ref.origin.i + 1, ref.origin.j + 2}, value);
  cache.mark_dirty(ref.frame);
}

hw::Word lmem_at(maxsim::LMem& lmem, const maxsim::LMemMatrix& m,
                 std::int64_t i, std::int64_t j) {
  std::vector<hw::Word> one(1);
  lmem.read(m.word_addr(i, j), one);
  return one[0];
}

TEST(TileCacheFlush, ContiguousDirtyTilesFlushAsOneRun) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, core::FramePool::whole_space(mem.config(), 8, 32));

  // Tiles (0,0) and (0,1): adjacent LMem keys 0 and 1.
  dirty_tile(cache, 0, 0, 111);
  dirty_tile(cache, 0, 1, 222);
  cache.flush();

  EXPECT_EQ(cache.stats().counters().flush_runs, 1u);
  EXPECT_EQ(cache.stats().counters().writebacks, 2u);
  // Tile (0,0) covers rows 0-7 cols 0-31; (0,1) rows 0-7 cols 32-63.
  EXPECT_EQ(lmem_at(lmem, m, 1, 2), 111u);
  EXPECT_EQ(lmem_at(lmem, m, 1, 34), 222u);
  // An untouched neighbour survives the write-back.
  EXPECT_EQ(lmem_at(lmem, m, 1, 3), 1003u);

  // Flushing clean frames is a no-op.
  cache.flush();
  EXPECT_EQ(cache.stats().counters().flush_runs, 1u);
}

TEST(TileCacheFlush, DisjointDirtyTilesFlushAsSeparateRuns) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, core::FramePool::whole_space(mem.config(), 8, 32));

  // Keys 0 and 5 (tile (2,1)): a hole in the address order.
  dirty_tile(cache, 0, 0, 111);
  dirty_tile(cache, 2, 1, 333);
  cache.flush();

  EXPECT_EQ(cache.stats().counters().flush_runs, 2u);
  EXPECT_EQ(lmem_at(lmem, m, 1, 2), 111u);
  EXPECT_EQ(lmem_at(lmem, m, 17, 34), 333u);
}

}  // namespace
}  // namespace polymem::cache
