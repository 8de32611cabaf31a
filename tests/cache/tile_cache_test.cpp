#include "cache/tile_cache.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace polymem::cache {
namespace {

core::PolyMemConfig pm_cfg(maf::Scheme scheme = maf::Scheme::kReRo) {
  core::PolyMemConfig c;
  c.scheme = scheme;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  return c;
}

// A rows x cols LMem matrix of i*1000 + j at word 64.
maxsim::LMemMatrix make_matrix(maxsim::LMem& lmem, std::int64_t rows = 64,
                               std::int64_t cols = 64) {
  maxsim::LMemMatrix m{64, rows, cols, cols};
  std::vector<hw::Word> row(static_cast<std::size_t>(cols));
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j)
      row[static_cast<std::size_t>(j)] = static_cast<hw::Word>(i * 1000 + j);
    lmem.write(m.word_addr(i, 0), row);
  }
  return m;
}

// Two full-width 8-row frames over the 16x32 space.
core::FramePool two_frames(const core::PolyMemConfig& cfg) {
  return core::FramePool::whole_space(cfg, 8, 32);
}

TEST(TileCache, MissLoadsTileAndHitReusesIt) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));
  EXPECT_EQ(cache.tiles_i(), 8);
  EXPECT_EQ(cache.tiles_j(), 2);

  const auto ref = cache.acquire(2, 1);
  EXPECT_EQ(ref.rows, 8);
  EXPECT_EQ(ref.cols, 32);
  for (std::int64_t r = 0; r < 8; ++r)
    for (std::int64_t c = 0; c < 32; ++c)
      EXPECT_EQ(mem.load({ref.origin.i + r, ref.origin.j + c}),
                static_cast<hw::Word>((16 + r) * 1000 + 32 + c));

  const auto again = cache.acquire(2, 1);
  EXPECT_EQ(again.frame, ref.frame);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.counters().hits, 1u);
  EXPECT_EQ(stats.counters().misses, 1u);
  EXPECT_DOUBLE_EQ(stats.counters().hit_rate(), 0.5);
  // One 8x32 refill over 8-lane rows: 8 * (32/8) parallel accesses.
  EXPECT_EQ(stats.dma.polymem_accesses, 32u);
  EXPECT_GT(stats.dma.lmem_seconds, 0.0);
}

TEST(TileCache, LruEvictsLeastRecentlyTouched) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()),
                  {.eviction = EvictionKind::kLru});

  cache.acquire(0, 0);
  cache.acquire(0, 1);
  cache.acquire(0, 0);  // touch (0,0): (0,1) is now the LRU victim
  cache.acquire(1, 0);
  EXPECT_TRUE(cache.resident(0, 0));
  EXPECT_FALSE(cache.resident(0, 1));
  EXPECT_TRUE(cache.resident(1, 0));
  EXPECT_EQ(cache.stats().counters().evictions, 1u);
}

TEST(TileCache, FifoEvictsOldestRegardlessOfTouches) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()),
                  {.eviction = EvictionKind::kFifo});

  cache.acquire(0, 0);
  cache.acquire(0, 1);
  cache.acquire(0, 0);  // touching does not rescue (0,0) under FIFO
  cache.acquire(1, 0);
  EXPECT_FALSE(cache.resident(0, 0));
  EXPECT_TRUE(cache.resident(0, 1));
}

TEST(TileCache, DirtyTileWritesBackOnEviction) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));

  const auto ref = cache.acquire(0, 0);
  mem.store({ref.origin.i + 1, ref.origin.j + 2}, 4242);
  cache.mark_dirty(ref.frame);
  cache.acquire(0, 1);
  cache.acquire(1, 0);  // evicts (0, 0)
  EXPECT_FALSE(cache.resident(0, 0));

  std::vector<hw::Word> row(32);
  lmem.read(m.word_addr(1, 0), row);
  EXPECT_EQ(row[2], 4242u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.counters().writebacks, 1u);
  EXPECT_EQ(stats.counters().evictions, 1u);
}

TEST(TileCache, FlushWritesEveryDirtyTile) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));

  const auto a = cache.acquire(3, 0);
  const auto b = cache.acquire(3, 1);
  mem.store(a.origin, 111);
  mem.store(b.origin, 222);
  cache.mark_dirty(a.frame);
  cache.mark_dirty(b.frame);
  cache.flush();

  std::vector<hw::Word> row(64);
  lmem.read(m.word_addr(24, 0), row);
  EXPECT_EQ(row[0], 111u);
  EXPECT_EQ(row[32], 222u);
  EXPECT_EQ(cache.stats().counters().writebacks, 2u);
  // A second flush has nothing left to do.
  cache.flush();
  EXPECT_EQ(cache.stats().counters().writebacks, 2u);
}

TEST(TileCache, WriteThroughKeepsLMemCurrentWithoutWritebacks) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()),
                  {.write_policy = WritePolicy::kWriteThrough});

  const auto ref = cache.acquire(0, 0);
  const hw::Word value = 9001;
  mem.store(ref.origin, value);
  cache.mark_dirty(ref.frame);  // no-op under write-through
  cache.write_through(0, 0, std::span<const hw::Word>(&value, 1));

  std::vector<hw::Word> row(1);
  lmem.read(m.word_addr(0, 0), row);
  EXPECT_EQ(row[0], value);
  cache.flush();
  EXPECT_EQ(cache.stats().counters().writebacks, 0u);
}

TEST(TileCache, InvalidateDropsDirtyDataWithoutWriteback) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));

  const auto ref = cache.acquire(0, 0);
  mem.store(ref.origin, 777);
  cache.mark_dirty(ref.frame);
  cache.invalidate();
  EXPECT_FALSE(cache.resident(0, 0));

  std::vector<hw::Word> row(1);
  lmem.read(m.word_addr(0, 0), row);
  EXPECT_EQ(row[0], 0u);  // original value, not 777
  EXPECT_EQ(cache.stats().counters().writebacks, 0u);
  // Reacquiring reloads from LMem.
  const auto fresh = cache.acquire(0, 0);
  EXPECT_EQ(mem.load(fresh.origin), 0u);
}

TEST(TileCache, EdgeTilesAreClipped) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem, 20, 40);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));
  EXPECT_EQ(cache.tiles_i(), 3);
  EXPECT_EQ(cache.tiles_j(), 2);

  const auto corner = cache.acquire(2, 1);
  EXPECT_EQ(corner.rows, 4);
  EXPECT_EQ(corner.cols, 8);
  for (std::int64_t r = 0; r < corner.rows; ++r)
    for (std::int64_t c = 0; c < corner.cols; ++c)
      EXPECT_EQ(mem.load({corner.origin.i + r, corner.origin.j + c}),
                static_cast<hw::Word>((16 + r) * 1000 + 32 + c));
  // Round-trip a dirty edge tile.
  mem.store(corner.origin, 31337);
  cache.mark_dirty(corner.frame);
  cache.flush();
  std::vector<hw::Word> row(1);
  lmem.read(m.word_addr(16, 32), row);
  EXPECT_EQ(row[0], 31337u);
}

TEST(TileCache, SynchronousPrefetchConsumption) {
  // With a pool, a miss on the predicted next tile must consume the
  // staged burst.
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  runtime::ThreadPool pool(2);
  TileCache cache(lmem, mem, m, two_frames(mem.config()),
                  {.prefetch_pool = &pool});

  cache.acquire(0, 0);  // issues prefetch of (0, 1)
  const auto ref = cache.acquire(0, 1);
  for (std::int64_t c = 0; c < 32; ++c)
    EXPECT_EQ(mem.load({ref.origin.i, ref.origin.j + c}),
              static_cast<hw::Word>(32 + c));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.counters().prefetch_issued, 2u);  // (0,1) and (1,0)
  EXPECT_EQ(stats.counters().prefetch_useful, 1u);
  EXPECT_GE(stats.lmem_seconds_overlapped, 0.0);
}

// A jumping acquire order: most misses land on a tile other than the
// staged one, so the prefetch slot is dropped, overwritten and consumed
// in turn. The prefetch stages on the calling thread, so the whole
// CacheStats is a function of the acquire order alone: identical on
// pools of 0, 1 and 3 workers and on every repeat.
TEST(TileCache, JumpingAcquireOrderStatsAreDeterministic) {
  const auto run = [](unsigned workers) {
    maxsim::LMem lmem(1 << 20);
    core::PolyMem mem(pm_cfg());
    const auto m = make_matrix(lmem);
    runtime::ThreadPool pool(workers);
    TileCache cache(lmem, mem, m, two_frames(mem.config()),
                    {.prefetch_pool = &pool});
    for (std::int64_t n = 0; n < 48; ++n) {
      // Sequential stretches (the prefetch hits) broken by jumps.
      const std::int64_t ti = n % 5 == 4 ? (n * 3) % 8 : (n / 2) % 8;
      const std::int64_t tj = n % 5 == 4 ? 1 - n % 2 : n % 2;
      const auto ref = cache.acquire(ti, tj);
      EXPECT_EQ(mem.load(ref.origin), static_cast<hw::Word>(ti * 8000 +
                                                            tj * 32))
          << "n " << n;
      cache.note_kernel_accesses(static_cast<std::uint64_t>(n % 7) * 5,
                                 static_cast<std::uint64_t>(n % 7) * 40);
      if (n % 3 == 0) cache.mark_dirty(ref.frame);
    }
    cache.flush();
    return cache.stats();
  };
  const CacheStats want = run(0);
  EXPECT_GT(want.counters().prefetch_useful, 0u);
  EXPECT_GT(want.counters().prefetch_dropped, 0u);
  EXPECT_GT(want.counters().writebacks, 0u);
  for (unsigned workers : {0u, 1u, 3u}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      const CacheStats got = run(workers);
      EXPECT_EQ(got.counters(), want.counters()) << workers << " workers";
      EXPECT_EQ(got.dma.words, want.dma.words);
      EXPECT_EQ(got.dma.polymem_accesses, want.dma.polymem_accesses);
      EXPECT_EQ(got.dma.polymem_cycles, want.dma.polymem_cycles);
      EXPECT_EQ(got.dma.lmem_seconds, want.dma.lmem_seconds);
      EXPECT_EQ(got.lmem_seconds_overlapped, want.lmem_seconds_overlapped);
      EXPECT_EQ(got.kernel_accesses, want.kernel_accesses);
    }
  }
}

TEST(TileCache, RejectsOutOfRangeTiles) {
  maxsim::LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  const auto m = make_matrix(lmem);
  TileCache cache(lmem, mem, m, two_frames(mem.config()));
  EXPECT_THROW(cache.acquire(8, 0), InvalidArgument);
  EXPECT_THROW(cache.acquire(0, 2), InvalidArgument);
  EXPECT_THROW(cache.acquire(-1, 0), InvalidArgument);
}

}  // namespace
}  // namespace polymem::cache
