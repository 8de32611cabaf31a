// Prefetch hammer: repeated sequential sweeps (the prefetcher's trigger
// pattern) mixed with writes, flushes and invalidations, with a thread
// pool configured as the prefetch pool. The prefetch stages its tile on
// the calling thread, so no worker touches the cache or LMem; these stay
// in the TSan gate to keep it that way (a reintroduced worker handoff
// would race here) and as a coherence check of staged tiles against
// writes and invalidations. LMem's own lock is gated by
// LMem.ConcurrentPageCrossingTransfersKeepEveryWord.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cached_matrix.hpp"
#include "common/rng.hpp"

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

TEST(PrefetchHammer, SweepsStayCoherentUnderAsyncPrefetch) {
  maxsim::LMem lmem(1 << 22);
  core::PolyMem mem(pm_cfg());
  const maxsim::LMemMatrix m{0, 64, 32, 32};
  std::vector<hw::Word> mirror(static_cast<std::size_t>(m.rows * m.cols));
  for (std::size_t k = 0; k < mirror.size(); ++k)
    mirror[k] = static_cast<hw::Word>(k * 2654435761u);
  for (std::int64_t i = 0; i < m.rows; ++i)
    lmem.write(m.word_addr(i, 0),
               std::span<const hw::Word>(mirror).subspan(
                   static_cast<std::size_t>(i * m.cols),
                   static_cast<std::size_t>(m.cols)));

  runtime::ThreadPool pool(3);
  // 4 frames of 4x32 caching a 64x32 matrix: every sweep misses on 12 of
  // 16 tiles, keeping prefetches in flight nearly continuously.
  CachedMatrix cached(lmem, mem, m,
                      core::FramePool::whole_space(mem.config(), 4, 32),
                      {.prefetch_pool = &pool});

  Rng rng(31337);
  std::vector<hw::Word> buf(static_cast<std::size_t>(m.cols));
  for (int sweep = 0; sweep < 12; ++sweep) {
    for (std::int64_t i = 0; i < m.rows; ++i) {
      cached.read_row(i, 0, buf);
      for (std::int64_t j = 0; j < m.cols; ++j)
        ASSERT_EQ(buf[static_cast<std::size_t>(j)],
                  mirror[static_cast<std::size_t>(i * m.cols + j)])
            << "sweep " << sweep << " row " << i << " col " << j;
      if (rng.chance(0.2)) {
        const std::int64_t j = rng.uniform(0, m.cols - 1);
        const hw::Word w = rng.bits();
        cached.write(i, j, w);
        mirror[static_cast<std::size_t>(i * m.cols + j)] = w;
      }
    }
    // Periodically force the cold-start paths with a tile staged: flush
    // keeps LMem current, invalidate drops residency and the staging.
    if (sweep % 4 == 3) {
      cached.flush();
      cached.cache().invalidate();
    }
  }
  cached.flush();

  std::vector<hw::Word> row(static_cast<std::size_t>(m.cols));
  for (std::int64_t i = 0; i < m.rows; ++i) {
    lmem.read(m.word_addr(i, 0), row);
    for (std::int64_t j = 0; j < m.cols; ++j)
      ASSERT_EQ(row[static_cast<std::size_t>(j)],
                mirror[static_cast<std::size_t>(i * m.cols + j)])
          << "final row " << i << " col " << j;
  }

  const auto stats = cached.stats();
  EXPECT_GT(stats.counters().prefetch_issued, 0u);
  EXPECT_GT(stats.counters().prefetch_useful, 0u);
}

TEST(PrefetchHammer, ManyShortLivedCachesDrainCleanly) {
  // Construction/teardown: each cache stages a prefetch and is destroyed
  // with it still unconsumed; nothing may outlive the cache.
  runtime::ThreadPool pool(3);
  maxsim::LMem lmem(1 << 22);
  const maxsim::LMemMatrix m{0, 64, 32, 32};
  std::vector<hw::Word> row(static_cast<std::size_t>(m.cols), 7);
  for (std::int64_t i = 0; i < m.rows; ++i) lmem.write(m.word_addr(i, 0), row);

  for (int round = 0; round < 40; ++round) {
    core::PolyMem mem(pm_cfg());
    TileCache cache(lmem, mem, m,
                    core::FramePool::whole_space(mem.config(), 4, 32),
                    {.prefetch_pool = &pool});
    const auto ref = cache.acquire(round % 8, 0);  // issues a prefetch
    EXPECT_EQ(mem.load(ref.origin), 7u);
  }
  pool.wait_idle();
}

}  // namespace
}  // namespace polymem::cache
