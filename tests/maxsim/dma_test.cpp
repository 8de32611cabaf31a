#include "maxsim/dma.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/units.hpp"
#include "maf/scheme.hpp"

namespace polymem::maxsim {
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

// An LMem holding a 64x64 row-major matrix of i*1000 + j at word 100.
LMemMatrix make_matrix(LMem& lmem) {
  LMemMatrix m{100, 64, 64, 64};
  std::vector<hw::Word> row(64);
  for (std::int64_t i = 0; i < 64; ++i) {
    for (std::int64_t j = 0; j < 64; ++j)
      row[static_cast<std::size_t>(j)] =
          static_cast<hw::Word>(i * 1000 + j);
    lmem.write(m.word_addr(i, 0), row);
  }
  return m;
}

TEST(DmaEngine, LoadTileUsesParallelRowAccesses) {
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);

  const auto stats = dma.load_tile(m, 8, 16, 4, 16, {2, 8});
  EXPECT_EQ(stats.words, 64u);
  // 4 rows x (16 cols / 8 lanes) = 8 parallel accesses.
  EXPECT_EQ(stats.polymem_accesses, 8u);
  EXPECT_GT(stats.lmem_seconds, 0.0);
  for (std::int64_t i = 0; i < 4; ++i)
    for (std::int64_t j = 0; j < 16; ++j)
      EXPECT_EQ(mem.load({2 + i, 8 + j}),
                static_cast<hw::Word>((8 + i) * 1000 + 16 + j));
}

TEST(DmaEngine, StoreTileRoundTrip) {
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);
  // Modify a tile inside PolyMem and push it back to a different place.
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 8; ++j)
      mem.store({i, j}, static_cast<hw::Word>(7000 + i * 10 + j));
  const auto stats = dma.store_tile(m, 40, 40, 2, 8, {0, 0});
  EXPECT_EQ(stats.polymem_accesses, 2u);
  std::vector<hw::Word> out(8);
  lmem.read(m.word_addr(40, 40), out);
  for (std::int64_t j = 0; j < 8; ++j)
    EXPECT_EQ(out[static_cast<std::size_t>(j)],
              static_cast<hw::Word>(7000 + j));
}

TEST(DmaEngine, SchemeWithoutRowsUsesRectangleAccesses) {
  // ReO serves no rows, but its rectangles work at any anchor: a 2x8
  // tile moves in two 2x4 parallel accesses.
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg(maf::Scheme::kReO));
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);
  EXPECT_EQ(dma.pick_shape(2, 8, {1, 0}), DmaEngine::Shape::kRectAccesses);
  const auto stats = dma.load_tile(m, 4, 8, 2, 8, {1, 0});
  EXPECT_EQ(stats.polymem_accesses, 2u);
  for (std::int64_t i = 0; i < 2; ++i)
    for (std::int64_t j = 0; j < 8; ++j)
      EXPECT_EQ(mem.load({1 + i, j}),
                static_cast<hw::Word>((4 + i) * 1000 + 8 + j));
  // Round trip back out through rect reads.
  const auto out_stats = dma.store_tile(m, 50, 0, 2, 8, {1, 0});
  EXPECT_EQ(out_stats.polymem_accesses, 2u);
  std::vector<hw::Word> out(8);
  lmem.read(m.word_addr(50, 0), out);
  EXPECT_EQ(out[3], static_cast<hw::Word>(4 * 1000 + 8 + 3));
}

TEST(DmaEngine, AwkwardTilesFallBackToScalar) {
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);
  // 2x6: not a lane multiple and 6 % q != 0 -> scalar.
  EXPECT_EQ(dma.pick_shape(2, 6, {0, 0}), DmaEngine::Shape::kScalar);
  const auto stats = dma.load_tile(m, 0, 0, 2, 6, {0, 0});
  EXPECT_EQ(stats.polymem_accesses, 12u);
  EXPECT_EQ(mem.load({1, 3}), static_cast<hw::Word>(1003));
}

TEST(DmaEngine, RoCoRectanglesOnlyWhenAligned) {
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg(maf::Scheme::kRoCo));
  DmaEngine dma(lmem, mem);
  // RoCo rows are any-anchor, so lane-multiple tiles still go as rows.
  EXPECT_EQ(dma.pick_shape(2, 8, {1, 1}), DmaEngine::Shape::kRowAccesses);
  // A 2x4 tile (not a lane multiple of 8): rect path needs alignment.
  EXPECT_EQ(dma.pick_shape(2, 4, {0, 0}), DmaEngine::Shape::kRectAccesses);
  EXPECT_EQ(dma.pick_shape(2, 4, {1, 0}), DmaEngine::Shape::kScalar);
}

TEST(DmaEngine, TileBoundsChecked) {
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);
  EXPECT_THROW(dma.load_tile(m, 60, 0, 8, 8, {0, 0}), InvalidArgument);
  EXPECT_THROW(dma.load_tile(m, 0, 60, 2, 8, {0, 0}), InvalidArgument);
  EXPECT_THROW(dma.load_tile(m, 0, 0, 2, 8, {15, 0}), InvalidArgument);
  EXPECT_THROW(dma.load_tile(m, 0, 0, 0, 8, {0, 0}), InvalidArgument);
}

TEST(DmaEngine, CachingWinOverDirectLMemAccess) {
  // The Fig. 1 argument: load a tile once (one DRAM burst), then reuse it
  // from PolyMem many times. Compare against touching DRAM per reuse.
  LMem lmem(1 << 20);
  core::PolyMem mem(pm_cfg());
  DmaEngine dma(lmem, mem);
  const auto m = make_matrix(lmem);
  const auto load = dma.load_tile(m, 0, 0, 4, 16, {0, 0});

  const int reuses = 16;
  const double polymem_cycle = 1.0 / 120e6;  // one access per cycle @120MHz
  const double cached = load.lmem_seconds +
                        (load.polymem_cycles + reuses * 8.0) * polymem_cycle;
  const double uncached = reuses * lmem.burst_seconds(64 * 8);
  EXPECT_LT(cached, uncached);
}

TEST(DmaStats, Accumulate) {
  DmaStats a{.words = 10, .polymem_accesses = 2, .polymem_cycles = 2,
             .lmem_seconds = 1e-6, .cache = {}};
  DmaStats b{.words = 30, .polymem_accesses = 4, .polymem_cycles = 4,
             .lmem_seconds = 2e-6, .cache = {}};
  a.cache.hits = 1;
  b.cache.misses = 2;
  a += b;
  EXPECT_EQ(a.words, 40u);
  EXPECT_EQ(a.polymem_accesses, 6u);
  EXPECT_DOUBLE_EQ(a.lmem_seconds, 3e-6);
  EXPECT_EQ(a.cache.hits, 1u);
  EXPECT_EQ(a.cache.misses, 2u);
}

TEST(DmaEngine, BatchedPathMatchesLegacyPerAccessPath) {
  // The batched engine (read_batch/write_batch through the plan cache)
  // must move bits and account stats exactly like the same transfers on a
  // PolyMem whose plan cache is off, where every access runs on the AGU
  // reference, for every scheme and every shape the picker can choose.
  struct Case {
    std::int64_t row, col, rows, cols;
    access::Coord origin;
  };
  const Case cases[] = {
      {8, 16, 4, 16, {2, 8}},   // row accesses (lane multiples)
      {4, 8, 2, 8, {0, 0}},     // rect on ReO, rows elsewhere
      {0, 0, 2, 6, {0, 0}},     // scalar fallback
      {20, 4, 6, 4, {2, 4}},    // rect-aligned narrow tile
      {1, 1, 3, 5, {0, 0}},     // odd everything: scalar
  };
  for (maf::Scheme scheme : maf::kAllSchemes) {
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(maf::scheme_name(scheme)) + " tile " +
                   std::to_string(c.rows) + "x" + std::to_string(c.cols));
      LMem lmem_a(1 << 20);
      LMem lmem_b(1 << 20);
      core::PolyMem mem_a(pm_cfg(scheme));
      core::PolyMem mem_b(pm_cfg(scheme));
      mem_b.set_plan_cache_enabled(false);
      DmaEngine batched(lmem_a, mem_a);
      DmaEngine legacy(lmem_b, mem_b);
      const auto ma = make_matrix(lmem_a);
      const auto mb = make_matrix(lmem_b);

      const auto sa = batched.load_tile(ma, c.row, c.col, c.rows, c.cols,
                                        c.origin);
      const auto sb = legacy.load_tile(mb, c.row, c.col, c.rows, c.cols,
                                       c.origin);
      EXPECT_EQ(sa.words, sb.words);
      EXPECT_EQ(sa.polymem_accesses, sb.polymem_accesses);
      EXPECT_EQ(sa.polymem_cycles, sb.polymem_cycles);
      EXPECT_DOUBLE_EQ(sa.lmem_seconds, sb.lmem_seconds);
      for (std::int64_t i = 0; i < c.rows; ++i)
        for (std::int64_t j = 0; j < c.cols; ++j)
          ASSERT_EQ(mem_a.load({c.origin.i + i, c.origin.j + j}),
                    mem_b.load({c.origin.i + i, c.origin.j + j}))
              << "loaded (" << i << "," << j << ")";

      // Round-trip: store the tile somewhere else and compare LMem.
      const auto ra = batched.store_tile(ma, 48, 32, c.rows, c.cols, c.origin);
      const auto rb = legacy.store_tile(mb, 48, 32, c.rows, c.cols, c.origin);
      EXPECT_EQ(ra.polymem_accesses, rb.polymem_accesses);
      EXPECT_DOUBLE_EQ(ra.lmem_seconds, rb.lmem_seconds);
      std::vector<hw::Word> out_a(static_cast<std::size_t>(c.cols));
      std::vector<hw::Word> out_b(static_cast<std::size_t>(c.cols));
      for (std::int64_t i = 0; i < c.rows; ++i) {
        lmem_a.read(ma.word_addr(48 + i, 32), out_a);
        lmem_b.read(mb.word_addr(48 + i, 32), out_b);
        ASSERT_EQ(out_a, out_b) << "stored row " << i;
      }
      EXPECT_EQ(mem_b.plan_cache().hits() + mem_b.plan_cache().builds(), 0u);
    }
  }
}

}  // namespace
}  // namespace polymem::maxsim
