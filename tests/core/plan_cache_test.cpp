// Differential tests of the plan-template cache and the batched access
// engine: for every scheme x supported pattern x an anchor sweep covering
// more than one MAF period, the cached/batched path must produce bitwise
// identical plans and read/write results to the naive AGU path. This is
// the correctness gate for the whole fast path.
#include "core/plan_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "core/polymem.hpp"
#include "maf/conflict.hpp"

namespace polymem::core {
namespace {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;
using maf::Scheme;
using maf::SupportLevel;

struct Geometry {
  unsigned p;
  unsigned q;
};

// {4, 8} is the largest table: ReTr 4x8 has 32 x 128 = 4096 classes.
constexpr Geometry kGeometries[] = {{2, 4}, {4, 2}, {4, 4}, {1, 4}, {4, 8}};

// An address space wide enough to sweep anchors across two full MAF
// periods plus the widest pattern extent.
PolyMemConfig make_config(Scheme scheme, Geometry g) {
  const maf::Maf maf(scheme, g.p, g.q);
  const std::int64_t n = static_cast<std::int64_t>(g.p) * g.q;
  PolyMemConfig cfg;
  cfg.scheme = scheme;
  cfg.p = g.p;
  cfg.q = g.q;
  cfg.height = round_up<std::int64_t>(2 * maf.period_i() + 2 * n, g.p);
  cfg.width = round_up<std::int64_t>(2 * maf.period_j() + 2 * n, g.q);
  cfg.validate();
  return cfg;
}

// All valid anchors of `kind` with both coordinates below ~one period plus
// a margin — every residue class plus its first repetition.
std::vector<Coord> sweep_anchors(const PolyMemConfig& cfg,
                                 const maf::Maf& maf, PatternKind kind,
                                 SupportLevel level) {
  const auto ext = access::pattern_extent(kind, cfg.p, cfg.q);
  const std::int64_t lo_i = 0, hi_i = cfg.height - ext.rows;
  const std::int64_t lo_j = -ext.col_offset;
  const std::int64_t hi_j = cfg.width - ext.cols - ext.col_offset;
  const std::int64_t end_i = std::min(hi_i, maf.period_i() + cfg.p);
  const std::int64_t end_j = std::min(hi_j, lo_j + maf.period_j() + cfg.q);
  std::vector<Coord> anchors;
  for (std::int64_t i = lo_i; i <= end_i; ++i) {
    if (level == SupportLevel::kAligned && i % cfg.p != 0) continue;
    for (std::int64_t j = lo_j; j <= end_j; ++j) {
      if (level == SupportLevel::kAligned && j % cfg.q != 0) continue;
      anchors.push_back({i, j});
    }
  }
  return anchors;
}

void fill_deterministic(PolyMem& mem) {
  std::vector<Word> values(
      static_cast<std::size_t>(mem.config().height * mem.config().width));
  for (std::size_t k = 0; k < values.size(); ++k)
    values[k] = 0x9E3779B97F4A7C15ull * (k + 1);
  mem.fill_rect({0, 0}, mem.config().height, mem.config().width, values);
}

TEST(PlanCache, TemplatesMatchNaivePlansEverywhere) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      PolyMem mem(cfg);
      ASSERT_TRUE(mem.plan_cache().enabled());
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = mem.supports(kind);
        if (level == SupportLevel::kNone) continue;
        for (const Coord& anchor :
             sweep_anchors(cfg, mem.maf(), kind, level)) {
          const ParallelAccess acc{kind, anchor};
          const AccessPlan naive = mem.agu().expand(acc);
          std::int64_t delta = 0;
          const PlanTemplate* t = mem.plan_cache().lookup(acc, delta);
          ASSERT_NE(t, nullptr)
              << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
              << access::pattern_name(kind) << " at " << anchor;
          for (unsigned k = 0; k < cfg.lanes(); ++k) {
            ASSERT_EQ(t->bank[k], naive.bank[k])
                << maf::scheme_name(scheme) << " "
                << access::pattern_name(kind) << " lane " << k << " at "
                << anchor;
            ASSERT_EQ(t->addr0[k] + delta, naive.addr[k])
                << maf::scheme_name(scheme) << " "
                << access::pattern_name(kind) << " lane " << k << " at "
                << anchor;
          }
        }
      }
    }
  }
}

TEST(PlanCache, CachedReadsMatchNaiveReads) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      PolyMem cached(cfg);
      PolyMem naive(cfg);
      naive.set_plan_cache_enabled(false);
      fill_deterministic(cached);
      fill_deterministic(naive);
      std::vector<Word> a(cfg.lanes()), b(cfg.lanes());
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = cached.supports(kind);
        if (level == SupportLevel::kNone) continue;
        for (const Coord& anchor :
             sweep_anchors(cfg, cached.maf(), kind, level)) {
          cached.read_into({kind, anchor}, 0, a);
          naive.read_into({kind, anchor}, 0, b);
          ASSERT_EQ(a, b) << maf::scheme_name(scheme) << " "
                          << access::pattern_name(kind) << " at " << anchor;
        }
      }
      EXPECT_GT(cached.plan_cache().hits(), 0u);
    }
  }
}

TEST(PlanCache, CachedWritesMatchNaiveWrites) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      PolyMem cached(cfg);
      PolyMem naive(cfg);
      naive.set_plan_cache_enabled(false);
      std::vector<Word> data(cfg.lanes());
      std::uint64_t seed = 1;
      for (PatternKind kind : access::kAllPatterns) {
        const SupportLevel level = cached.supports(kind);
        if (level == SupportLevel::kNone) continue;
        for (const Coord& anchor :
             sweep_anchors(cfg, cached.maf(), kind, level)) {
          for (Word& w : data) w = seed += 0x9E3779B97F4A7C15ull;
          cached.write({kind, anchor}, data);
          naive.write({kind, anchor}, data);
        }
      }
      const auto elems =
          static_cast<std::size_t>(cfg.height) * static_cast<std::size_t>(cfg.width);
      std::vector<Word> da(elems), db(elems);
      cached.dump_rect({0, 0}, cfg.height, cfg.width, da);
      naive.dump_rect({0, 0}, cfg.height, cfg.width, db);
      ASSERT_EQ(da, db) << maf::scheme_name(scheme) << " " << g.p << "x"
                        << g.q;
    }
  }
}

TEST(PlanCache, ErrorsMatchNaivePath) {
  PolyMemConfig cfg = make_config(Scheme::kRoCo, {2, 4});
  PolyMem cached(cfg);
  PolyMem naive(cfg);
  naive.set_plan_cache_enabled(false);
  std::vector<Word> out(cfg.lanes());
  // RoCo serves rectangles only at aligned anchors.
  ASSERT_EQ(cached.supports(PatternKind::kRect), SupportLevel::kAligned);
  EXPECT_THROW(cached.read_into({PatternKind::kRect, {1, 1}}, 0, out),
               Unsupported);
  EXPECT_THROW(naive.read_into({PatternKind::kRect, {1, 1}}, 0, out),
               Unsupported);
  // Out-of-bounds accesses stay InvalidArgument on both paths.
  EXPECT_THROW(
      cached.read_into({PatternKind::kRow, {0, cfg.width - 1}}, 0, out),
      InvalidArgument);
  EXPECT_THROW(
      naive.read_into({PatternKind::kRow, {0, cfg.width - 1}}, 0, out),
      InvalidArgument);
  // TRect is outside RoCo's family on both paths.
  if (cached.supports(PatternKind::kTRect) == SupportLevel::kNone) {
    EXPECT_THROW(cached.read_into({PatternKind::kTRect, {0, 0}}, 0, out),
                 Unsupported);
    EXPECT_THROW(naive.read_into({PatternKind::kTRect, {0, 0}}, 0, out),
                 Unsupported);
  }
}

// Every valid anchor of the space (two full periods plus margin) per
// supported pattern, on a fresh memory each: every residue class of the
// pattern is built exactly once, and every later access in it is a hit.
TEST(PlanCache, TemplateCountIsBoundedByResidueClasses) {
  for (Scheme scheme : maf::kAllSchemes) {
    for (Geometry g : kGeometries) {
      const PolyMemConfig cfg = make_config(scheme, g);
      for (PatternKind kind : access::kAllPatterns) {
        PolyMem mem(cfg);
        const SupportLevel level = mem.supports(kind);
        if (level == SupportLevel::kNone) continue;
        fill_deterministic(mem);
        const bool aligned = level == SupportLevel::kAligned;
        const auto ext = access::pattern_extent(kind, cfg.p, cfg.q);
        std::vector<Word> out(cfg.lanes());
        for (std::int64_t i = 0; i <= cfg.height - ext.rows; ++i) {
          if (aligned && i % cfg.p != 0) continue;
          for (std::int64_t j = -ext.col_offset;
               j <= cfg.width - ext.cols - ext.col_offset; ++j) {
            if (aligned && j % cfg.q != 0) continue;
            mem.read_into({kind, {i, j}}, 0, out);
          }
        }
        const auto& pc = mem.plan_cache();
        const std::int64_t classes =
            aligned ? (pc.period_i() / cfg.p) * (pc.period_j() / cfg.q)
                    : pc.period_i() * pc.period_j();
        EXPECT_LE(pc.builds(),
                  static_cast<std::uint64_t>(pc.period_i() * pc.period_j()));
        EXPECT_EQ(pc.builds(), static_cast<std::uint64_t>(classes))
            << maf::scheme_name(scheme) << " " << g.p << "x" << g.q << " "
            << access::pattern_name(kind);
        EXPECT_EQ(pc.builds(), pc.size());
        EXPECT_GT(pc.hits(), pc.builds());
      }
    }
  }
}

// Row bursts on ReRo 2x4 (period_i = 2) alternate between two residue
// classes access by access, and the walk below visits six. Every lookup
// must count once, as a hit or a build, answer exactly as a repeated
// lookup does, and agree with a lookup on a cold cache.
TEST(PlanCache, LookupsServeAlternatingResidueClasses) {
  const PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
  PolyMem mem(cfg);
  PlanCache& cache = mem.plan_cache();
  std::vector<ParallelAccess> walk;
  for (std::int64_t i = 0; i < 8; ++i)
    walk.push_back({PatternKind::kRow, {i, 8}});
  for (std::int64_t n = 0; n < 24; ++n)
    walk.push_back({PatternKind::kRow, {n % 2, 8 + n % 3}});
  for (const ParallelAccess& acc : walk) {
    const std::uint64_t before = cache.hits() + cache.builds();
    std::int64_t delta = -1;
    const PlanTemplate* got = cache.lookup(acc, delta);
    EXPECT_EQ(cache.hits() + cache.builds(), before + 1) << acc.anchor;
    std::int64_t want_delta = -2;
    const PlanTemplate* want = cache.lookup(acc, want_delta);
    ASSERT_NE(want, nullptr) << acc.anchor;
    EXPECT_EQ(got, want) << acc.anchor;
    EXPECT_EQ(delta, want_delta) << acc.anchor;
    ASSERT_NE(got, nullptr) << acc.anchor;
    PolyMem cold(cfg);
    std::int64_t cold_delta = -3;
    const PlanTemplate* fresh = cold.plan_cache().lookup(acc, cold_delta);
    ASSERT_NE(fresh, nullptr) << acc.anchor;
    EXPECT_EQ(got->bank, fresh->bank) << acc.anchor;
    EXPECT_EQ(got->addr0, fresh->addr0) << acc.anchor;
    EXPECT_EQ(delta, cold_delta) << acc.anchor;
  }
  EXPECT_EQ(cache.builds(), 6u);
}

// Periods that are not powers of two have no dense table: the cache
// stays off and every entry point runs on the AGU reference, bit for bit
// what a twin with the cache switched off computes.
TEST(PlanCache, NonPowerOfTwoGeometriesRunOnTheReference) {
  for (const auto& [scheme, g] :
       {std::pair{Scheme::kReRo, Geometry{3, 2}},
        std::pair{Scheme::kRoCo, Geometry{2, 3}}}) {
    const PolyMemConfig cfg = make_config(scheme, g);
    PolyMem mem(cfg);
    PolyMem twin(cfg);
    twin.set_plan_cache_enabled(false);
    EXPECT_FALSE(mem.plan_cache().enabled());
    fill_deterministic(mem);
    fill_deterministic(twin);
    const unsigned lanes = cfg.lanes();
    std::vector<Word> a(lanes), b(lanes);
    std::uint64_t seed = 1;
    for (PatternKind kind : access::kAllPatterns) {
      const SupportLevel level = mem.supports(kind);
      if (level == SupportLevel::kNone) continue;
      const std::vector<Coord> anchors =
          sweep_anchors(cfg, mem.maf(), kind, level);
      for (const Coord& anchor : anchors) {
        mem.read_into({kind, anchor}, 0, a);
        twin.read_into({kind, anchor}, 0, b);
        ASSERT_EQ(a, b) << maf::scheme_name(scheme) << " "
                        << access::pattern_name(kind) << " at " << anchor;
        for (Word& w : a) w = seed += 0x9E3779B97F4A7C15ull;
        mem.write({kind, anchor}, a);
        twin.write({kind, anchor}, a);
      }
      // The sweep's first anchors as one strided batch, read then
      // rewritten in both memories.
      const std::int64_t step = level == SupportLevel::kAligned ? cfg.q : 1;
      const AccessBatch batch =
          AccessBatch::strided(kind, anchors.front(), {0, step}, 3);
      std::vector<Word> bulk_a(static_cast<std::size_t>(3) * lanes);
      std::vector<Word> bulk_b(bulk_a.size());
      mem.read_batch(batch, 0, bulk_a);
      twin.read_batch(batch, 0, bulk_b);
      ASSERT_EQ(bulk_a, bulk_b)
          << maf::scheme_name(scheme) << " " << access::pattern_name(kind);
      for (Word& w : bulk_a) w = seed += 0x9E3779B97F4A7C15ull;
      mem.write_batch(batch, bulk_a);
      twin.write_batch(batch, bulk_a);
    }
    const auto elems = static_cast<std::size_t>(cfg.height) *
                       static_cast<std::size_t>(cfg.width);
    std::vector<Word> da(elems), db(elems);
    mem.dump_rect({0, 0}, cfg.height, cfg.width, da);
    twin.dump_rect({0, 0}, cfg.height, cfg.width, db);
    EXPECT_EQ(da, db) << maf::scheme_name(scheme);
    EXPECT_EQ(mem.plan_cache().hits() + mem.plan_cache().builds(), 0u);
    EXPECT_GT(mem.parallel_reads(), 0u);
    EXPECT_EQ(mem.parallel_reads(), twin.parallel_reads());
    EXPECT_EQ(mem.parallel_writes(), twin.parallel_writes());
  }
}

// The per-element reference for the batch backdoor: each access of
// `batch`, found by its flat index and expanded, through load / store.
std::vector<Word> reference_load(const PolyMem& ref, const AccessBatch& batch) {
  std::vector<Word> out;
  std::vector<Coord> coords;
  for (std::int64_t t = 0; t < batch.count(); ++t) {
    access::expand_into(batch.access(t), ref.config().p, ref.config().q,
                        coords);
    for (const Coord c : coords) out.push_back(ref.load(c));
  }
  return out;
}

void reference_store(PolyMem& ref, const AccessBatch& batch,
                     const std::vector<Word>& data) {
  std::vector<Coord> coords;
  std::size_t w = 0;
  for (std::int64_t t = 0; t < batch.count(); ++t) {
    access::expand_into(batch.access(t), ref.config().p, ref.config().q,
                        coords);
    for (const Coord c : coords) ref.store(c, data[w++]);
  }
}

// The batch host backdoor against the per-element reference on a twin
// with the plan cache off: every scheme x pattern kind, served or not,
// over every anchor of a full MAF period on each axis (plus margin), as
// one overlapping grid batch and one skewed batch per kind. load_batch
// must match word for word and store_batch image for image; lookup()
// must keep refusing what the scheme does not serve.
void expect_backdoor_matches_reference(Scheme scheme, Geometry g) {
  const PolyMemConfig cfg = make_config(scheme, g);
  PolyMem mem(cfg);
  PolyMem twin(cfg);
  twin.set_plan_cache_enabled(false);
  fill_deterministic(mem);
  fill_deterministic(twin);
  const std::string where = std::string(maf::scheme_name(scheme)) + " " +
                            std::to_string(g.p) + "x" + std::to_string(g.q);
  std::uint64_t seed = 7;
  for (PatternKind kind : access::kAllPatterns) {
    const std::vector<Coord> anchors =
        sweep_anchors(cfg, mem.maf(), kind, SupportLevel::kAny);
    const Coord first = anchors.front(), last = anchors.back();
    const std::int64_t ni = last.i - first.i + 1, nj = last.j - first.j + 1;
    const AccessBatch grid{kind, first, {0, 1}, nj, {1, 0}, ni};
    ASSERT_EQ(grid.count(), static_cast<std::int64_t>(anchors.size()));
    // Inside the same anchors: rows run right to left, and each row
    // starts one down and one left of the last.
    const std::int64_t m = std::min(ni, nj / 2);
    const AccessBatch skew{kind, {first.i, last.j}, {0, -1}, nj - m,
                           {1, -1}, m};
    for (const AccessBatch& batch : {grid, skew}) {
      std::vector<Word> words(static_cast<std::size_t>(batch.count()) *
                              cfg.lanes());
      mem.load_batch(batch, words);
      ASSERT_EQ(words, reference_load(twin, batch))
          << where << " " << access::pattern_name(kind);
      for (Word& w : words) w = seed += 0x9E3779B97F4A7C15ull;
      mem.store_batch(batch, words);
      reference_store(twin, batch, words);
    }
    if (mem.plan_cache().enabled() &&
        mem.supports(kind) != SupportLevel::kAny) {
      // Slots the backdoor filled stay behind lookup()'s gate.
      const ParallelAccess odd{kind, {first.i + 1, first.j + 1}};
      std::int64_t delta = 0;
      EXPECT_EQ(mem.plan_cache().lookup(odd, delta), nullptr)
          << where << " " << access::pattern_name(kind);
      std::vector<Word> one(cfg.lanes());
      EXPECT_THROW(mem.read_into(odd, 0, one), Unsupported)
          << where << " " << access::pattern_name(kind);
    }
  }
  const auto elems = static_cast<std::size_t>(cfg.height) *
                     static_cast<std::size_t>(cfg.width);
  std::vector<Word> da(elems), db(elems);
  mem.dump_rect({0, 0}, cfg.height, cfg.width, da);
  twin.dump_rect({0, 0}, cfg.height, cfg.width, db);
  EXPECT_EQ(da, db) << where;
  EXPECT_EQ(mem.plan_cache().builds(), mem.plan_cache().size()) << where;
  // The backdoor does no port accounting.
  EXPECT_EQ(mem.parallel_reads() + mem.parallel_writes(), 0u) << where;
}

TEST(Backdoor, BatchesMatchTheReferenceOnEveryPattern) {
  for (Scheme scheme : maf::kAllSchemes)
    for (Geometry g : {Geometry{2, 2}, Geometry{2, 4}, Geometry{4, 4},
                       Geometry{4, 8}}) {
      ASSERT_TRUE(PolyMem(make_config(scheme, g)).plan_cache().enabled());
      expect_backdoor_matches_reference(scheme, g);
    }
}

// Without a dense table the backdoor runs per element, like the twin.
TEST(Backdoor, NonPowerOfTwoGeometriesRunPerElement) {
  for (const auto& [scheme, g] :
       {std::pair{Scheme::kReRo, Geometry{3, 2}},
        std::pair{Scheme::kRoCo, Geometry{2, 3}}}) {
    ASSERT_FALSE(PolyMem(make_config(scheme, g)).plan_cache().enabled());
    expect_backdoor_matches_reference(scheme, g);
  }
}

// store_batch writes every read replica: each port's reads see it.
TEST(Backdoor, StoresReachEveryReadReplica) {
  PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
  cfg.read_ports = 4;
  PolyMem mem(cfg);
  // Columns, which ReRo does not serve, over the whole space.
  const AccessBatch cols{PatternKind::kCol, {0, 0}, {0, 1}, cfg.width,
                         {cfg.lanes(), 0}, cfg.height / cfg.lanes()};
  ASSERT_FALSE(mem.serves(cols));
  std::vector<Word> data(static_cast<std::size_t>(cols.count()) * cfg.lanes());
  for (std::size_t k = 0; k < data.size(); ++k) data[k] = 0xA5A5 + 3 * k;
  mem.store_batch(cols, data);
  std::vector<Word> image(static_cast<std::size_t>(cfg.height * cfg.width));
  mem.dump_rect({0, 0}, cfg.height, cfg.width, image);
  // Rows, which ReRo serves, read on each port.
  const AccessBatch rows{PatternKind::kRow, {0, 0},
                         {0, static_cast<std::int64_t>(cfg.lanes())},
                         cfg.width / cfg.lanes(), {1, 0}, cfg.height};
  std::vector<Word> got(image.size());
  for (unsigned port = 0; port < cfg.read_ports; ++port) {
    mem.read_batch(rows, port, got);
    EXPECT_EQ(got, image) << "port " << port;
  }
  std::vector<Word> back(data.size());
  mem.load_batch(cols, back);
  EXPECT_EQ(back, data);
}

// Overlapping accesses of one batch store in batch order: the last wins,
// on a row ReRo serves and on one ReO does not (its banks repeat).
TEST(Backdoor, OverlappingStoresLastWins) {
  for (Scheme scheme : {Scheme::kReRo, Scheme::kReO}) {
    const PolyMemConfig cfg = make_config(scheme, {2, 4});
    PolyMem mem(cfg);
    const auto lanes = static_cast<std::int64_t>(cfg.lanes());
    const AccessBatch rows =
        AccessBatch::strided(PatternKind::kRow, {1, 2}, {0, 1}, 4);
    std::vector<Word> data(static_cast<std::size_t>(rows.count() * lanes));
    for (std::size_t k = 0; k < data.size(); ++k) data[k] = 1000 + k;
    mem.store_batch(rows, data);
    for (std::int64_t j = 2; j < 2 + 3 + lanes; ++j) {
      const std::int64_t t = std::min<std::int64_t>(j - 2, 3);
      EXPECT_EQ(mem.load({1, j}),
                data[static_cast<std::size_t>(t * lanes + (j - 2 - t))])
          << maf::scheme_name(scheme) << " column " << j;
    }
  }
}

TEST(BatchEngine, ReadBatchMatchesReadLoop) {
  for (Scheme scheme : {Scheme::kReRo, Scheme::kRoCo, Scheme::kReTr}) {
    const PolyMemConfig cfg = make_config(scheme, {2, 4});
    PolyMem mem(cfg);
    fill_deterministic(mem);
    const PatternKind kind = scheme == Scheme::kReTr ? PatternKind::kRect
                                                     : PatternKind::kRow;
    const auto ext = access::pattern_extent(kind, cfg.p, cfg.q);
    const std::int64_t inner = (cfg.width - ext.cols) / cfg.q + 1;
    const std::int64_t outer = (cfg.height - ext.rows) / cfg.p + 1;
    const AccessBatch batch{kind,       {0, 0}, {0, cfg.q}, inner,
                            {cfg.p, 0}, outer};
    std::vector<Word> bulk(
        static_cast<std::size_t>(batch.count()) * cfg.lanes());
    mem.read_batch(batch, 0, bulk);
    std::vector<Word> one(cfg.lanes());
    for (std::int64_t t = 0; t < batch.count(); ++t) {
      mem.read_into(batch.access(t), 0, one);
      for (unsigned k = 0; k < cfg.lanes(); ++k)
        ASSERT_EQ(bulk[static_cast<std::size_t>(t) * cfg.lanes() + k],
                  one[k])
            << maf::scheme_name(scheme) << " access " << t << " lane " << k;
    }
  }
}

TEST(BatchEngine, WriteBatchMatchesWriteLoop) {
  const PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
  PolyMem batched(cfg);
  PolyMem looped(cfg);
  const std::int64_t groups = cfg.width / cfg.lanes();
  const AccessBatch batch{PatternKind::kRow, {0, 0},
                          {0, static_cast<std::int64_t>(cfg.lanes())},
                          groups,          {1, 0},
                          cfg.height};
  std::vector<Word> data(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  for (std::size_t k = 0; k < data.size(); ++k)
    data[k] = 0xD1B54A32D192ED03ull * (k + 7);
  batched.write_batch(batch, data);
  for (std::int64_t t = 0; t < batch.count(); ++t)
    looped.write(batch.access(t),
                 std::span<const Word>(data).subspan(
                     static_cast<std::size_t>(t) * cfg.lanes(),
                     cfg.lanes()));
  const auto elems =
      static_cast<std::size_t>(cfg.height) * static_cast<std::size_t>(cfg.width);
  std::vector<Word> da(elems), db(elems);
  batched.dump_rect({0, 0}, cfg.height, cfg.width, da);
  looped.dump_rect({0, 0}, cfg.height, cfg.width, db);
  EXPECT_EQ(da, db);
  EXPECT_EQ(batched.parallel_writes(),
            static_cast<std::uint64_t>(batch.count()));
}

TEST(BatchEngine, ValidatesOnceAndRejectsBadBatches) {
  const PolyMemConfig cfg = make_config(Scheme::kRoCo, {2, 4});
  PolyMem mem(cfg);
  std::vector<Word> out(static_cast<std::size_t>(4) * cfg.lanes());
  // Unaligned stride under an aligned-only pattern.
  EXPECT_THROW(
      mem.read_batch(AccessBatch::strided(PatternKind::kRect, {0, 0}, {1, 0},
                                          4),
                     0, out),
      Unsupported);
  // Last anchor walks off the end of the address space.
  EXPECT_THROW(
      mem.read_batch(AccessBatch::strided(PatternKind::kRow, {0, 0},
                                          {0, cfg.width}, 4),
                     0, out),
      InvalidArgument);
  // Unsupported pattern family.
  EXPECT_THROW(
      mem.read_batch(AccessBatch::strided(PatternKind::kTRect, {0, 0},
                                          {cfg.p, 0}, 4),
                     0, out),
      Unsupported);
  // Wrong buffer size.
  EXPECT_THROW(
      mem.read_batch(AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0},
                                          3),
                     0, out),
      InvalidArgument);
  // An empty batch is a no-op.
  mem.read_batch(AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 0),
                 0, std::span<Word>());
  EXPECT_EQ(mem.parallel_reads(), 0u);
}

// Anchors and strides whose sums leave int64: the corner check computes
// them without overflow and refuses them like any other out-of-bounds
// batch, in all four batch calls, before any word moves.
TEST(BatchEngine, ExtremeAnchorsAndStridesThrowAndChangeNothing) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kHuge = std::int64_t{1} << 62;
  const std::vector<AccessBatch> bad = {
      AccessBatch::strided(PatternKind::kRow, {kMax, 0}, {0, 0}, 1),
      AccessBatch::strided(PatternKind::kRow, {0, kMax}, {0, 0}, 1),
      AccessBatch::strided(PatternKind::kRow, {-kMax - 1, 0}, {0, 0}, 1),
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {kHuge, 0}, 3),
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {0, -kHuge}, 3),
      {PatternKind::kRow, {0, 0}, {0, 0}, 1, {kHuge, kHuge}, 4},
      {PatternKind::kRow, {1, 0}, {kMax, 0}, 2, {1, 0}, 1},
  };
  for (const bool use_cache : {true, false}) {
    const PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
    PolyMem mem(cfg);
    mem.set_plan_cache_enabled(use_cache);
    fill_deterministic(mem);
    const auto cells = static_cast<std::size_t>(cfg.height * cfg.width);
    std::vector<Word> before(cells), after(cells);
    mem.dump_rect({0, 0}, cfg.height, cfg.width, before);
    for (const AccessBatch& batch : bad) {
      std::vector<Word> buf(static_cast<std::size_t>(4) * cfg.lanes(), 5);
      const std::span<Word> words(buf.data(), buf.size());
      EXPECT_THROW(mem.read_batch(batch, 0, words), InvalidArgument)
          << batch.start;
      EXPECT_THROW(mem.write_batch(batch, words), InvalidArgument)
          << batch.start;
      EXPECT_THROW(mem.load_batch(batch, words), InvalidArgument)
          << batch.start;
      EXPECT_THROW(mem.store_batch(batch, words), InvalidArgument)
          << batch.start;
      EXPECT_EQ(buf, std::vector<Word>(buf.size(), 5));
    }
    mem.dump_rect({0, 0}, cfg.height, cfg.width, after);
    EXPECT_EQ(after, before) << "plan cache " << use_cache;
    EXPECT_EQ(mem.parallel_reads() + mem.parallel_writes(), 0u);
  }
}

TEST(BatchEngine, BatchWorksWithPlanCacheDisabled) {
  const PolyMemConfig cfg = make_config(Scheme::kReRo, {2, 4});
  PolyMem mem(cfg);
  mem.set_plan_cache_enabled(false);
  fill_deterministic(mem);
  const AccessBatch batch{PatternKind::kRow, {0, 0},
                          {0, static_cast<std::int64_t>(cfg.lanes())},
                          cfg.width / cfg.lanes(), {1, 0},
                          cfg.height};
  std::vector<Word> bulk(
      static_cast<std::size_t>(batch.count()) * cfg.lanes());
  mem.read_batch(batch, 0, bulk);  // naive fallback per access
  std::vector<Word> expect(
      static_cast<std::size_t>(cfg.height) * static_cast<std::size_t>(cfg.width));
  mem.dump_rect({0, 0}, cfg.height, cfg.width, expect);
  EXPECT_EQ(bulk, expect);
  EXPECT_EQ(mem.plan_cache().hits(), 0u);
}

}  // namespace
}  // namespace polymem::core
