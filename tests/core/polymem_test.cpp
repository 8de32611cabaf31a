#include "core/polymem.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace polymem::core {
namespace {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;

PolyMemConfig small(maf::Scheme scheme, unsigned p = 2, unsigned q = 4,
                    unsigned ports = 1) {
  return PolyMemConfig::with_capacity(4 * KiB, scheme, p, q, ports);
}

// Fills the whole memory with unique values via the host backdoor — the
// paper's DSE validation: "the host fills MAX-PolyMem with unique numerical
// values, and then reads them back using parallel accesses."
void fill_unique(PolyMem& mem) {
  for (std::int64_t i = 0; i < mem.config().height; ++i)
    for (std::int64_t j = 0; j < mem.config().width; ++j)
      mem.store({i, j}, static_cast<Word>(i * 10000 + j));
}

Word expected_at(Coord c) { return static_cast<Word>(c.i * 10000 + c.j); }

TEST(PolyMem, HostFillThenParallelReadBack) {
  PolyMem mem(small(maf::Scheme::kReRo));
  fill_unique(mem);
  for (PatternKind kind : {PatternKind::kRect, PatternKind::kRow,
                           PatternKind::kMainDiag}) {
    const ParallelAccess acc{kind, {1, 3}};
    const auto data = mem.read(acc);
    const auto coords = access::expand(acc, 2, 4);
    for (unsigned k = 0; k < 8; ++k)
      EXPECT_EQ(data[k], expected_at(coords[k]))
          << access::pattern_name(kind) << " lane " << k;
  }
}

TEST(PolyMem, ParallelWriteThenScalarReadBack) {
  PolyMem mem(small(maf::Scheme::kReRo));
  std::vector<Word> data(8);
  std::iota(data.begin(), data.end(), 500u);
  const ParallelAccess acc{PatternKind::kRect, {3, 7}};
  mem.write(acc, data);
  const auto coords = access::expand(acc, 2, 4);
  for (unsigned k = 0; k < 8; ++k) EXPECT_EQ(mem.load(coords[k]), data[k]);
}

TEST(PolyMem, WriteReadRoundTripAllSupportedPatternsAllSchemes) {
  for (maf::Scheme scheme : maf::kAllSchemes) {
    PolyMem mem(small(scheme));
    for (PatternKind kind : access::kAllPatterns) {
      if (mem.supports(kind) != maf::SupportLevel::kAny) continue;
      const Coord anchor =
          kind == PatternKind::kSecDiag ? Coord{2, 14} : Coord{2, 6};
      if (!access::fits({kind, anchor}, 2, 4, mem.config().height,
                        mem.config().width))
        continue;
      std::vector<Word> data(8);
      for (unsigned k = 0; k < 8; ++k) data[k] = 7000 + k;
      mem.write({kind, anchor}, data);
      EXPECT_EQ(mem.read({kind, anchor}), data)
          << maf::scheme_name(scheme) << " " << access::pattern_name(kind);
    }
  }
}

TEST(PolyMem, MultiviewSchemesCombinePatternsOnSameData) {
  // The PolyMem pitch: write with one shape, read with another, no
  // reconfiguration. Write rows, read back rectangles and diagonals.
  PolyMem mem(small(maf::Scheme::kReRo));
  for (std::int64_t i = 0; i < mem.config().height; ++i)
    for (std::int64_t g = 0; g < mem.config().width; g += 8) {
      std::vector<Word> row(8);
      for (int k = 0; k < 8; ++k)
        row[k] = expected_at({i, g + k});
      mem.write({PatternKind::kRow, {i, g}}, row);
    }
  const auto rect = mem.read({PatternKind::kRect, {5, 9}});
  const auto coords = access::expand({PatternKind::kRect, {5, 9}}, 2, 4);
  for (unsigned k = 0; k < 8; ++k) EXPECT_EQ(rect[k], expected_at(coords[k]));

  const auto diag = mem.read({PatternKind::kMainDiag, {4, 11}});
  for (unsigned k = 0; k < 8; ++k)
    EXPECT_EQ(diag[k], expected_at({4 + k, 11 + k}));
}

TEST(PolyMem, ReTrSchemeReadsRectAndTransposedRect) {
  PolyMem mem(small(maf::Scheme::kReTr));
  fill_unique(mem);
  const auto rect = mem.read({PatternKind::kRect, {3, 5}});
  const auto trect = mem.read({PatternKind::kTRect, {3, 5}});
  const auto rc = access::expand({PatternKind::kRect, {3, 5}}, 2, 4);
  const auto tc = access::expand({PatternKind::kTRect, {3, 5}}, 2, 4);
  for (unsigned k = 0; k < 8; ++k) {
    EXPECT_EQ(rect[k], expected_at(rc[k]));
    EXPECT_EQ(trect[k], expected_at(tc[k]));
  }
}

TEST(PolyMem, MultipleReadPortsSeeTheSameData) {
  PolyMem mem(small(maf::Scheme::kReRo, 2, 4, 3));
  fill_unique(mem);
  const ParallelAccess acc{PatternKind::kRow, {2, 8}};
  const auto d0 = mem.read(acc, 0);
  const auto d1 = mem.read(acc, 1);
  const auto d2 = mem.read(acc, 2);
  EXPECT_EQ(d0, d1);
  EXPECT_EQ(d0, d2);
  EXPECT_THROW(mem.read(acc, 3), InvalidArgument);
}

TEST(PolyMem, WrongLaneCountRejected) {
  PolyMem mem(small(maf::Scheme::kReRo));
  std::vector<Word> five(5);
  EXPECT_THROW(mem.write({PatternKind::kRow, {0, 0}}, five), InvalidArgument);
  std::vector<Word> out(5);
  EXPECT_THROW(mem.read_into({PatternKind::kRow, {0, 0}}, 0, out),
               InvalidArgument);
}

TEST(PolyMem, ScalarBackdoorBoundsChecked) {
  PolyMem mem(small(maf::Scheme::kReRo));
  EXPECT_THROW(mem.load({-1, 0}), InvalidArgument);
  EXPECT_THROW(mem.store({0, mem.config().width}, 1), InvalidArgument);
}

// fill_rect/dump_rect walk each row over the MAF's column period. Sweep
// every scheme over square, wide and non-power-of-two bank grids, plus one
// whose column period outgrows the walk's residue table (ReTr 4x8:
// period_j 128), with 1 and 3 read ports, through seeded rectangles of
// every shape.
TEST(PolyMem, FillAndDumpRect) {
  struct Geometry {
    unsigned p, q;
  };
  const Geometry geometries[] = {{2, 2}, {2, 4}, {4, 4}, {2, 8},
                                 {4, 8}, {3, 2}, {2, 3}};
  Rng rng(4242);
  for (const maf::Scheme scheme : maf::kAllSchemes) {
    for (const Geometry g : geometries) {
      // ReTr skews need power-of-two geometries.
      if (scheme == maf::Scheme::kReTr && (g.p == 3 || g.q == 3)) continue;
      for (const unsigned ports : {1u, 3u}) {
        PolyMemConfig cfg;
        cfg.scheme = scheme;
        cfg.p = g.p;
        cfg.q = g.q;
        cfg.read_ports = ports;
        cfg.height = 6 * g.p;
        cfg.width = 20 * g.q;
        PolyMem mem(cfg);
        SCOPED_TRACE(cfg.describe());
        const std::int64_t h = cfg.height;
        const std::int64_t w = cfg.width;
        ASSERT_NE(mem.supports(PatternKind::kRect), maf::SupportLevel::kNone);

        std::vector<Word> mirror(static_cast<std::size_t>(h * w), 0);
        const auto matches_mirror = [&]() -> ::testing::AssertionResult {
          for (std::int64_t i = 0; i < h; ++i)
            for (std::int64_t j = 0; j < w; ++j)
              if (mem.load({i, j}) !=
                  mirror[static_cast<std::size_t>(i * w + j)])
                return ::testing::AssertionFailure()
                       << "load(" << i << ", " << j << ") diverged";
          // Every replica: a p x q rectangle at each aligned anchor, on
          // every read port.
          std::vector<Word> lanes(cfg.lanes());
          for (std::int64_t i = 0; i < h; i += g.p)
            for (std::int64_t j = 0; j < w; j += g.q)
              for (unsigned port = 0; port < ports; ++port) {
                mem.read_into({PatternKind::kRect, {i, j}}, port, lanes);
                for (unsigned u = 0; u < g.p; ++u)
                  for (unsigned v = 0; v < g.q; ++v)
                    if (lanes[u * g.q + v] != mem.load({i + u, j + v}))
                      return ::testing::AssertionFailure()
                             << "port " << port << " rect at (" << i << ", "
                             << j << ") lane " << u * g.q + v;
              }
          return ::testing::AssertionSuccess();
        };

        // Fixed shapes first (1x1, 1xW, Hx1, the full space), then seeded
        // rectangles at unaligned origins.
        struct Rect {
          Coord origin;
          std::int64_t rows, cols;
        };
        std::vector<Rect> rects = {{{0, 0}, 1, 1},
                                   {{h - 1, w - 1}, 1, 1},
                                   {{1, 0}, 1, w},
                                   {{0, w - 1}, h, 1},
                                   {{0, 3}, h, 1},
                                   {{0, 0}, h, w}};
        while (rects.size() < 106) {
          const std::int64_t i = rng.uniform(0, h - 1);
          const std::int64_t j = rng.uniform(0, w - 1);
          rects.push_back({{i, j}, rng.uniform(1, h - i), rng.uniform(1, w - j)});
        }
        std::vector<Word> in;
        std::vector<Word> out;
        for (const Rect& r : rects) {
          in.resize(static_cast<std::size_t>(r.rows * r.cols));
          for (Word& x : in) x = rng.bits();
          mem.fill_rect(r.origin, r.rows, r.cols, in);
          std::size_t k = 0;
          for (std::int64_t i = 0; i < r.rows; ++i)
            for (std::int64_t j = 0; j < r.cols; ++j)
              mirror[static_cast<std::size_t>((r.origin.i + i) * w +
                                              r.origin.j + j)] = in[k++];
          ASSERT_TRUE(matches_mirror());

          // dump_rect of another seeded rectangle == a per-word load loop.
          const std::int64_t i0 = rng.uniform(0, h - 1);
          const std::int64_t j0 = rng.uniform(0, w - 1);
          const std::int64_t rows = rng.uniform(1, h - i0);
          const std::int64_t cols = rng.uniform(1, w - j0);
          out.assign(static_cast<std::size_t>(rows * cols), 0);
          mem.dump_rect({i0, j0}, rows, cols, out);
          k = 0;
          for (std::int64_t i = 0; i < rows; ++i)
            for (std::int64_t j = 0; j < cols; ++j)
              ASSERT_EQ(out[k++], mem.load({i0 + i, j0 + j}));
        }
        out.resize(static_cast<std::size_t>(h * w));
        mem.dump_rect({0, 0}, h, w, out);
        EXPECT_EQ(out, mirror);

        // Rejected rectangles throw the parent's error and touch nothing.
        std::vector<Word> two(2, 7);
        std::vector<Word> none;
        EXPECT_THROW(mem.fill_rect({0, 0}, -1, 2, none), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({0, 0}, 2, -1, none), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({0, 0}, 1, 3, two), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({h - 1, 0}, 2, 1, two), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({0, w - 1}, 1, 2, two), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({-1, 0}, 2, 1, two), InvalidArgument);
        EXPECT_THROW(mem.fill_rect({0, -1}, 1, 2, two), InvalidArgument);
        EXPECT_THROW(mem.dump_rect({0, 0}, -1, 2, none), InvalidArgument);
        EXPECT_THROW(mem.dump_rect({0, 0}, 1, 3, two), InvalidArgument);
        EXPECT_THROW(mem.dump_rect({h - 1, 0}, 2, 1, two), InvalidArgument);
        EXPECT_THROW(mem.dump_rect({0, w - 1}, 1, 2, two), InvalidArgument);
        EXPECT_TRUE(matches_mirror());
      }
    }
  }
}

TEST(PolyMem, AccessCounters) {
  PolyMem mem(small(maf::Scheme::kReRo));
  std::vector<Word> data(8, 1);
  mem.write({PatternKind::kRow, {0, 0}}, data);
  mem.read({PatternKind::kRow, {0, 0}});
  mem.read({PatternKind::kRow, {0, 0}});
  EXPECT_EQ(mem.parallel_writes(), 1u);
  EXPECT_EQ(mem.parallel_reads(), 2u);
}

TEST(PolyMem, RandomisedReadAfterWriteProperty) {
  // Property test: random supported accesses; a shadow map predicts every
  // read. Exercises MAF + addressing + shuffles end to end.
  PolyMem mem(small(maf::Scheme::kReRo));
  Rng rng(2024);
  std::vector<std::vector<Word>> shadow(
      mem.config().height, std::vector<Word>(mem.config().width, 0));
  const std::vector<PatternKind> kinds = {
      PatternKind::kRect, PatternKind::kRow, PatternKind::kMainDiag,
      PatternKind::kSecDiag};
  for (int step = 0; step < 500; ++step) {
    const PatternKind kind = kinds[rng.uniform(0, 3)];
    // Draw anchors until the access fits.
    Coord anchor;
    do {
      anchor = {rng.uniform(0, mem.config().height - 1),
                rng.uniform(0, mem.config().width - 1)};
    } while (!access::fits({kind, anchor}, 2, 4, mem.config().height,
                           mem.config().width));
    const auto coords = access::expand({kind, anchor}, 2, 4);
    if (rng.chance(0.5)) {
      std::vector<Word> data(8);
      for (auto& w : data) w = rng.bits();
      mem.write({kind, anchor}, data);
      for (unsigned k = 0; k < 8; ++k)
        shadow[coords[k].i][coords[k].j] = data[k];
    } else {
      const auto data = mem.read({kind, anchor});
      for (unsigned k = 0; k < 8; ++k)
        EXPECT_EQ(data[k], shadow[coords[k].i][coords[k].j])
            << "step " << step << " " << access::pattern_name(kind);
    }
  }
}

}  // namespace
}  // namespace polymem::core
