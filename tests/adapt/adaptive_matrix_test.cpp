#include "adapt/adaptive_matrix.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/rng.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::adapt {
namespace {

using access::Coord;
using access::PatternKind;
using core::AccessBatch;
using maf::Scheme;

core::PolyMemConfig cfg_16x32(Scheme scheme = Scheme::kReRo) {
  core::PolyMemConfig c;
  c.scheme = scheme;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  return c;
}

/// Distinct per-cell fill so any misplaced word is visible.
void fill_cells(AdaptiveMatrix& mat) {
  for (std::int64_t i = 0; i < mat.height(); ++i) {
    for (std::int64_t j = 0; j < mat.width(); ++j) {
      mat.store({i, j}, static_cast<core::Word>(i * 1000 + j));
    }
  }
}

::testing::AssertionResult cells_intact(const AdaptiveMatrix& mat) {
  for (std::int64_t i = 0; i < mat.height(); ++i) {
    for (std::int64_t j = 0; j < mat.width(); ++j) {
      const auto got = mat.load({i, j});
      const auto want = static_cast<core::Word>(i * 1000 + j);
      if (got != want) {
        return ::testing::AssertionFailure()
               << "cell (" << i << ", " << j << "): got " << got
               << ", want " << want;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

AdaptiveOptions static_opts() {
  AdaptiveOptions o;
  o.adapt = false;
  return o;
}

TEST(AdaptiveMatrix, ServesSupportedBatchesCompiledAndRestFallback) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  fill_cells(mat);

  // ReRo serves rows conflict-free: the batched engine path.
  const auto rows = AccessBatch::strided(PatternKind::kRow, {3, 0}, {0, 8}, 4);
  std::vector<core::Word> out(4 * 8);
  mat.read_batch(rows, out);
  for (std::int64_t t = 0; t < 4; ++t) {
    for (std::int64_t l = 0; l < 8; ++l) {
      EXPECT_EQ(out[static_cast<std::size_t>(t * 8 + l)],
                static_cast<core::Word>(3 * 1000 + t * 8 + l));
    }
  }

  // ReRo cannot serve cols: the same call falls back to scalar lanes
  // and still returns the right words.
  const auto cols = AccessBatch::strided(PatternKind::kCol, {0, 5}, {0, 1}, 2);
  std::vector<core::Word> col_out(2 * 8);
  mat.read_batch(cols, col_out);
  for (std::int64_t t = 0; t < 2; ++t) {
    for (std::int64_t l = 0; l < 8; ++l) {
      EXPECT_EQ(col_out[static_cast<std::size_t>(t * 8 + l)],
                static_cast<core::Word>(l * 1000 + 5 + t));
    }
  }

  const auto s = mat.stats();
  EXPECT_EQ(s.batched_accesses, 4u);
  EXPECT_EQ(s.fallback_accesses, 2u);
  EXPECT_EQ(s.reads, 6u);
  EXPECT_TRUE(mat.run_supported(rows));
  EXPECT_FALSE(mat.run_supported(cols));
}

TEST(AdaptiveMatrix, RejectsWrongSpanSizes) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  const auto b = AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 2);
  std::vector<core::Word> wrong(8);  // needs 2 * 8
  EXPECT_THROW(mat.read_batch(b, wrong), InvalidArgument);
  EXPECT_THROW(mat.write_batch(b, wrong), InvalidArgument);
}

TEST(AdaptiveMatrix, InlineMigrationIsBitIdenticalAndBumpsEpoch) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  fill_cells(mat);
  ASSERT_EQ(mat.scheme(), Scheme::kReRo);
  ASSERT_EQ(mat.epoch(), 0u);

  EXPECT_TRUE(mat.migrate_to(Scheme::kReCo));
  EXPECT_EQ(mat.scheme(), Scheme::kReCo);
  EXPECT_EQ(mat.epoch(), 1u);
  EXPECT_TRUE(cells_intact(mat));

  // After the flip the new layout serves cols on the compiled path.
  EXPECT_TRUE(mat.run_supported(
      AccessBatch::strided(PatternKind::kCol, {0, 0}, {0, 1}, 4)));

  const auto s = mat.stats();
  EXPECT_EQ(s.migrations_started, 1u);
  EXPECT_EQ(s.migrations_completed, 1u);
  EXPECT_EQ(s.migrations_aborted, 0u);
  EXPECT_EQ(s.mismatched_words, 0u);
  // The differential oracle read back the whole matrix from both epochs.
  EXPECT_EQ(s.verified_words, 16u * 32u);
  ASSERT_EQ(s.history.size(), 1u);
  EXPECT_EQ(s.history[0].from, Scheme::kReRo);
  EXPECT_EQ(s.history[0].to, Scheme::kReCo);
  EXPECT_EQ(s.history[0].epoch, 1u);
  EXPECT_FALSE(s.history[0].aborted);
}

// A write batch whose second access leaves the space throws before any
// word moves, whether the scheme serves it (compiled engine) or not (the
// batch backdoor), with the compiled engine's message.
TEST(AdaptiveMatrix, OutOfBoundsWritesChangeNothing) {
  for (const Scheme scheme : maf::kAllSchemes) {
    AdaptiveMatrix mat(cfg_16x32(scheme), static_opts());
    fill_cells(mat);
    bool compiled = false, fallback = false;
    for (const PatternKind kind : access::kAllPatterns) {
      const auto ext = access::pattern_extent(kind, 2, 4);
      const auto batch = AccessBatch::strided(
          kind, {0, round_up<std::int64_t>(-ext.col_offset, 4)}, {16, 0}, 2);
      (mat.run_supported(batch) ? compiled : fallback) = true;
      const std::vector<core::Word> data(2 * 8, 7);
      EXPECT_THROW(mat.write_batch(batch, data), InvalidArgument)
          << maf::scheme_name(scheme) << " " << access::pattern_name(kind);
      ASSERT_TRUE(cells_intact(mat))
          << maf::scheme_name(scheme) << " " << access::pattern_name(kind);
    }
    EXPECT_TRUE(compiled && fallback) << maf::scheme_name(scheme);
  }
  // Columns from (6, 3) stepping 4 rows: ReRo runs them on the backdoor,
  // ReCo on the compiled engine, and both refuse the second one.
  for (const Scheme scheme : {Scheme::kReRo, Scheme::kReCo}) {
    AdaptiveMatrix mat(cfg_16x32(scheme), static_opts());
    fill_cells(mat);
    const auto cols =
        AccessBatch::strided(PatternKind::kCol, {6, 3}, {4, 0}, 2);
    EXPECT_EQ(mat.run_supported(cols), scheme == Scheme::kReCo);
    const std::vector<core::Word> data(2 * 8, 7);
    try {
      mat.write_batch(cols, data);
      ADD_FAILURE() << maf::scheme_name(scheme) << ": no throw";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(
          e.what(),
          "batch access col at (10,3) exceeds the 16x32 address space");
    }
    EXPECT_TRUE(cells_intact(mat)) << maf::scheme_name(scheme);
  }
}

TEST(AdaptiveMatrix, HistoryKeepsTheLatestMigrations) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  for (int n = 0; n < 100; ++n)
    ASSERT_TRUE(mat.migrate_to(n % 2 == 0 ? Scheme::kReCo : Scheme::kReRo));
  const auto s = mat.stats();
  EXPECT_EQ(s.migrations_completed, 100u);
  ASSERT_EQ(s.history.size(), 64u);
  EXPECT_EQ(s.history.size(), AdaptiveStats::kMaxHistory);
  EXPECT_EQ(s.history.front().epoch, 37u);
  EXPECT_EQ(s.history.back().epoch, 100u);
  EXPECT_EQ(s.history.back().from, Scheme::kReCo);
  EXPECT_EQ(s.history.back().to, Scheme::kReRo);
}

TEST(AdaptiveMatrix, MigrateToActiveSchemeRefuses) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  EXPECT_FALSE(mat.migrate_to(Scheme::kReRo));
  EXPECT_EQ(mat.stats().migrations_started, 0u);
}

TEST(AdaptiveMatrix, InjectedFaultRollsBackWithoutFlipping) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  fill_cells(mat);

  // The copy "crashes" when it reaches band 2: the target epoch is
  // discarded, the active epoch stays authoritative and untouched.
  mat.set_fault_band(2);
  EXPECT_TRUE(mat.migrate_to(Scheme::kReCo));
  EXPECT_EQ(mat.scheme(), Scheme::kReRo);
  EXPECT_EQ(mat.epoch(), 0u);
  EXPECT_TRUE(cells_intact(mat));

  const auto s = mat.stats();
  EXPECT_EQ(s.migrations_started, 1u);
  EXPECT_EQ(s.migrations_completed, 0u);
  EXPECT_EQ(s.migrations_aborted, 1u);
  ASSERT_EQ(s.history.size(), 1u);
  EXPECT_TRUE(s.history[0].aborted);
  EXPECT_EQ(s.history[0].epoch, 0u);

  // The fault hook is one-shot: the retry completes cleanly.
  EXPECT_TRUE(mat.migrate_to(Scheme::kReCo));
  EXPECT_EQ(mat.scheme(), Scheme::kReCo);
  EXPECT_TRUE(cells_intact(mat));
}

TEST(AdaptiveMatrix, RejectsABackgroundPool) {
  // Migrations run inline on the calling thread; no option selects a
  // background copier.
  runtime::ThreadPool pool(0);
  AdaptiveOptions opts = static_opts();
  opts.pool = &pool;
  EXPECT_THROW(AdaptiveMatrix(cfg_16x32(), opts), InvalidArgument);
}

TEST(AdaptiveMatrix, AdaptsToAColumnPhaseAndStaysCorrect) {
  AdaptiveOptions opts;
  opts.adapt = true;
  opts.profiler.window = 64;
  opts.policy.persistence = 2;
  AdaptiveMatrix mat(cfg_16x32(), opts);  // inline migrations
  fill_cells(mat);

  // A column phase: 32 cols x 2 anchor rows per pass. ReRo serves none
  // of it, so the policy must elect a col-friendly scheme.
  const auto cols =
      AccessBatch{PatternKind::kCol, {0, 0}, {0, 1}, 32, {8, 0}, 2};
  std::vector<core::Word> out(static_cast<std::size_t>(cols.count()) * 8);
  for (int pass = 0; pass < 8; ++pass) {
    mat.read_batch(cols, out);
  }

  const auto s = mat.stats();
  EXPECT_GE(s.migrations_completed, 1u);
  EXPECT_EQ(s.migrations_aborted, 0u);
  EXPECT_EQ(s.mismatched_words, 0u);
  EXPECT_GE(s.windows_profiled, 2u);
  EXPECT_GT(s.epoch, 0u);
  // The elected scheme serves the column phase on the compiled path.
  EXPECT_TRUE(mat.run_supported(
      AccessBatch::strided(PatternKind::kCol, {0, 0}, {0, 1}, 4)));
  EXPECT_GT(s.batched_accesses, 0u);
  EXPECT_TRUE(cells_intact(mat));
}

TEST(AdaptiveMatrix, FillAndDumpRectRoundTrip) {
  AdaptiveMatrix mat(cfg_16x32(), static_opts());
  std::vector<core::Word> in(4 * 8);
  for (std::size_t k = 0; k < in.size(); ++k) {
    in[k] = static_cast<core::Word>(k + 100);
  }
  mat.fill_rect({2, 8}, 4, 8, in);
  std::vector<core::Word> back(in.size());
  mat.dump_rect({2, 8}, 4, 8, back);
  EXPECT_EQ(in, back);
  EXPECT_EQ(mat.load({2, 8}), 100u);
}

/// Host mirror of an AdaptiveMatrix, updated by the same writes.
struct Mirror {
  std::int64_t width;
  std::vector<core::Word> cells;

  core::Word& at(Coord c) {
    return cells[static_cast<std::size_t>(c.i * width + c.j)];
  }
  void fill(Coord origin, std::int64_t rows, std::int64_t cols,
            const std::vector<core::Word>& values) {
    std::size_t k = 0;
    for (std::int64_t i = 0; i < rows; ++i)
      for (std::int64_t j = 0; j < cols; ++j)
        at({origin.i + i, origin.j + j}) = values[k++];
  }
  ::testing::AssertionResult matches(const AdaptiveMatrix& mat) const {
    std::vector<core::Word> image(cells.size());
    mat.dump_rect({0, 0}, mat.height(), width, image);
    for (std::size_t k = 0; k < cells.size(); ++k) {
      const Coord c{static_cast<std::int64_t>(k) / width,
                    static_cast<std::int64_t>(k) % width};
      if (image[k] != cells[k] || mat.load(c) != cells[k]) {
        return ::testing::AssertionFailure()
               << "cell (" << c.i << ", " << c.j << ")";
      }
    }
    return ::testing::AssertionSuccess();
  }
};

/// Fills a seeded rectangle with random words.
void random_fill(AdaptiveMatrix& mat, Mirror& mirror, Rng& rng) {
  const std::int64_t i = rng.uniform(0, mat.height() - 1);
  const std::int64_t j = rng.uniform(0, mat.width() - 1);
  const std::int64_t rows = rng.uniform(1, mat.height() - i);
  const std::int64_t cols = rng.uniform(1, mat.width() - j);
  std::vector<core::Word> values(static_cast<std::size_t>(rows * cols));
  for (core::Word& v : values) v = rng.bits();
  mat.fill_rect({i, j}, rows, cols, values);
  mirror.fill({i, j}, rows, cols, values);
}

// Writes of every kind (rectangles, stores, a row batch) land between
// inline migrations through all five schemes on a 20-row space, and each
// flip must carry all of them.
TEST(AdaptiveMatrix, WritesBetweenMigrationsSurviveEveryScheme) {
  core::PolyMemConfig config = cfg_16x32(Scheme::kReO);
  config.height = 20;
  AdaptiveMatrix mat(config, static_opts());
  Mirror mirror{mat.width(),
                std::vector<core::Word>(static_cast<std::size_t>(20 * 32))};
  Rng rng(303);

  std::uint64_t epoch = 0;
  for (const Scheme target :
       {Scheme::kReRo, Scheme::kReCo, Scheme::kRoCo, Scheme::kReTr,
        Scheme::kReO}) {
    for (int n = 0; n < 6; ++n) random_fill(mat, mirror, rng);
    for (int n = 0; n < 20; ++n) {
      const Coord c{rng.uniform(0, 19), rng.uniform(0, 31)};
      const core::Word v = rng.bits();
      mat.store(c, v);
      mirror.at(c) = v;
    }
    // A row batch: compiled or element-wise, whichever the scheme serves.
    const auto rows = AccessBatch::strided(
        PatternKind::kRow, {rng.uniform(0, 19), rng.uniform(0, 24)}, {0, 0},
        1);
    std::vector<core::Word> data(8);
    for (core::Word& v : data) v = rng.bits();
    mat.write_batch(rows, data);
    for (std::int64_t l = 0; l < 8; ++l)
      mirror.at({rows.start.i, rows.start.j + l}) =
          data[static_cast<std::size_t>(l)];
    ASSERT_TRUE(mirror.matches(mat));

    ASSERT_TRUE(mat.migrate_to(target));
    EXPECT_EQ(mat.scheme(), target);
    EXPECT_EQ(mat.epoch(), ++epoch);
    ASSERT_TRUE(mirror.matches(mat)) << "after the flip to "
                                     << maf::scheme_name(target);
  }
  const auto s = mat.stats();
  EXPECT_EQ(s.migrations_completed, 5u);
  EXPECT_EQ(s.mismatched_words, 0u);
  EXPECT_EQ(s.verified_words, 5u * 20u * 32u);
}

}  // namespace
}  // namespace polymem::adapt
