#include "adapt/profiler.hpp"

#include <gtest/gtest.h>

namespace polymem::adapt {
namespace {

using access::Coord;
using access::PatternKind;

TEST(RunAligned, AnchorAndStrideMustBothAlign) {
  // p=2, q=4: aligned anchors have i % 2 == 0 and j % 4 == 0.
  EXPECT_TRUE(run_aligned(2, 4, {0, 0}, {2, 0}));
  EXPECT_TRUE(run_aligned(2, 4, {4, 8}, {0, 4}));
  EXPECT_FALSE(run_aligned(2, 4, {1, 0}, {2, 0}));  // odd anchor row
  EXPECT_FALSE(run_aligned(2, 4, {0, 2}, {2, 0}));  // anchor col % 4 != 0
  EXPECT_FALSE(run_aligned(2, 4, {0, 0}, {1, 0}));  // stride breaks rows
  EXPECT_FALSE(run_aligned(2, 4, {0, 0}, {0, 2}));  // stride breaks cols
}

TEST(AccessProfiler, SealsWindowAtConfiguredSize) {
  ProfilerOptions opts;
  opts.window = 8;
  AccessProfiler prof(2, 4, opts);
  for (int k = 0; k < 7; ++k) {
    prof.observe(false, {PatternKind::kRow, {0, 0}});
    EXPECT_FALSE(prof.window_ready());
  }
  prof.observe(true, {PatternKind::kCol, {0, 0}});
  ASSERT_TRUE(prof.window_ready());

  const WindowProfile w = prof.take_window();
  EXPECT_FALSE(prof.window_ready());
  EXPECT_EQ(w.accesses, 8);
  EXPECT_EQ(w.reads, 7);
  EXPECT_EQ(w.writes, 1);
  EXPECT_EQ(w.sequence, 0);
  EXPECT_EQ(w.of(PatternKind::kRow).reads, 7);
  EXPECT_EQ(w.of(PatternKind::kCol).writes, 1);
  EXPECT_EQ(w.dominant(), PatternKind::kRow);
  EXPECT_EQ(prof.windows_sealed(), 1);
  EXPECT_EQ(prof.accesses_observed(), 8);
}

TEST(AccessProfiler, RunsCountEveryAccessAndClassifyAlignment) {
  ProfilerOptions opts;
  opts.window = 32;
  AccessProfiler prof(2, 4, opts);
  // Aligned run: anchor (0,0), stride (2,0) — every access aligned.
  prof.observe_run(false, PatternKind::kRow, {0, 0}, {2, 0}, 16);
  // Unaligned run: stride 1 leaves odd rows.
  prof.observe_run(false, PatternKind::kRow, {0, 0}, {1, 0}, 16);
  ASSERT_TRUE(prof.window_ready());
  const WindowProfile w = prof.take_window();
  EXPECT_EQ(w.accesses, 32);
  EXPECT_EQ(w.of(PatternKind::kRow).total(), 32);
  EXPECT_EQ(w.of(PatternKind::kRow).aligned, 16);
}

TEST(AccessProfiler, LatestSealedWindowWins) {
  ProfilerOptions opts;
  opts.window = 4;
  AccessProfiler prof(2, 4, opts);
  prof.observe_run(false, PatternKind::kRow, {0, 0}, {1, 0}, 4);
  prof.observe_run(false, PatternKind::kCol, {0, 0}, {0, 1}, 4);
  ASSERT_TRUE(prof.window_ready());
  // Two windows sealed before take: the adaptive loop wants the
  // freshest view, so the col window replaced the row one.
  const WindowProfile w = prof.take_window();
  EXPECT_EQ(w.dominant(), PatternKind::kCol);
  EXPECT_EQ(w.sequence, 1);
  EXPECT_EQ(prof.windows_sealed(), 2);
}

TEST(AccessProfiler, ResetDropsPartialAndPendingWindows) {
  ProfilerOptions opts;
  opts.window = 4;
  AccessProfiler prof(2, 4, opts);
  prof.observe_run(false, PatternKind::kRow, {0, 0}, {1, 0}, 5);
  ASSERT_TRUE(prof.window_ready());
  prof.reset();
  EXPECT_FALSE(prof.window_ready());
  // The next 3 accesses do not seal (the partial access was dropped).
  prof.observe_run(false, PatternKind::kRow, {0, 0}, {1, 0}, 3);
  EXPECT_FALSE(prof.window_ready());
  prof.observe(false, {PatternKind::kRow, {3, 0}});
  EXPECT_TRUE(prof.window_ready());
}

}  // namespace
}  // namespace polymem::adapt
