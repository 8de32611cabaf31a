#include "core/cycle_polymem.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/units.hpp"

namespace polymem::core {
namespace {

using access::ParallelAccess;
using access::PatternKind;

PolyMemConfig cfg(unsigned latency = 14, unsigned ports = 1) {
  auto c = PolyMemConfig::with_capacity(4 * KiB, maf::Scheme::kReRo, 2, 4,
                                        ports);
  c.read_latency = latency;
  return c;
}

void fill(CyclePolyMem& mem) {
  auto& f = mem.functional();
  for (std::int64_t i = 0; i < f.config().height; ++i)
    for (std::int64_t j = 0; j < f.config().width; ++j)
      f.store({i, j}, static_cast<Word>(i * 1000 + j));
}

TEST(CyclePolyMem, ReadCompletesAfterLatencyCycles) {
  CyclePolyMem mem(cfg(14));
  fill(mem);
  ASSERT_TRUE(mem.issue_read(0, {PatternKind::kRow, {2, 0}}, 42));
  for (int c = 0; c < 14; ++c) {
    mem.tick();
    EXPECT_EQ(mem.retire_read(0), std::nullopt) << "cycle " << c;
    // Pipeline is free to accept more work meanwhile; keep it idle here.
  }
  mem.tick();
  const auto resp = mem.retire_read(0);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->tag, 42u);
  ASSERT_EQ(resp->data.size(), 8u);
  EXPECT_EQ(resp->data[3], 2003u);
}

TEST(CyclePolyMem, OneReadPerPortPerCycle) {
  CyclePolyMem mem(cfg(2));
  fill(mem);
  EXPECT_TRUE(mem.issue_read(0, {PatternKind::kRow, {0, 0}}));
  EXPECT_FALSE(mem.issue_read(0, {PatternKind::kRow, {1, 0}}));
  mem.tick();
  EXPECT_TRUE(mem.issue_read(0, {PatternKind::kRow, {1, 0}}));
}

TEST(CyclePolyMem, OneWritePerCycle) {
  CyclePolyMem mem(cfg(2));
  std::vector<Word> data(8, 1);
  EXPECT_TRUE(mem.issue_write({PatternKind::kRow, {0, 0}}, data));
  EXPECT_FALSE(mem.issue_write({PatternKind::kRow, {1, 0}}, data));
  mem.tick();
  EXPECT_TRUE(mem.issue_write({PatternKind::kRow, {1, 0}}, data));
}

TEST(CyclePolyMem, FullyPipelinedOneAccessPerCycle) {
  // Throughput: N back-to-back reads retire in N + latency cycles.
  const unsigned latency = 14;
  CyclePolyMem mem(cfg(latency));
  fill(mem);
  const int n = 100;
  int retired = 0;
  for (int k = 0; k < n; ++k) {
    ASSERT_TRUE(
        mem.issue_read(0, {PatternKind::kRow, {k % 16, 0}},
                       static_cast<std::uint64_t>(k)));
    mem.tick();
    if (auto r = mem.retire_read(0)) {
      EXPECT_EQ(r->tag, static_cast<std::uint64_t>(retired));
      ++retired;
    }
  }
  while (retired < n) {
    mem.tick();
    if (auto r = mem.retire_read(0)) {
      EXPECT_EQ(r->tag, static_cast<std::uint64_t>(retired));
      ++retired;
    }
  }
  EXPECT_EQ(mem.cycles(), static_cast<std::uint64_t>(n + latency));
  EXPECT_EQ(mem.reads_issued(), static_cast<std::uint64_t>(n));
}

TEST(CyclePolyMem, ConcurrentReadAndWriteSameCycle) {
  // The read and the write of one cycle hit the same row (read-first: the
  // read sees the pre-write data), then disjoint rows (the STREAM-Copy
  // inner loop).
  const std::int64_t rows[][2] = {{4, 4}, {1, 9}};
  for (const auto& [read_row, write_row] : rows) {
    CyclePolyMem mem(cfg(3));
    fill(mem);
    std::vector<Word> data(8, 555);
    ASSERT_TRUE(mem.issue_read(0, {PatternKind::kRow, {read_row, 0}}));
    ASSERT_TRUE(mem.issue_write({PatternKind::kRow, {write_row, 0}}, data));
    mem.tick();
    mem.tick();
    mem.tick();
    mem.tick();
    const auto r = mem.retire_read(0);
    ASSERT_TRUE(r.has_value());
    for (std::int64_t k = 0; k < 8; ++k) {
      EXPECT_EQ(r->data[static_cast<std::size_t>(k)],
                static_cast<Word>(read_row * 1000 + k))
          << "read row " << read_row << " lane " << k;
      EXPECT_EQ(mem.functional().load({write_row, k}), 555u)
          << "write row " << write_row << " lane " << k;
    }
  }
}

TEST(CyclePolyMem, MultiplePortsRetireIndependently) {
  CyclePolyMem mem(cfg(2, /*ports=*/2));
  fill(mem);
  ASSERT_TRUE(mem.issue_read(0, {PatternKind::kRow, {0, 0}}, 10));
  ASSERT_TRUE(mem.issue_read(1, {PatternKind::kRow, {1, 0}}, 20));
  mem.tick();
  mem.tick();
  mem.tick();
  const auto r0 = mem.retire_read(0);
  const auto r1 = mem.retire_read(1);
  ASSERT_TRUE(r0 && r1);
  EXPECT_EQ(r0->tag, 10u);
  EXPECT_EQ(r1->tag, 20u);
  EXPECT_EQ(r0->data[0], 0u);
  EXPECT_EQ(r1->data[0], 1000u);
}

TEST(CyclePolyMem, DrainCollectsInFlightReads) {
  CyclePolyMem mem(cfg(5));
  fill(mem);
  for (int k = 0; k < 3; ++k) {
    mem.issue_read(0, {PatternKind::kRow, {k, 0}},
                   static_cast<std::uint64_t>(k));
    mem.tick();
  }
  std::vector<ReadResponse> out;
  mem.drain(0, out);
  ASSERT_EQ(out.size(), 3u);
  for (int k = 0; k < 3; ++k) EXPECT_EQ(out[k].tag, static_cast<std::uint64_t>(k));
}

TEST(CyclePolyMem, IdleCycleCounter) {
  CyclePolyMem mem(cfg(1));
  fill(mem);
  mem.tick();  // idle
  mem.issue_read(0, {PatternKind::kRow, {0, 0}});
  mem.tick();  // busy
  mem.tick();  // idle
  EXPECT_EQ(mem.cycles(), 3u);
  EXPECT_EQ(mem.idle_cycles(), 2u);
}

TEST(CyclePolyMem, ZeroLatencyConfigRetiresSameCycle) {
  CyclePolyMem mem(cfg(0));
  fill(mem);
  mem.issue_read(0, {PatternKind::kRow, {3, 0}});
  mem.tick();
  const auto r = mem.retire_read(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->data[0], 3000u);
}

}  // namespace
}  // namespace polymem::core
