// BatchCoalescer, and the batch engine in the service drain's usage:
// coalesced runs of varying shapes through read_batch / write_batch on
// one PolyMem, differentially checked against the AGU reference.
#include <gtest/gtest.h>

#include <vector>

#include "core/access_batch.hpp"
#include "core/polymem.hpp"

namespace polymem::core {
namespace {

using access::Coord;
using access::ParallelAccess;
using access::PatternKind;

PolyMemConfig cfg() {
  PolyMemConfig c;
  c.scheme = maf::Scheme::kReRo;
  c.p = 2;
  c.q = 4;
  c.height = 16;
  c.width = 32;
  c.read_ports = 2;
  return c;
}

void fill(PolyMem& mem) {
  for (std::int64_t i = 0; i < mem.config().height; ++i) {
    for (std::int64_t j = 0; j < mem.config().width; ++j) {
      mem.store({i, j}, static_cast<hw::Word>(i * 1000 + j));
    }
  }
}

TEST(BatchCoalescer, SingletonTakesWithZeroStride) {
  BatchCoalescer c;
  EXPECT_TRUE(c.empty());
  EXPECT_TRUE(c.try_add({PatternKind::kRow, {3, 8}}));
  EXPECT_EQ(c.size(), 1);
  const AccessBatch batch = c.take();
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(batch.count(), 1);
  EXPECT_EQ(batch.start, (Coord{3, 8}));
  EXPECT_EQ(batch.inner_stride, (Coord{0, 0}));
}

TEST(BatchCoalescer, SecondAccessFixesTheStride) {
  BatchCoalescer c;
  EXPECT_TRUE(c.try_add({PatternKind::kRect, {0, 0}}));
  EXPECT_TRUE(c.try_add({PatternKind::kRect, {2, 4}}));
  EXPECT_TRUE(c.try_add({PatternKind::kRect, {4, 8}}));
  EXPECT_FALSE(c.try_add({PatternKind::kRect, {4, 8}}));  // breaks the walk
  const AccessBatch batch = c.take();
  EXPECT_EQ(batch.count(), 3);
  EXPECT_EQ(batch.inner_stride, (Coord{2, 4}));
  // The batch replays exactly the accesses that joined.
  EXPECT_EQ(batch.access(2), (ParallelAccess{PatternKind::kRect, {4, 8}}));
}

TEST(BatchCoalescer, RejectsKindChangeAndKeepsRunIntact) {
  BatchCoalescer c;
  EXPECT_TRUE(c.try_add({PatternKind::kRow, {0, 0}}));
  EXPECT_TRUE(c.try_add({PatternKind::kRow, {1, 0}}));
  EXPECT_FALSE(c.try_add({PatternKind::kRect, {2, 0}}));
  const AccessBatch batch = c.take();
  EXPECT_EQ(batch.kind, PatternKind::kRow);
  EXPECT_EQ(batch.count(), 2);
}

// The service drain's usage: one PolyMem serving run after run of
// different shapes and lengths, singletons included, through read_batch
// and write_batch. Every read and the final image match the AGU
// reference.
void expect_runs_match_reference(const std::vector<AccessBatch>& runs) {
  PolyMem mem(cfg());
  PolyMem reference(cfg());
  reference.set_plan_cache_enabled(false);
  fill(mem);
  fill(reference);
  hw::Word salt = 1;
  for (const AccessBatch& batch : runs) {
    const auto n = static_cast<std::size_t>(batch.count()) * mem.lanes();
    std::vector<hw::Word> got(n), want(n);
    mem.read_batch(batch, 1, got);
    reference.read_batch(batch, 1, want);
    EXPECT_EQ(got, want) << "start " << batch.start << " count "
                         << batch.count();
    for (std::size_t k = 0; k < n; ++k) got[k] = salt * 1'000'003 + k;
    ++salt;
    mem.write_batch(batch, got);
    reference.write_batch(batch, got);
  }
  for (std::int64_t i = 0; i < mem.config().height; ++i)
    for (std::int64_t j = 0; j < mem.config().width; ++j)
      ASSERT_EQ(mem.load({i, j}), reference.load({i, j})) << i << "," << j;
}

TEST(BatchEngine, VaryingRunShapesMatchReference) {
  std::vector<AccessBatch> runs;
  for (std::int64_t count = 1; count <= 9; count += 4)
    runs.push_back(
        AccessBatch::strided(PatternKind::kRow, {0, count - 1}, {1, 1}, count));
  runs.push_back(AccessBatch::strided(PatternKind::kRow, {1, 8}, {1, 0}, 12));
  runs.push_back(AccessBatch::strided(PatternKind::kRow, {2, 0}, {2, 4}, 5));
  expect_runs_match_reference(runs);
}

// Runs that start in different residue classes, in rotation: each must
// get its own class's tables, in any order.
TEST(BatchEngine, AlternatingResidueClassesMatchReference) {
  std::vector<AccessBatch> runs;
  for (int round = 0; round < 3; ++round)
    for (std::int64_t i0 = 0; i0 < 4; ++i0)
      runs.push_back(AccessBatch::strided(PatternKind::kRow,
                                          {i0, (i0 * 4) % 16}, {3, 2}, 5));
  expect_runs_match_reference(runs);
}

TEST(BatchEngine, AccountsBulkAccessCounters) {
  PolyMem mem(cfg());
  fill(mem);
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 6);
  std::vector<hw::Word> out(static_cast<std::size_t>(batch.count()) *
                            mem.lanes());
  mem.read_batch(batch, 0, out);
  EXPECT_EQ(mem.parallel_reads(), 6u);
  mem.write_batch(batch, out);
  EXPECT_EQ(mem.parallel_writes(), 6u);
  // The backdoor moves words without counting accesses.
  mem.load_batch(batch, out);
  mem.store_batch(batch, out);
  EXPECT_EQ(mem.parallel_reads() + mem.parallel_writes(), 12u);
}

}  // namespace
}  // namespace polymem::core
