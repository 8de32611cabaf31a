// BatchCoalescer and the service-drain compiled entry points
// (compile_batch / read_compiled / write_compiled), differentially
// checked against read_batch / write_batch.
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

TEST(CompiledEntryPoints, ReadCompiledMatchesReadBatch) {
  PolyMem mem(cfg());
  fill(mem);
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {1, 8}, {1, 0}, 12);
  const auto n = static_cast<std::size_t>(batch.count()) * mem.lanes();

  ExecPlan plan;
  ASSERT_TRUE(mem.compile_batch(batch, plan));
  std::vector<hw::Word> compiled(n);
  mem.read_compiled(plan, 1, compiled);

  std::vector<hw::Word> reference(n);
  mem.read_batch(batch, 1, reference);
  EXPECT_EQ(compiled, reference);
}

TEST(CompiledEntryPoints, CallerOwnedPlanRecompilesAcrossVaryingRuns) {
  // The service drain's exact usage: one ExecPlan serving run after run
  // of different shapes — each recompile must produce correct results.
  PolyMem mem(cfg());
  fill(mem);
  ExecPlan plan;
  for (std::int64_t count = 1; count <= 9; count += 4) {
    const AccessBatch batch =
        AccessBatch::strided(PatternKind::kRow, {0, count - 1}, {1, 1}, count);
    ASSERT_TRUE(mem.compile_batch(batch, plan));
    const auto n = static_cast<std::size_t>(count) * mem.lanes();
    std::vector<hw::Word> compiled(n), reference(n);
    mem.read_compiled(plan, 0, compiled);
    mem.read_batch(batch, 0, reference);
    EXPECT_EQ(compiled, reference) << "count=" << count;
  }
}

TEST(CompiledEntryPoints, TablePoolServesAlternatingResidueClasses) {
  // The drain loop's steady state: one plan recompiled for runs that
  // cycle through a few residue classes. The PolyMem's table store must
  // hand back the right pointer tables for whichever class each run
  // starts in, in any order.
  PolyMem mem(cfg());
  fill(mem);
  ExecPlan plan;
  for (int round = 0; round < 3; ++round) {
    for (std::int64_t i0 = 0; i0 < 4; ++i0) {
      const AccessBatch batch = AccessBatch::strided(
          PatternKind::kRow, {i0, (i0 * 4) % 16}, {3, 2}, 5);
      ASSERT_TRUE(mem.compile_batch(batch, plan));
      const auto n = static_cast<std::size_t>(batch.count()) * mem.lanes();
      std::vector<hw::Word> compiled(n), reference(n);
      mem.read_compiled(plan, 0, compiled);
      mem.read_batch(batch, 0, reference);
      EXPECT_EQ(compiled, reference) << "round=" << round << " i0=" << i0;
    }
  }
}

TEST(CompiledEntryPoints, PlanMigratesBetweenMemories) {
  // A caller-owned plan recompiled against a different PolyMem must point
  // into that memory's table store, not the first memory's bank storage.
  PolyMem a(cfg());
  PolyMem b(cfg());
  fill(a);
  for (std::int64_t i = 0; i < b.config().height; ++i) {
    for (std::int64_t j = 0; j < b.config().width; ++j) {
      b.store({i, j}, static_cast<hw::Word>(9'000'000 + i * 1000 + j));
    }
  }
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 8);
  const auto n = static_cast<std::size_t>(batch.count()) * a.lanes();
  ExecPlan plan;
  for (PolyMem* mem : {&a, &b, &a}) {
    ASSERT_TRUE(mem->compile_batch(batch, plan));
    std::vector<hw::Word> compiled(n), reference(n);
    mem->read_compiled(plan, 0, compiled);
    mem->read_batch(batch, 0, reference);
    EXPECT_EQ(compiled, reference);
  }
}

TEST(CompiledEntryPoints, WriteCompiledMatchesWriteBatch) {
  PolyMem a(cfg());
  PolyMem b(cfg());
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {2, 0}, {2, 4}, 5);
  std::vector<hw::Word> data(static_cast<std::size_t>(batch.count()) *
                             a.lanes());
  for (std::size_t k = 0; k < data.size(); ++k) {
    data[k] = static_cast<hw::Word>(k * 7 + 3);
  }

  ExecPlan plan;
  ASSERT_TRUE(a.compile_batch(batch, plan));
  a.write_compiled(plan, data);
  b.write_batch(batch, data);

  for (std::int64_t i = 0; i < a.config().height; ++i) {
    for (std::int64_t j = 0; j < a.config().width; ++j) {
      EXPECT_EQ(a.load({i, j}), b.load({i, j})) << i << "," << j;
    }
  }
}

TEST(CompiledEntryPoints, CompileFailsWhenPlanCacheDisabled) {
  PolyMem mem(cfg());
  mem.set_plan_cache_enabled(false);
  ExecPlan plan;
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 4);
  EXPECT_FALSE(mem.compile_batch(batch, plan));
}

TEST(CompiledEntryPoints, AccountsBulkAccessCounters) {
  PolyMem mem(cfg());
  fill(mem);
  const AccessBatch batch =
      AccessBatch::strided(PatternKind::kRow, {0, 0}, {1, 0}, 6);
  ExecPlan plan;
  ASSERT_TRUE(mem.compile_batch(batch, plan));
  std::vector<hw::Word> out(static_cast<std::size_t>(batch.count()) *
                            mem.lanes());
  const std::uint64_t reads0 = mem.parallel_reads();
  mem.read_compiled(plan, 0, out);
  EXPECT_EQ(mem.parallel_reads(), reads0 + 6);
}

}  // namespace
}  // namespace polymem::core
