// Heap discipline of the access engine: after one warm-up pass
// (templates built, lowering arrays and scratch sized), read_batch /
// write_batch (repeated, in other shapes or moved by whole MAF periods),
// the single accesses read_into / write, the batch backdoor load_batch /
// store_batch and the host rectangle transfers fill_rect / dump_rect
// perform ZERO heap allocations per call.
// Verified by counting global operator new calls —
// including the aligned forms the compiled engine's cache-line-aligned
// SoA tables (core/simd/aligned.hpp) go through.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/polymem.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the global allocation functions. Linked into
// this test binary only; delegating to malloc/free keeps them compatible
// with ASan/TSan interception.
namespace {
void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  void* p = nullptr;
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size ? size : a) != 0)
    throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_aligned(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace polymem::core {
namespace {

using access::PatternKind;

template <typename Fn>
std::uint64_t count_allocations(Fn&& fn) {
  g_news.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_news.load(std::memory_order_relaxed);
}

TEST(BatchAllocation, SteadyStateBatchesAllocateNothing) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4);
  PolyMem mem(cfg);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const AccessBatch batch{PatternKind::kRow, {0, 0}, {0, lanes},
                          cfg.width / lanes,  {1, 0}, cfg.height / 2};
  std::vector<Word> buf(static_cast<std::size_t>(batch.count()) * lanes);

  // Warm-up: builds every template this walk touches and sizes scratch.
  mem.write_batch(batch, buf);
  mem.read_batch(batch, 0, buf);

  EXPECT_EQ(count_allocations([&] { mem.read_batch(batch, 0, buf); }), 0u);
  EXPECT_EQ(count_allocations([&] { mem.write_batch(batch, buf); }), 0u);
}

std::uint64_t lookups(const PolyMem& mem) {
  return mem.plan_cache().hits() + mem.plan_cache().builds();
}

// Five distinct batch shapes (equal access counts, different outer
// strides) in rotation: every call lowers its batch afresh, looking up
// templates, into the same AlignedVec capacity — steady-state lowering
// is allocation-free too.
TEST(BatchAllocation, ExecPlanRecompileReusesCapacity) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4);
  PolyMem mem(cfg);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  std::vector<AccessBatch> batches;
  for (std::int64_t r = 0; r < 5; ++r)
    batches.push_back({PatternKind::kRow, {0, 0}, {0, lanes},
                       cfg.width / lanes,  {r + 1, 0}, cfg.height / 8});
  std::vector<Word> buf(
      static_cast<std::size_t>(batches[0].count()) * lanes);

  // Two warm-up rounds: templates, scratch, and peak table counts all
  // reach steady state.
  for (int round = 0; round < 2; ++round)
    for (const AccessBatch& b : batches) mem.read_batch(b, 0, buf);

  std::uint64_t compiles = 0;
  const std::uint64_t allocs = count_allocations([&] {
    for (const AccessBatch& b : batches) {
      const std::uint64_t before = lookups(mem);
      mem.read_batch(b, 0, buf);
      compiles += lookups(mem) > before;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(compiles, batches.size());
}

// One batch shape whose start walks by whole MAF periods (ReRo 2x4:
// 2 rows x 8 columns), up and down, through read_batch and write_batch:
// every access keeps its residue class, so no call allocates.
TEST(BatchAllocation, RebasedBatchesAllocateNothing) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4);
  PolyMem mem(cfg);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const auto at = [&](std::int64_t n) {
    return AccessBatch{PatternKind::kRow, {2 * (n % 5), 8 * (n % 3)},
                       {0, lanes}, 4, {1, 0}, 3};
  };
  std::vector<Word> buf(static_cast<std::size_t>(at(0).count()) * lanes);
  const auto round = [&] {
    for (std::int64_t n = 0; n < 15; ++n) {
      mem.read_batch(at(n), 0, buf);
      mem.write_batch(at(n + 1), buf);
    }
  };
  round();  // warm-up: templates and lowering arrays of this shape
  EXPECT_EQ(count_allocations(round), 0u);
}

TEST(BatchAllocation, NaiveEngineSteadyStateAlsoAllocationFree) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4);
  PolyMem mem(cfg);
  mem.set_plan_cache_enabled(false);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const AccessBatch batch = AccessBatch::strided(
      PatternKind::kRow, {0, 0}, {0, lanes}, cfg.width / lanes);
  std::vector<Word> buf(static_cast<std::size_t>(batch.count()) * lanes);
  mem.read_batch(batch, 0, buf);
  EXPECT_EQ(count_allocations([&] { mem.read_batch(batch, 0, buf); }), 0u);
}

TEST(BatchAllocation, SteadyStateSingleAccessesAllocateNothing) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4, 2);
  const auto lanes = static_cast<std::size_t>(cfg.lanes());
  std::vector<Word> out(lanes), data(lanes, 3);
  // Rows cycling through more residue classes than the lookup memo holds.
  const auto access = [](std::int64_t n) {
    return access::ParallelAccess{PatternKind::kRow, {n % 4, 8 * (n % 3)}};
  };
  const auto run = [&](PolyMem& mem) {
    for (std::int64_t n = 0; n < 24; ++n) {
      mem.read_into(access(n), static_cast<unsigned>(n % 2), out);
      mem.write(access(n + 1), data);
    }
  };
  for (bool use_cache : {true, false}) {
    PolyMem mem(cfg);
    mem.set_plan_cache_enabled(use_cache);
    run(mem);  // warm-up: templates, class tables, reference scratch
    EXPECT_EQ(count_allocations([&] { run(mem); }), 0u)
        << "plan cache " << (use_cache ? "on" : "off");
  }
}

// The batch backdoor, on a pattern the scheme serves and one it does not,
// with the dense table and per element without it: once the classes are
// built, load_batch and store_batch allocate nothing.
TEST(BatchAllocation, BackdoorBatchesAllocateNothing) {
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReRo, 2, 4, 2);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const AccessBatch rows{PatternKind::kRow, {0, 0}, {0, lanes},
                         cfg.width / lanes, {1, 0}, 8};
  const AccessBatch cols{PatternKind::kCol, {0, 3}, {0, 1}, 16, {lanes, 0},
                         cfg.height / lanes};
  std::vector<Word> buf(
      static_cast<std::size_t>(std::max(rows.count(), cols.count())) * lanes);
  const auto run = [&](PolyMem& mem) {
    for (const AccessBatch& b : {rows, cols}) {
      const std::span<Word> words(buf.data(),
                                  static_cast<std::size_t>(b.count() * lanes));
      mem.load_batch(b, words);
      mem.store_batch(b, words);
    }
  };
  for (bool use_cache : {true, false}) {
    PolyMem mem(cfg);
    ASSERT_TRUE(mem.serves(rows));
    ASSERT_FALSE(mem.serves(cols));
    mem.set_plan_cache_enabled(use_cache);
    run(mem);  // warm-up: slot arrays, templates, reference scratch
    EXPECT_EQ(count_allocations([&] { run(mem); }), 0u)
        << "plan cache " << (use_cache ? "on" : "off");
  }
}

// The host rectangle walk keeps its residue table on the stack: no
// allocation per call, including when a column period outgrows the table
// (ReTr 4x8, period_j 128) and each row walks in segments.
TEST(BatchAllocation, RectTransfersAllocateNothing) {
  for (const auto& [p, q] : {std::pair{2u, 4u}, std::pair{4u, 8u}}) {
    const auto cfg =
        PolyMemConfig::with_capacity(64 * KiB, maf::Scheme::kReTr, p, q, 2);
    PolyMem mem(cfg);
    const std::int64_t rows = cfg.height - 3;
    const std::int64_t cols = cfg.width - 5;
    std::vector<Word> buf(static_cast<std::size_t>(rows * cols), 9);
    mem.fill_rect({1, 3}, rows, cols, buf);
    mem.dump_rect({2, 5}, rows, cols, buf);
    EXPECT_EQ(count_allocations([&] {
                mem.fill_rect({1, 3}, rows, cols, buf);
                mem.dump_rect({2, 5}, rows, cols, buf);
              }),
              0u)
        << p << 'x' << q;
  }
}

}  // namespace
}  // namespace polymem::core
