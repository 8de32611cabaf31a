// Differential tests for the concurrent multi-port read engine:
// read_batch_mt must produce bit-identical output to the serial
// read_batch for every thread count (the determinism contract of
// docs/ARCHITECTURE.md, "Parallel runtime"), on the cached and the naive
// engine, across schemes, geometries and port counts. Plus the contract
// the adaptive copier relies on: the host rectangle transfers run beside
// each other and beside the engine (a TSan gate).
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "core/polymem.hpp"
#include "runtime/thread_pool.hpp"

namespace polymem::core {
namespace {

using access::PatternKind;

void fill_unique(PolyMem& mem) {
  const auto& cfg = mem.config();
  std::vector<Word> row(cfg.width);
  for (std::int64_t i = 0; i < cfg.height; ++i) {
    for (std::int64_t j = 0; j < cfg.width; ++j)
      row[j] = static_cast<Word>((i << 20) ^ (j * 2654435761u));
    mem.fill_rect({i, 0}, 1, cfg.width, row);
  }
}

struct MtCase {
  maf::Scheme scheme;
  unsigned p, q, ports;
  PatternKind kind;
};

class ReadBatchMt : public ::testing::TestWithParam<MtCase> {};

TEST_P(ReadBatchMt, BitIdenticalToSerialAcrossThreadCounts) {
  const auto& c = GetParam();
  const auto cfg =
      PolyMemConfig::with_capacity(64 * KiB, c.scheme, c.p, c.q, c.ports);
  PolyMem mem(cfg);
  fill_unique(mem);

  // A 2D batch covering the whole address space: rows of `kind` groups.
  const std::int64_t col_step =
      c.kind == PatternKind::kRow ? cfg.lanes() : c.q;
  const std::int64_t row_step = c.kind == PatternKind::kRow ? 1 : c.p;
  const AccessBatch batch{c.kind,       {0, 0},          {0, col_step},
                          cfg.width / col_step, {row_step, 0},
                          cfg.height / row_step};
  std::vector<Word> serial(static_cast<std::size_t>(batch.count()) *
                           cfg.lanes());
  mem.read_batch(batch, 0, serial);

  const std::uint64_t reads_before = mem.parallel_reads();
  for (unsigned workers : {0u, 1u, 7u}) {
    runtime::ThreadPool pool(workers);
    std::vector<Word> parallel(serial.size(), ~Word{0});
    mem.read_batch_mt(batch, pool, parallel);
    EXPECT_EQ(parallel, serial) << "workers " << workers;
  }
  EXPECT_EQ(mem.parallel_reads(), reads_before + 3 * batch.count());
}

TEST_P(ReadBatchMt, NaiveEngineAlsoDeterministic) {
  const auto& c = GetParam();
  const auto cfg =
      PolyMemConfig::with_capacity(16 * KiB, c.scheme, c.p, c.q, c.ports);
  PolyMem mem(cfg);
  fill_unique(mem);
  mem.set_plan_cache_enabled(false);

  const std::int64_t col_step =
      c.kind == PatternKind::kRow ? cfg.lanes() : c.q;
  const AccessBatch batch = AccessBatch::strided(
      c.kind, {0, 0}, {0, col_step}, cfg.width / col_step);
  std::vector<Word> serial(static_cast<std::size_t>(batch.count()) *
                           cfg.lanes());
  mem.read_batch(batch, 0, serial);

  runtime::ThreadPool pool(3);
  std::vector<Word> parallel(serial.size());
  mem.read_batch_mt(batch, pool, parallel);
  EXPECT_EQ(parallel, serial);
  EXPECT_EQ(mem.plan_cache().hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ReadBatchMt,
    ::testing::Values(
        MtCase{maf::Scheme::kReRo, 2, 4, 1, PatternKind::kRow},
        MtCase{maf::Scheme::kReRo, 2, 4, 4, PatternKind::kRow},
        MtCase{maf::Scheme::kReRo, 4, 4, 2, PatternKind::kRow},
        MtCase{maf::Scheme::kRoCo, 2, 4, 4, PatternKind::kRect},
        MtCase{maf::Scheme::kReTr, 2, 8, 2, PatternKind::kRect},
        MtCase{maf::Scheme::kReO, 2, 4, 3, PatternKind::kRect}),
    [](const ::testing::TestParamInfo<MtCase>& info) {
      const auto& c = info.param;
      return std::string(maf::scheme_name(c.scheme)) + "_" +
             std::to_string(c.p) + "x" + std::to_string(c.q) + "_" +
             std::to_string(c.ports) + "P_" +
             access::pattern_name(c.kind);
    });

TEST(ReadBatchMt, ValidatesLikeSerialBatch) {
  const auto cfg =
      PolyMemConfig::with_capacity(16 * KiB, maf::Scheme::kReRo, 2, 4);
  PolyMem mem(cfg);
  runtime::ThreadPool pool(2);
  std::vector<Word> out(8 * cfg.lanes());
  // Out-of-bounds batch: rejected up front, before any thread runs.
  const AccessBatch oob = AccessBatch::strided(
      PatternKind::kRow, {cfg.height - 1, 0},
      {1, 0}, 8);
  EXPECT_THROW(mem.read_batch_mt(oob, pool, out), InvalidArgument);
  // Wrong buffer size.
  const AccessBatch good = AccessBatch::strided(
      PatternKind::kRow, {0, 0}, {1, 0}, 8);
  std::vector<Word> small(cfg.lanes());
  EXPECT_THROW(mem.read_batch_mt(good, pool, small), Error);
}

TEST(ReadBatchMt, MixedWithWritesBetweenBatches) {
  // Alternating write_batch / read_batch_mt phases: the read-only phase
  // contract holds between (not within) phases, and each phase sees the
  // preceding writes on every port.
  const auto cfg =
      PolyMemConfig::with_capacity(16 * KiB, maf::Scheme::kReRo, 2, 4, 4);
  PolyMem mem(cfg);
  runtime::ThreadPool pool(3);
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const AccessBatch rows = AccessBatch::strided(
      PatternKind::kRow, {0, 0}, {0, lanes}, cfg.width / lanes);
  std::vector<Word> data(static_cast<std::size_t>(rows.count()) * lanes);
  std::vector<Word> back(data.size());
  for (int phase = 0; phase < 3; ++phase) {
    for (std::size_t k = 0; k < data.size(); ++k)
      data[k] = static_cast<Word>(phase * 1'000'003 + k);
    mem.write_batch(rows, data);
    mem.read_batch_mt(rows, pool, back);
    EXPECT_EQ(back, data) << "phase " << phase;
  }
}

// AdaptiveMatrix's copier calls dump_rect on the active epoch without the
// engine lock while a client runs that epoch's engine (or its own locked
// dump_rect), and fill_rect on the target epoch while forwarding writes
// (fill_rect or store) land in other bands. Here all of it runs on one
// PolyMem: two dump_rect loops and an engine loop over the same read-only
// rows, two fill_rect loops into disjoint rows, a store loop into a third
// range. Under TSan this fails as soon as either call writes member state.
TEST(RectBackdoorMt, CopierCallsRunBesideTheEngine) {
  PolyMemConfig cfg;
  cfg.scheme = maf::Scheme::kRoCo;
  cfg.read_ports = 2;
  cfg.height = 48;
  cfg.width = 64;
  PolyMem mem(cfg);
  const std::int64_t w = cfg.width;
  const auto lanes = static_cast<std::int64_t>(cfg.lanes());
  const auto cell = [](std::int64_t i, std::int64_t j, std::int64_t round) {
    return static_cast<Word>((round << 32) ^ (i << 16) ^ j);
  };
  // Rows [0, 16) are read-only; fillers own [16, 24) and [24, 32); the
  // store loop owns [32, 40); [40, 48) stays zero.
  constexpr std::int64_t kReadRows = 16;
  constexpr int kRounds = 40;
  std::vector<Word> image(static_cast<std::size_t>(kReadRows * w));
  for (std::int64_t i = 0; i < kReadRows; ++i)
    for (std::int64_t j = 0; j < w; ++j)
      image[static_cast<std::size_t>(i * w + j)] = cell(i, j, 0);
  mem.fill_rect({0, 0}, kReadRows, w, image);

  const auto dumper = [&] {
    std::vector<Word> out(image.size());
    for (int round = 0; round < kRounds; ++round) {
      mem.dump_rect({0, 0}, kReadRows, w, out);
      EXPECT_EQ(out, image);
    }
  };
  const auto engine = [&] {
    const AccessBatch rows{PatternKind::kRow, {0, 0}, {0, lanes},
                           w / lanes,         {1, 0}, kReadRows};
    std::vector<Word> out(image.size());
    std::vector<Word> one(cfg.lanes());
    for (int round = 0; round < kRounds; ++round) {
      mem.read_batch(rows, 1, out);
      EXPECT_EQ(out, image);
      mem.read_into({PatternKind::kRow, {round % kReadRows, 3}}, 0, one);
      for (std::int64_t l = 0; l < lanes; ++l)
        EXPECT_EQ(one[static_cast<std::size_t>(l)],
                  cell(round % kReadRows, 3 + l, 0));
    }
  };
  const auto filler = [&](std::int64_t first_row) {
    std::vector<Word> in(static_cast<std::size_t>(8 * w));
    for (int round = 1; round <= kRounds; ++round) {
      for (std::int64_t i = 0; i < 8; ++i)
        for (std::int64_t j = 0; j < w; ++j)
          in[static_cast<std::size_t>(i * w + j)] =
              cell(first_row + i, j, round);
      mem.fill_rect({first_row, 0}, 8, w, in);
    }
  };
  const auto storer = [&] {
    for (int round = 1; round <= kRounds; ++round)
      for (std::int64_t i = 32; i < 40; ++i)
        for (std::int64_t j = 0; j < w; ++j) mem.store({i, j}, cell(i, j, round));
  };

  std::vector<std::thread> threads;
  threads.emplace_back(dumper);
  threads.emplace_back(dumper);
  threads.emplace_back(engine);
  threads.emplace_back(filler, 16);
  threads.emplace_back(filler, 24);
  threads.emplace_back(storer);
  for (std::thread& t : threads) t.join();

  for (std::int64_t i = 0; i < cfg.height; ++i)
    for (std::int64_t j = 0; j < w; ++j) {
      const Word want = i < kReadRows ? cell(i, j, 0)
                        : i < 40      ? cell(i, j, kRounds)
                                      : 0;
      ASSERT_EQ(mem.load({i, j}), want) << "(" << i << ", " << j << ")";
    }
  // Every replica took the fills: rows on the second read port too.
  std::vector<Word> all(static_cast<std::size_t>(cfg.height * w));
  mem.read_batch({PatternKind::kRow, {0, 0}, {0, lanes}, w / lanes, {1, 0},
                  cfg.height},
                 1, all);
  for (std::int64_t i = 0; i < cfg.height; ++i)
    for (std::int64_t j = 0; j < w; ++j)
      ASSERT_EQ(all[static_cast<std::size_t>(i * w + j)], mem.load({i, j}));
}

}  // namespace
}  // namespace polymem::core
