// The threading contract of a PolyMem (core/polymem.hpp, "Threading"):
// one thread runs the engine, and the host rectangle transfers and
// load/store run beside it and beside each other. A TSan gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "core/polymem.hpp"

namespace polymem::core {
namespace {

using access::PatternKind;

// fill_rect, dump_rect and store beside the engine, all on one PolyMem:
// two dump_rect loops and an engine loop over the same read-only rows,
// two fill_rect loops into disjoint rows, a store loop into a third
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
