#include "maxsim/lmem.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.hpp"

namespace polymem::maxsim {
namespace {

TEST(LMem, ReadsBackWrites) {
  LMem mem(1 << 20);
  std::vector<hw::Word> data = {1, 2, 3, 4};
  mem.write(100, data);
  std::vector<hw::Word> out(4);
  mem.read(100, out);
  EXPECT_EQ(out, data);
}

TEST(LMem, UnwrittenMemoryReadsZero) {
  LMem mem(1 << 20);
  std::vector<hw::Word> out(8, 0xFF);
  mem.read(5000, out);
  for (hw::Word w : out) EXPECT_EQ(w, 0u);
}

TEST(LMem, LargeCapacityWithoutLargeHostMemory) {
  // The Vectis carries 24GB; the model must handle addresses across the
  // whole range while materialising only touched pages.
  LMem mem;  // 24GB default
  EXPECT_EQ(mem.capacity_bytes(), 24ull << 30);
  std::vector<hw::Word> w = {42};
  mem.write((20ull << 30) / 8, w);
  std::vector<hw::Word> r(1);
  mem.read((20ull << 30) / 8, r);
  EXPECT_EQ(r[0], 42u);
  EXPECT_LE(mem.resident_pages(), 2u);
}

TEST(LMem, CrossPageTransfers) {
  LMem mem(1 << 20);
  std::vector<hw::Word> data(1500);
  for (std::size_t k = 0; k < data.size(); ++k) data[k] = k;
  mem.write(100, data);  // spans 3+ 512-word pages
  std::vector<hw::Word> out(1500);
  mem.read(100, out);
  EXPECT_EQ(out, data);
  EXPECT_GE(mem.resident_pages(), 3u);
}

TEST(LMem, OutOfRangeRejected) {
  LMem mem(1024);  // 128 words
  std::vector<hw::Word> data(8);
  EXPECT_NO_THROW(mem.write(120, data));
  EXPECT_THROW(mem.write(121, data), InvalidArgument);
  std::vector<hw::Word> out(8);
  EXPECT_THROW(mem.read(121, out), InvalidArgument);

  // An address whose byte offset wraps 64 bits must not slip past the
  // check: (2^61 + 1) * 8 == 8 (mod 2^64).
  LMem big(1 << 20);
  const std::uint64_t wrapping = 1ull << 61;
  const std::vector<hw::Word> one = {42};
  EXPECT_THROW(big.write(wrapping, one), InvalidArgument);
  std::vector<hw::Word> back(1);
  EXPECT_THROW(big.read(wrapping, back), InvalidArgument);
  EXPECT_EQ(big.resident_pages(), 0u);
}

TEST(LMem, ReadAcrossAbsentAndWrittenPagesGivesZerosThenData) {
  // Page 1 (words 512..1023) is written, page 0 never is: one read over
  // the boundary returns the zeros of the absent page, then the data,
  // and materialises nothing.
  LMem mem(1 << 20);
  std::vector<hw::Word> data(100);
  for (std::size_t k = 0; k < data.size(); ++k) data[k] = 1000 + k;
  mem.write(512, data);
  EXPECT_EQ(mem.resident_pages(), 1u);
  std::vector<hw::Word> out(150, 0xFF);
  mem.read(462, out);
  for (std::size_t k = 0; k < 50; ++k) EXPECT_EQ(out[k], 0u) << k;
  for (std::size_t k = 50; k < 150; ++k)
    EXPECT_EQ(out[k], data[k - 50]) << k;
  EXPECT_EQ(mem.resident_pages(), 1u);
}

TEST(LMem, ConcurrentPageCrossingTransfersKeepEveryWord) {
  // Each thread owns a band of words that straddles page boundaries and
  // round-trips page-crossing ranges through it while the others do the
  // same on theirs; every word read back, and every word of the final
  // image, must be the one its thread wrote last. Under TSan this is the
  // LMem lock's gate.
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  constexpr std::uint64_t kBand = 3 * 512 + 77;
  const auto base = [](int t) {
    return 300 + static_cast<std::uint64_t>(t) * kBand;
  };
  const auto offset = [](int round) {
    return static_cast<std::uint64_t>(round) * 131 % 512;
  };
  const auto word = [](int t, int round, std::uint64_t k) {
    return (static_cast<hw::Word>(t) << 48) ^
           (static_cast<hw::Word>(round) << 32) ^ k;
  };
  LMem mem(1 << 22);
  std::vector<int> bad(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<hw::Word> data, back;
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t off = offset(round);
        data.resize(static_cast<std::size_t>(kBand - off));
        for (std::size_t k = 0; k < data.size(); ++k)
          data[k] = word(t, round, off + k);
        back.assign(data.size(), 0);
        mem.write(base(t) + off, data);
        mem.read(base(t) + off, back);
        bad[static_cast<std::size_t>(t)] += back != data;
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<hw::Word> image(kBand);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(bad[static_cast<std::size_t>(t)], 0) << "thread " << t;
    mem.read(base(t), image);
    for (std::uint64_t k = 0; k < kBand; ++k) {
      int last = -1;  // the last round whose range covered word k
      for (int round = 0; round < kRounds; ++round)
        if (offset(round) <= k) last = round;
      ASSERT_EQ(image[k], last < 0 ? 0 : word(t, last, k))
          << "thread " << t << " word " << k;
    }
  }
}

TEST(LMem, BurstTimingLatencyPlusBandwidth) {
  // "the latency of this memory is relatively high ... bandwidth is
  // limited" — PolyMem's raison d'etre.
  LMem mem(1 << 20, 15e9, 200.0);
  EXPECT_DOUBLE_EQ(mem.burst_seconds(0), 200e-9);
  EXPECT_NEAR(mem.burst_seconds(15'000'000), 200e-9 + 1e-3, 1e-9);
}

TEST(LMem, PolyMemBeatsLMemOnReuse) {
  // Architectural sanity: one PolyMem parallel access (8 words, 1 cycle at
  // 120MHz ~ 8.3ns) vs an LMem burst of the same 64 bytes (200ns+).
  LMem lmem;
  const double lmem_time = lmem.burst_seconds(64);
  const double polymem_time = 1.0 / 120e6;
  EXPECT_LT(polymem_time * 10, lmem_time);
}

}  // namespace
}  // namespace polymem::maxsim
