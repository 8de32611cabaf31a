#include "core/banks.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hpp"

namespace polymem::core {
namespace {

TEST(BankArray, WriteReadRoundTripBankOrder) {
  BankArray banks(8, 1, 16);
  std::vector<std::int64_t> addr(8, 3);
  std::vector<hw::Word> data(8);
  std::iota(data.begin(), data.end(), 100u);
  banks.begin_cycle();
  banks.write(addr, data);
  std::vector<hw::Word> out(8);
  banks.begin_cycle();
  banks.read(0, addr, out);
  EXPECT_EQ(out, data);
}

TEST(BankArray, WriteReplicatesToEveryReadPort) {
  BankArray banks(4, 3, 8);
  std::vector<std::int64_t> addr = {0, 1, 2, 3};
  std::vector<hw::Word> data = {10, 11, 12, 13};
  banks.begin_cycle();
  banks.write(addr, data);
  for (unsigned port = 0; port < 3; ++port) {
    std::vector<hw::Word> out(4);
    banks.begin_cycle();
    banks.read(port, addr, out);
    EXPECT_EQ(out, data) << "port " << port;
  }
}

TEST(BankArray, ReadPortsAreIndependentWithinOneCycle) {
  BankArray banks(2, 2, 4);
  banks.poke(0, 0, 7);
  banks.poke(1, 0, 8);
  std::vector<std::int64_t> addr = {0, 0};
  std::vector<hw::Word> out0(2), out1(2);
  banks.begin_cycle();
  banks.read(0, addr, out0);
  EXPECT_NO_THROW(banks.read(1, addr, out1));  // different replica: no conflict
  EXPECT_EQ(out0, out1);
  // Same port twice in one cycle conflicts.
  EXPECT_THROW(banks.read(0, addr, out0), Error);
}

TEST(BankArray, ConcurrentReadAndWriteAllowed) {
  BankArray banks(2, 1, 4);
  std::vector<std::int64_t> addr = {1, 1};
  std::vector<hw::Word> data = {5, 6};
  std::vector<hw::Word> out(2);
  banks.begin_cycle();
  banks.read(0, addr, out);
  EXPECT_NO_THROW(banks.write(addr, data));  // independent write port
}

TEST(BankArray, PokeUpdatesAllReplicas) {
  BankArray banks(2, 2, 4);
  banks.poke(1, 2, 99);
  std::vector<std::int64_t> addr = {0, 2};
  std::vector<hw::Word> out(2);
  banks.begin_cycle();
  banks.read(1, addr, out);
  EXPECT_EQ(out[1], 99u);
  EXPECT_EQ(banks.peek(1, 2), 99u);
}

TEST(BankArray, SizeMismatchRejected) {
  BankArray banks(4, 1, 8);
  std::vector<std::int64_t> addr = {0, 1};
  std::vector<hw::Word> data(4);
  banks.begin_cycle();
  EXPECT_THROW(banks.write(addr, data), InvalidArgument);
}

TEST(BankArray, Counters) {
  BankArray banks(2, 2, 4);
  std::vector<std::int64_t> addr = {0, 0};
  std::vector<hw::Word> data = {1, 2};
  std::vector<hw::Word> out(2);
  banks.begin_cycle();
  banks.write(addr, data);       // 2 banks x 2 replicas = 4 writes
  banks.read(0, addr, out);      // 2 reads
  EXPECT_EQ(banks.total_writes(), 4u);
  EXPECT_EQ(banks.total_reads(), 2u);
}

// The compiled engine credits whole accesses in O(1); the totals must
// equal what the same accesses issued one ported cycle at a time count.
TEST(BankArray, BulkCreditsMatchPerAccessTotals) {
  constexpr unsigned kBanks = 4, kPorts = 3;
  BankArray per_access(kBanks, kPorts, 8);
  BankArray mixed(kBanks, kPorts, 8);
  std::vector<std::int64_t> addr = {0, 1, 2, 3};
  std::vector<hw::Word> data = {1, 2, 3, 4};
  std::vector<hw::Word> out(kBanks);
  // Per access: 5 reads on port 0, 2 on port 2, 3 writes.
  for (int n = 0; n < 5; ++n) {
    per_access.begin_cycle();
    per_access.read(0, addr, out);
  }
  for (int n = 0; n < 2; ++n) {
    per_access.begin_cycle();
    per_access.read(2, addr, out);
  }
  for (int n = 0; n < 3; ++n) {
    per_access.begin_cycle();
    per_access.write(addr, data);
  }
  // Mixed: one read on port 0 and one write ported, the rest bulk.
  mixed.begin_cycle();
  mixed.read(0, addr, out);
  mixed.write(addr, data);
  mixed.add_bulk_reads(0, 4);
  mixed.add_bulk_reads(2, 2);
  mixed.add_bulk_writes(2);
  EXPECT_EQ(per_access.total_reads(), 7u * kBanks);
  EXPECT_EQ(per_access.total_writes(), 3u * kBanks * kPorts);
  EXPECT_EQ(mixed.total_reads(), per_access.total_reads());
  EXPECT_EQ(mixed.total_writes(), per_access.total_writes());
  EXPECT_THROW(mixed.add_bulk_reads(kPorts, 1), InvalidArgument);
}

TEST(BankArray, InvalidIndicesRejected) {
  BankArray banks(2, 1, 4);
  EXPECT_THROW(banks.peek(2, 0), InvalidArgument);
  std::vector<std::int64_t> addr = {0, 0};
  std::vector<hw::Word> out(2);
  banks.begin_cycle();
  EXPECT_THROW(banks.read(1, addr, out), InvalidArgument);
}

}  // namespace
}  // namespace polymem::core
