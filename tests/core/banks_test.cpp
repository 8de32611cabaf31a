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
