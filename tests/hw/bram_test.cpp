#include "hw/bram.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace polymem::hw {
namespace {

TEST(BramBank, ZeroInitialised) {
  BramBank b(16);
  for (int a = 0; a < 16; ++a) EXPECT_EQ(b.peek(a), 0u);
}

TEST(BramBank, WriteThenReadBack) {
  BramBank b(16);
  b.begin_cycle();
  b.write(3, 0xDEADBEEF);
  b.begin_cycle();
  EXPECT_EQ(b.read(3), 0xDEADBEEFu);
}

TEST(BramBank, OneReadAndOneWritePerCycleAllowed) {
  BramBank b(16);
  b.begin_cycle();
  b.poke(5, 42);
  EXPECT_EQ(b.read(5), 42u);   // read port
  b.write(6, 7);               // write port, same cycle: fine
  EXPECT_EQ(b.peek(6), 7u);
}

TEST(BramBank, SecondReadSameCycleIsBankConflict) {
  BramBank b(16);
  b.begin_cycle();
  b.read(0);
  EXPECT_THROW(b.read(1), Error);
  // Next cycle the port is free again.
  b.begin_cycle();
  EXPECT_NO_THROW(b.read(1));
}

TEST(BramBank, SecondWriteSameCycleIsBankConflict) {
  BramBank b(16);
  b.begin_cycle();
  b.write(0, 1);
  EXPECT_THROW(b.write(1, 2), Error);
  b.begin_cycle();
  EXPECT_NO_THROW(b.write(1, 2));
}

TEST(BramBank, AddressBoundsChecked) {
  BramBank b(8);
  b.begin_cycle();
  EXPECT_THROW(b.read(8), InvalidArgument);
  EXPECT_THROW(b.write(-1, 0), InvalidArgument);
  EXPECT_THROW(b.peek(100), InvalidArgument);
}

TEST(BramBank, PeekPokeBypassPortAccounting) {
  BramBank b(8);
  b.begin_cycle();
  b.read(0);
  // peek/poke are host backdoors and never conflict.
  EXPECT_NO_THROW(b.peek(0));
  EXPECT_NO_THROW(b.poke(0, 9));
  EXPECT_EQ(b.peek(0), 9u);
}

TEST(BramBank, RejectsEmptyBank) {
  EXPECT_THROW(BramBank(0), InvalidArgument);
}

}  // namespace
}  // namespace polymem::hw
