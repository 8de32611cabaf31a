#include "common/config.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"

namespace polymem {
namespace {

TEST(ConfigFile, ParsesKeyValuesAndComments) {
  const auto cfg = ConfigFile::parse(
      "# a DSE configuration\n"
      "capacity_kb = 512\n"
      "scheme = ReRo   # trailing comment\n"
      "lanes=8\n"
      "\n"
      "clock_mhz = 196.5\n"
      "validate = true\n");
  EXPECT_EQ(parse_decimal(cfg.get_string("capacity_kb")), 512);
  EXPECT_EQ(cfg.get_string("scheme"), "ReRo");
  EXPECT_EQ(parse_decimal(cfg.get_string("lanes")), 8);
  EXPECT_DOUBLE_EQ(cfg.get_double("clock_mhz"), 196.5);
  EXPECT_TRUE(cfg.get_bool("validate"));
}

TEST(ConfigFile, MissingKeyThrows) {
  const auto cfg = ConfigFile::parse("a = 1\n");
  EXPECT_THROW(cfg.get_string("b"), InvalidArgument);
  EXPECT_FALSE(cfg.has("b"));
  EXPECT_TRUE(cfg.has("a"));
}

TEST(ConfigFile, FallbackGetters) {
  const auto cfg = ConfigFile::parse("x = 3\n");
  EXPECT_EQ(parse_decimal(cfg.get_string_or("x", "7")), 3);
  EXPECT_EQ(parse_decimal(cfg.get_string_or("y", "7")), 7);
  EXPECT_EQ(cfg.get_string_or("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(cfg.get_double_or("z", 1.5), 1.5);
  EXPECT_TRUE(cfg.get_bool_or("flag", true));
}

TEST(ConfigFile, MalformedLineThrows) {
  EXPECT_THROW(ConfigFile::parse("no equals sign here\n"), InvalidArgument);
  EXPECT_THROW(ConfigFile::parse("= value-without-key\n"), InvalidArgument);
}

TEST(ConfigFile, TypeErrorsThrow) {
  const auto cfg = ConfigFile::parse("n = 12abc\nb = maybe\n");
  EXPECT_EQ(parse_decimal(cfg.get_string("n")), std::nullopt);
  EXPECT_THROW(cfg.get_bool("b"), InvalidArgument);
}

TEST(ConfigFile, BoolSpellings) {
  const auto cfg = ConfigFile::parse(
      "a = true\nb = 0\nc = YES\nd = off\n");
  EXPECT_TRUE(cfg.get_bool("a"));
  EXPECT_FALSE(cfg.get_bool("b"));
  EXPECT_TRUE(cfg.get_bool("c"));
  EXPECT_FALSE(cfg.get_bool("d"));
}

TEST(ConfigFile, LoadMissingFileThrows) {
  EXPECT_THROW(ConfigFile::load("/nonexistent/path/cfg.txt"), InvalidArgument);
}

TEST(ParseDecimal, ReadsWholeDecimals) {
  EXPECT_EQ(parse_decimal("512"), 512);
  EXPECT_EQ(parse_decimal("-3"), -3);
  EXPECT_EQ(parse_decimal("010"), 10);  // decimal, not octal
}

TEST(ParseDecimal, RejectsAnythingElse) {
  for (const char* text : {"0x10", "+1", " 1", "12abc", "",
                           "9223372036854775808"})
    EXPECT_EQ(parse_decimal(text), std::nullopt) << '"' << text << '"';
}

}  // namespace
}  // namespace polymem
