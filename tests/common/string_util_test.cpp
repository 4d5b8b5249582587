#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace mb {
namespace {

TEST(StartsWith, Cases) {
  EXPECT_TRUE(startsWith("hello", "he"));
  EXPECT_TRUE(startsWith("hello", ""));
  EXPECT_FALSE(startsWith("he", "hello"));
  EXPECT_FALSE(startsWith("hello", "lo"));
}

TEST(MatchFlag, TakesTheValueOfItsOwnFlag) {
  std::string v;
  EXPECT_TRUE(matchFlag("--seed=7", "seed", &v));
  EXPECT_EQ(v, "7");
}

TEST(MatchFlag, IgnoresAnotherFlag) {
  std::string v = "unchanged";
  EXPECT_FALSE(matchFlag("--instrs=7", "seed", &v));
  EXPECT_FALSE(matchFlag("--seed", "seed", &v));
  EXPECT_EQ(v, "unchanged");
}

TEST(MatchFlag, NameMustEndAtTheEqualsSign) {
  std::string v = "unchanged";
  EXPECT_FALSE(matchFlag("--seedx=1", "seed", &v));
  EXPECT_EQ(v, "unchanged");
}

TEST(MatchFlag, EmptyValueMatches) {
  std::string v = "unchanged";
  EXPECT_TRUE(matchFlag("--seed=", "seed", &v));
  EXPECT_EQ(v, "");
}

TEST(ParseInt, RejectsAnythingButAWholeDecimal) {
  for (const char* text : {"", "-", "+5", " 7", "7 ", "1e5", "7x", "0x10"})
    EXPECT_FALSE(parseInt(text, INT64_MIN, INT64_MAX).has_value()) << '"' << text << '"';
}

TEST(ParseInt, BothBoundsAreInclusive) {
  EXPECT_EQ(parseInt("1", 1, 10), 1);
  EXPECT_EQ(parseInt("10", 1, 10), 10);
  EXPECT_EQ(parseInt("-3", -3, 3), -3);
  EXPECT_EQ(parseInt("7", 7, 7), 7);
}

TEST(ParseInt, RejectsOnePastEachBound) {
  EXPECT_FALSE(parseInt("0", 1, 10).has_value());
  EXPECT_FALSE(parseInt("11", 1, 10).has_value());
  EXPECT_FALSE(parseInt("-4", -3, 3).has_value());
  EXPECT_FALSE(parseInt("4", -3, 3).has_value());
}

TEST(ParseInt, RejectsInt64Overflow) {
  EXPECT_EQ(parseInt("9223372036854775807", 0, INT64_MAX), INT64_MAX);
  EXPECT_EQ(parseInt("-9223372036854775808", INT64_MIN, 0), INT64_MIN);
  EXPECT_FALSE(parseInt("9223372036854775808", 0, INT64_MAX).has_value());
  EXPECT_FALSE(parseInt("-9223372036854775809", INT64_MIN, 0).has_value());
  EXPECT_FALSE(parseInt("99999999999999999999", INT64_MIN, INT64_MAX).has_value());
}

}  // namespace
}  // namespace mb
