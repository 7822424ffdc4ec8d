#include "common/strings.h"

#include <gtest/gtest.h>

namespace kg {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, NoSeparatorYieldsWhole) {
  const auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  const auto parts = SplitWhitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(JoinTest, RoundTripsWithSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(TrimTest, RemovesEdgesOnly) {
  EXPECT_EQ(Trim("  a b  "), "a b");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("AbC-12"), "abc-12");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("kgraph", "kg"));
  EXPECT_FALSE(StartsWith("kg", "kgraph"));
}

TEST(FormatDoubleTest, RespectsDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(FormatCountTest, InsertsThousandsSeparators) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(-9876), "-9,876");
}

}  // namespace
}  // namespace kg
