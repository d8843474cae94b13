#include <gtest/gtest.h>

#include <set>

#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/string_util.h"

namespace res {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = InvalidArgument("bad register");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad register");
  EXPECT_EQ(s.ToString(), "invalid_argument: bad register");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDataLoss); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return InvalidArgument("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  RES_ASSIGN_OR_RETURN(int h, Half(x));
  RES_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
  EXPECT_FALSE(Quarter(5).ok());
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    differing += a.Next() != b.Next() ? 1 : 0;
  }
  EXPECT_GT(differing, 30);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextBelow(0), 0u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all five values hit
}

TEST(RngTest, ForkGivesIndependentStream) {
  Rng a(5);
  Rng fork = a.Fork();
  EXPECT_NE(a.Next(), fork.Next());
}

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(FnvHashBytes(nullptr, 0), kFnvOffsetBasis);
  EXPECT_NE(FnvHashString("a"), FnvHashString("b"));
}

TEST(HashTest, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(HashU64(1), HashU64(2)), HashCombine(HashU64(2), HashU64(1)));
}

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 5, "ok"), "x=5 y=ok");
  EXPECT_EQ(StrFormat("%lld", -9000000000LL), "-9000000000");
}

TEST(StringUtilTest, StrSplit) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  auto with_empty = StrSplit("a,b,,c", ',', /*skip_empty=*/false);
  EXPECT_EQ(with_empty.size(), 4u);
}

TEST(StringUtilTest, StrTrim) {
  EXPECT_EQ(StrTrim("  hi \t"), "hi");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringUtilTest, ParseInt64Decimal) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(StringUtilTest, ParseInt64Hex) {
  EXPECT_EQ(ParseInt64("0x10").value(), 16);
  EXPECT_EQ(ParseInt64("0xdeadBEEF").value(), 0xdeadbeef);
}

TEST(StringUtilTest, ParseInt64Rejects) {
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_FALSE(ParseInt64("abc").has_value());
  EXPECT_FALSE(ParseInt64("12x").has_value());
  EXPECT_FALSE(ParseInt64("99999999999999999999999").has_value());
}

TEST(StringUtilTest, ParseInt64Extremes) {
  EXPECT_EQ(ParseInt64("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt64("-9223372036854775808").value(), INT64_MIN);
  EXPECT_FALSE(ParseInt64("9223372036854775808").has_value());
  EXPECT_FALSE(ParseInt64("-9223372036854775809").has_value());
  // value * 10 wraps here while the running sum still grows.
  EXPECT_FALSE(ParseInt64("23058430092136939520").has_value());
  EXPECT_FALSE(ParseInt64("-23058430092136939520").has_value());
  EXPECT_FALSE(ParseInt64("0x10000000000000000").has_value());
}

TEST(StringUtilTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
}

}  // namespace
}  // namespace res
