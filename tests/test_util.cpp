// Unit tests for hmr utility helpers: stats, csv, argparse, rng, units,
// tables.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace hmr {
namespace {

TEST(ParseU64, DigitsOnly) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  // strtoull accepts every one of these; parse_u64 rejects them.
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1e3",
                          "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(3.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RowShape) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"name", "value"});
  w.field(std::string_view("x")).field(1.5);
  w.end_row();
  EXPECT_EQ(os.str(), "name,value\nx,1.5\n");
}

TEST(Csv, RowWidthMismatchDies) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.field(std::string_view("only-one"));
  EXPECT_DEATH(w.end_row(), "row width");
}

TEST(ArgParse, ParsesAllKinds) {
  bool flag = false;
  std::int64_t n = 0;
  std::uint64_t u = 0;
  double d = 0;
  std::string s;
  ArgParser p("prog", "test");
  p.add_flag("flag", "a bool", &flag);
  p.add_flag("n", "an int", &n);
  p.add_flag("u", "a uint", &u);
  p.add_flag("d", "a double", &d);
  p.add_flag("s", "a string", &s);
  const char* argv[] = {"prog", "--flag",   "--n", "-3", "--u=42",
                        "--d",  "2.5",      "--s", "hello"};
  ASSERT_TRUE(p.parse(9, argv));
  EXPECT_TRUE(flag);
  EXPECT_EQ(n, -3);
  EXPECT_EQ(u, 42u);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(s, "hello");
}

TEST(ArgParse, RejectsUnknownFlag) {
  ArgParser p("prog", "test");
  const char* argv[] = {"prog", "--nope"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(ArgParse, RejectsBadValue) {
  std::int64_t n = 0;
  ArgParser p("prog", "test");
  p.add_flag("n", "an int", &n);
  const char* argv[] = {"prog", "--n", "abc"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(ArgParse, RejectsNegativeUint) {
  std::uint64_t u = 0;
  ArgParser p("prog", "test");
  p.add_flag("u", "a uint", &u);
  const char* argv[] = {"prog", "--u", "-1"};
  EXPECT_FALSE(p.parse(3, argv));
}

TEST(ArgParse, MissingValueFails) {
  double d = 0;
  ArgParser p("prog", "test");
  p.add_flag("d", "a double", &d);
  const char* argv[] = {"prog", "--d"};
  EXPECT_FALSE(p.parse(2, argv));
}

TEST(Rng, DeterministicForSeed) {
  Xoshiro256 a(123), b(123), c(124);
  bool all_equal = true, any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a(), vb = b(), vc = c();
    all_equal &= (va == vb);
    any_diff |= (va != vc);
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 r(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.below(7), 7u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(11);
  double lo = 1, hi = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  // With 10k samples the empirical range should cover most of [0,1).
  EXPECT_LT(lo, 0.01);
  EXPECT_GT(hi, 0.99);
}

TEST(Units, FormatsBytes) {
  EXPECT_EQ(fmt_bytes(512), "512 B");
  EXPECT_EQ(fmt_bytes(16 * GiB), "16.0 GiB");
  EXPECT_EQ(fmt_bytes(1536), "1.5 KiB");
}

TEST(Units, FormatsSeconds) {
  EXPECT_EQ(fmt_seconds(1.5), "1.500 s");
  EXPECT_EQ(fmt_seconds(0.0123), "12.300 ms");
  EXPECT_EQ(fmt_seconds(4.2e-6), "4.200 us");
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "v"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name    v"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Table, RowWidthMismatchDies) {
  TextTable t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

TEST(Strfmt, FormatsLikePrintf) {
  EXPECT_EQ(strfmt("%d/%0.2f/%s", 3, 1.5, "x"), "3/1.50/x");
}

} // namespace
} // namespace hmr
