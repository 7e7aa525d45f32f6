// Tests for the Projections-like tracer.

#include <gtest/gtest.h>

#include <sstream>

#include "trace/tracer.hpp"

namespace hmr::trace {
namespace {

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  t.record(0, Category::Compute, 0.0, 1.0);
  EXPECT_TRUE(t.intervals().empty());
}

TEST(Tracer, IntervalsSortedByLaneThenStart) {
  Tracer t;
  t.record(1, Category::Compute, 2.0, 3.0);
  t.record(0, Category::Wait, 1.0, 2.0);
  t.record(0, Category::Compute, 0.0, 1.0);
  const auto ivs = t.intervals();
  ASSERT_EQ(ivs.size(), 3u);
  EXPECT_EQ(ivs[0].lane, 0);
  EXPECT_EQ(ivs[0].start, 0.0);
  EXPECT_EQ(ivs[1].start, 1.0);
  EXPECT_EQ(ivs[2].lane, 1);
}

TEST(Tracer, ZeroWidthIntervalsDropped) {
  Tracer t;
  t.record(0, Category::Compute, 1.0, 1.0);
  EXPECT_TRUE(t.intervals().empty());
}

TEST(Tracer, BackwardsIntervalDies) {
  Tracer t;
  EXPECT_DEATH(t.record(0, Category::Compute, 2.0, 1.0), "ends before");
}

TEST(Tracer, SummaryTotalsPerCategory) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 2.0);
  t.record(0, Category::Prefetch, 2.0, 3.0);
  t.record(1, Category::Compute, 0.0, 1.0);
  const auto s = t.summarize();
  EXPECT_DOUBLE_EQ(s.total_of(Category::Compute), 3.0);
  EXPECT_DOUBLE_EQ(s.total_of(Category::Prefetch), 1.0);
  EXPECT_EQ(s.count_of(Category::Compute), 2u);
  EXPECT_DOUBLE_EQ(s.span, 3.0);
  EXPECT_EQ(s.lanes, 2);
  EXPECT_NEAR(s.overhead_fraction(), 0.25, 1e-12);
}

TEST(Tracer, SummaryLaneFilter) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 1.0);
  t.record(5, Category::Prefetch, 0.0, 4.0); // an IO pseudo-lane
  const auto workers = t.summarize(/*worker_lanes=*/1);
  EXPECT_DOUBLE_EQ(workers.total_of(Category::Prefetch), 0.0);
  EXPECT_DOUBLE_EQ(workers.total_of(Category::Compute), 1.0);
}

TEST(Tracer, FillIdleCoversGaps) {
  Tracer t;
  t.record(0, Category::Compute, 1.0, 2.0);
  t.record(0, Category::Compute, 3.0, 4.0);
  t.fill_idle(0.0, 5.0);
  const auto s = t.summarize();
  // Gaps [0,1], [2,3], [4,5] -> 3 seconds idle.
  EXPECT_DOUBLE_EQ(s.total_of(Category::Idle), 3.0);
}

TEST(Tracer, CsvHasHeaderAndRows) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 1.5, 42);
  std::ostringstream os;
  t.write_csv(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("lane,category,start,end,task"), std::string::npos);
  EXPECT_NE(out.find("0,compute,0,1.5,42"), std::string::npos);
}

TEST(Tracer, CsvRoundTripsIntervalsAndTrailers) {
  Tracer::Options opt;
  opt.ring_capacity = 8; // the minimum: lane 0 overflows below
  Tracer t(true, opt);
  for (int i = 0; i < 12; ++i) {
    t.record(0, Category::Compute, 0.25 * i, 0.25 * i + 0.125,
             static_cast<std::uint64_t>(i));
  }
  t.record_migration(3, Category::Prefetch, 1.5, 2.0625, 1ull << 40,
                     /*src=*/2, /*dst=*/0, /*bytes=*/3ull << 30);
  t.record(1, Category::Wait, 0.5, 0.75);
  t.note_copy_fallbacks(5);
  ASSERT_GT(t.dropped(), 0u);

  std::stringstream csv;
  t.write_csv(csv);
  const CsvTrace back = read_csv(csv);
  EXPECT_EQ(back.error, "");
  EXPECT_EQ(back.intervals, t.intervals());
  EXPECT_EQ(back.dropped, t.dropped());
  EXPECT_EQ(back.ring_fallbacks, 5u);
}

TEST(Tracer, CsvReaderNamesTheBadLine) {
  const auto read = [](const std::string& text) {
    std::istringstream is(text);
    return read_csv(is);
  };
  const std::string header =
      "lane,category,start,end,task,src_tier,dst_tier,bytes\n";
  EXPECT_EQ(read("").error, "empty input");
  EXPECT_EQ(read("lane,start\n").error, "unrecognized header: lane,start");
  EXPECT_EQ(read("lane,start\n").error_line, 1u);

  const CsvTrace bad =
      read(header + "0,compute,0,1,1,0,0,0\n\n0,compute,zero,1,1,0,0,0\n");
  EXPECT_EQ(bad.error, "bad row at line 4");
  EXPECT_EQ(bad.error_line, 4u);
  EXPECT_EQ(read(header + "0,nap,0,1,1,0,0,0\n").error,
            "bad row at line 2");
  EXPECT_EQ(read(header + "0,compute,2,1,1,0,0,0\n").error,
            "bad row at line 2"); // ends before it starts
  EXPECT_EQ(read(header + "# dropped=x\n").error, "bad comment at line 2");

  // Zero-width rows and unknown comments pass through.
  const CsvTrace ok =
      read(header + "# note\n0,compute,1,1,1,0,0,0\n# dropped=3\n");
  EXPECT_EQ(ok.error, "");
  EXPECT_EQ(ok.intervals.size(), 1u);
  EXPECT_EQ(ok.dropped, 3u);
}

TEST(Tracer, AsciiTimelineShowsDominantCategory) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 5.0);
  t.record(0, Category::Prefetch, 5.0, 10.0);
  std::ostringstream os;
  t.ascii_timeline(os, 10, 0.0, 10.0);
  const std::string out = os.str();
  EXPECT_NE(out.find("CCCCCPPPPP"), std::string::npos);
  EXPECT_NE(out.find("legend"), std::string::npos);
}

TEST(Tracer, ClearEmptiesLog) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 1.0);
  t.clear();
  EXPECT_TRUE(t.intervals().empty());
}

TEST(Tracer, CopyFallbacksFlowIntoSummaryAndCsvTrailer) {
  Tracer t;
  t.record(0, Category::Compute, 0.0, 1.0);
  EXPECT_EQ(t.summarize().ring_fallbacks, 0u);
  t.note_copy_fallbacks(3);
  EXPECT_EQ(t.copy_fallbacks(), 3u);
  EXPECT_EQ(t.summarize().ring_fallbacks, 3u);
  EXPECT_EQ(t.summarize(-1, 0.0, 1.0).ring_fallbacks, 3u);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_NE(os.str().find("# ring_fallbacks=3"), std::string::npos);
}

TEST(Tracer, CategoryNamesAndGlyphs) {
  EXPECT_STREQ(category_name(Category::Evict), "evict");
  EXPECT_EQ(category_glyph(Category::Wait), 'w');
  EXPECT_EQ(category_glyph(Category::Idle), '.');
}

} // namespace
} // namespace hmr::trace
