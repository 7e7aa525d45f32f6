#pragma once
// Tracer: a Projections-like per-PE interval log.
//
// The paper reads its scheduling overheads off Projections timelines
// (Figs 5-6): red = wait caused by scheduling, prefetch, eviction and
// lock delays; colored bars = entry-method execution.  We record the
// same information as typed intervals per PE and reproduce the figures
// as (a) aggregate category summaries (wait fraction, fetch/evict time)
// and (b) an ASCII timeline render.
//
// PE ids: worker PEs are 0..num_pes-1; IO agents may be traced as
// pseudo-PEs at num_pes..2*num_pes-1 by the executors.
//
// Recording goes through lock-free per-lane rings
// (telemetry::EventRing) so the hot path never takes a mutex; every
// reader (intervals, summaries, renders) drains the rings into the
// interval log first, under the tracer's single consumer mutex.  Only
// lanes beyond the ring table (LaneRings::kMaxLanes) record into the
// log under that mutex.
//
// The summaries and the timeline render are plain functions of an
// interval vector, so offline tools (tools/hmr_trace) run the same
// code on a trace read back with read_csv().

#include <atomic>
#include <cstdint>
#include <istream>
#include <limits>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/ring.hpp"
#include "util/stats.hpp"

namespace hmr::trace {

enum class Category : std::uint8_t {
  Compute,   // entry-method execution (the useful work)
  Prefetch,  // data fetch slow->fast charged to this lane
  Evict,     // data writeback fast->slow charged to this lane
  Wait,      // task had arrived but its lane sat without useful work
  Overhead,  // scheduling / queue and lock manipulation
  Idle,      // no work available
};

const char* category_name(Category c);
/// Inverse of category_name; false for any other string.
bool parse_category(std::string_view name, Category& out);
char category_glyph(Category c);

struct Interval {
  std::int32_t lane = 0; // PE or pseudo-PE
  Category cat = Category::Idle;
  double start = 0;
  double end = 0;
  std::uint64_t task = 0; // 0 when not task-bound
  // Migration intervals (record_migration) also carry the tier pair
  // the bytes moved between; bytes == 0 marks a non-migration interval.
  std::uint32_t src_tier = 0;
  std::uint32_t dst_tier = 0;
  std::uint64_t bytes = 0;

  friend bool operator==(const Interval&, const Interval&) = default;
};

/// Aggregated view of a trace.
struct TraceSummary {
  double span = 0; // max end - min start over all intervals
  int lanes = 0;
  // Per-category totals in lane-seconds.
  double total[6] = {0, 0, 0, 0, 0, 0};
  std::uint64_t count[6] = {0, 0, 0, 0, 0, 0};
  /// Ring-full drops at the time the summary was cut.  Nonzero means
  /// the totals above undercount: that many events never made it into
  /// the log at all (lane attribution of the loss is unknown).
  std::uint64_t dropped = 0;
  /// ChunkRing full-ring fallbacks noted on the tracer (see
  /// Tracer::note_copy_fallbacks).  Nonzero means some large copies ran
  /// un-assisted — single-thread bandwidth where cooperation was
  /// expected.
  std::uint64_t ring_fallbacks = 0;

  /// Migration traffic between one ordered tier pair (src -> dst),
  /// summed over every migration interval that carried bytes.
  struct TierPairTraffic {
    std::uint32_t src_tier = 0;
    std::uint32_t dst_tier = 0;
    std::uint64_t bytes = 0;
    std::uint64_t count = 0;
    double seconds = 0; // lane-seconds spent on this pair's copies
  };
  /// Per-tier-pair migration traffic, sorted by (src, dst).  Windowed
  /// summaries prorate bytes by the clipped fraction of each interval
  /// (the fluid-flow approximation the simulator uses anyway).
  std::vector<TierPairTraffic> migrations;

  double total_of(Category c) const {
    return total[static_cast<int>(c)];
  }
  std::uint64_t count_of(Category c) const {
    return count[static_cast<int>(c)];
  }
  /// Traffic for one pair; zeros when the pair never moved bytes.
  TierPairTraffic migration_between(std::uint32_t src,
                                    std::uint32_t dst) const;
  /// Fraction of total lane-time that is not Compute (the "red" of
  /// Figs 5-6), over worker lanes only if workers > 0 was passed.
  double overhead_fraction() const;
};

inline constexpr double kForever = std::numeric_limits<double>::infinity();

/// Aggregate totals over `ivs` (dropped and ring_fallbacks stay 0: the
/// caller knows them).  `worker_lanes` restricts the summary to lanes
/// < worker_lanes (< 0 means all lanes).  Intervals are clipped to the
/// window [t0, t1), so per-phase summaries can be cut from one running
/// trace (the adaptive governor's per-phase wait fraction comes from
/// this); intervals with end <= start carry no time and are skipped.
TraceSummary summarize(const std::vector<Interval>& ivs,
                       std::int32_t worker_lanes = -1,
                       double t0 = -kForever, double t1 = kForever);

/// ASCII timeline: one row per lane, `width` character buckets over
/// [t0, t1]; each bucket shows the glyph of the category occupying
/// the largest share of the bucket.
void ascii_timeline(std::ostream& os, const std::vector<Interval>& ivs,
                    int width, double t0, double t1);

/// Order intervals by (lane, start), the order Tracer::intervals()
/// and write_csv() use.
void sort_intervals(std::vector<Interval>& ivs);

/// A trace read back from a Tracer::write_csv dump.
struct CsvTrace {
  /// Rows in file order, as written (zero-width rows included).
  std::vector<Interval> intervals;
  /// The "# dropped=N" and "# ring_fallbacks=N" trailers (0 if absent).
  std::uint64_t dropped = 0;
  std::uint64_t ring_fallbacks = 0;
  /// Empty when the whole input parsed; otherwise what was wrong, e.g.
  /// "bad row at line 7", and the 1-based line (0 for an empty input).
  std::string error;
  std::size_t error_line = 0;
};

/// Parse a write_csv dump: the header, one row per interval, '#'
/// comment lines (the trailers above; other comments are ignored).
/// Stops at the first bad line.
CsvTrace read_csv(std::istream& is);

/// Warning text for a trace that lost `dropped` events at record time.
std::string dropped_warning(std::uint64_t dropped);

class Tracer {
public:
  struct Options {
    /// Per-lane ring capacity in events, rounded up to a power of two.
    /// A full ring drops events (counted in dropped()) until the next
    /// drain; any reader drains, so size for the longest stretch of
    /// recording between reads.
    std::size_t ring_capacity = 1 << 14;
  };

  explicit Tracer(bool enabled = true) : Tracer(enabled, Options{}) {}
  Tracer(bool enabled, const Options& opt);

  bool enabled() const { return enabled_; }

  /// Events discarded because a lane ring was full between drains.
  /// Monotonic across clear().
  std::uint64_t dropped() const { return rings_.dropped(); }

  /// Executors note the ChunkRing's cumulative full-ring fallback count
  /// here (at quiescence), so summaries and CSV dumps carry the "some
  /// copies degraded to un-assisted" warning alongside the data.
  void note_copy_fallbacks(std::uint64_t n) {
    copy_fallbacks_.store(n, std::memory_order_relaxed);
  }
  std::uint64_t copy_fallbacks() const {
    return copy_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Record one interval.  Thread-safe.  end >= start required.
  void record(std::int32_t lane, Category cat, double start, double end,
              std::uint64_t task = 0);

  /// Record one migration interval (Prefetch/Evict) with the tier pair
  /// the bytes moved between.  Thread-safe.
  void record_migration(std::int32_t lane, Category cat, double start,
                        double end, std::uint64_t task,
                        std::uint32_t src_tier, std::uint32_t dst_tier,
                        std::uint64_t bytes);

  /// All intervals, ordered by (lane, start).  Takes a snapshot.
  std::vector<Interval> intervals() const;

  /// trace::summarize over the recorded intervals, with this tracer's
  /// dropped() and copy_fallbacks() filled in.
  TraceSummary summarize(std::int32_t worker_lanes = -1,
                         double t0 = -kForever, double t1 = kForever) const;

  /// Idle time is usually implicit (gaps between intervals).  This
  /// fills each lane's gaps within [t0, t1] with explicit Idle
  /// intervals, which makes summaries account for the full span.
  void fill_idle(double t0, double t1);

  /// CSV dump: lane,category,start,end,task,src_tier,dst_tier,bytes
  /// (tier columns are meaningful on rows with bytes > 0), then the
  /// dropped and ring_fallbacks trailers.  read_csv() parses it.
  void write_csv(std::ostream& os) const;

  /// trace::ascii_timeline over the recorded intervals.
  void ascii_timeline(std::ostream& os, int width, double t0,
                      double t1) const;

  void clear();

private:
  void push(const Interval& iv);
  /// Move ring contents into log_; requires mu_ (single consumer).
  void drain_locked() const;

  bool enabled_;
  std::atomic<std::uint64_t> copy_fallbacks_{0};
  mutable telemetry::LaneRings<Interval> rings_;
  mutable std::mutex mu_;
  mutable std::vector<Interval> log_;
};

} // namespace hmr::trace
