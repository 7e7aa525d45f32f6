#include "trace/tracer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>

#include "util/check.hpp"
#include "util/csv.hpp"

namespace hmr::trace {

Tracer::Tracer(bool enabled, const Options& opt)
    : enabled_(enabled), rings_(opt.ring_capacity) {}

const char* category_name(Category c) {
  switch (c) {
    case Category::Compute: return "compute";
    case Category::Prefetch: return "prefetch";
    case Category::Evict: return "evict";
    case Category::Wait: return "wait";
    case Category::Overhead: return "overhead";
    case Category::Idle: return "idle";
  }
  return "?";
}

bool parse_category(std::string_view name, Category& out) {
  for (int c = 0; c < 6; ++c) {
    if (name == category_name(static_cast<Category>(c))) {
      out = static_cast<Category>(c);
      return true;
    }
  }
  return false;
}

char category_glyph(Category c) {
  switch (c) {
    case Category::Compute: return 'C';
    case Category::Prefetch: return 'P';
    case Category::Evict: return 'E';
    case Category::Wait: return 'w';
    case Category::Overhead: return 'o';
    case Category::Idle: return '.';
  }
  return '?';
}

TraceSummary::TierPairTraffic TraceSummary::migration_between(
    std::uint32_t src, std::uint32_t dst) const {
  for (const auto& m : migrations) {
    if (m.src_tier == src && m.dst_tier == dst) return m;
  }
  TierPairTraffic zero;
  zero.src_tier = src;
  zero.dst_tier = dst;
  return zero;
}

double TraceSummary::overhead_fraction() const {
  double all = 0;
  for (double t : total) all += t;
  if (all <= 0) return 0;
  return (all - total_of(Category::Compute)) / all;
}

void Tracer::push(const Interval& iv) {
  if (telemetry::EventRing<Interval>* ring = rings_.lane(iv.lane)) {
    ring->try_push(iv); // full ring: drop, counted in the ring
    return;
  }
  // Lane id beyond the ring table: record under the consumer mutex.
  std::lock_guard lock(mu_);
  log_.push_back(iv);
}

void Tracer::drain_locked() const {
  rings_.drain_all(log_);
}

void Tracer::record(std::int32_t lane, Category cat, double start,
                    double end, std::uint64_t task) {
  record_migration(lane, cat, start, end, task, 0, 0, 0);
}

void Tracer::record_migration(std::int32_t lane, Category cat, double start,
                              double end, std::uint64_t task,
                              std::uint32_t src_tier, std::uint32_t dst_tier,
                              std::uint64_t bytes) {
  if (!enabled_) return;
  HMR_CHECK_MSG(end >= start, "interval ends before it starts");
  if (end == start) return; // zero-width intervals carry no information
  push({lane, cat, start, end, task, src_tier, dst_tier, bytes});
}

namespace {

using PairKey = std::pair<std::uint32_t, std::uint32_t>;
using PairMap = std::map<PairKey, TraceSummary::TierPairTraffic>;

void add_pair_traffic(PairMap& acc, const Interval& iv, double seconds,
                      double byte_fraction) {
  auto& t = acc[{iv.src_tier, iv.dst_tier}];
  t.src_tier = iv.src_tier;
  t.dst_tier = iv.dst_tier;
  t.bytes += static_cast<std::uint64_t>(
      static_cast<double>(iv.bytes) * byte_fraction + 0.5);
  t.count += 1;
  t.seconds += seconds;
}

} // namespace

void sort_intervals(std::vector<Interval>& ivs) {
  std::sort(ivs.begin(), ivs.end(), [](const Interval& a, const Interval& b) {
    if (a.lane != b.lane) return a.lane < b.lane;
    return a.start < b.start;
  });
}

TraceSummary summarize(const std::vector<Interval>& ivs,
                       std::int32_t worker_lanes, double t0, double t1) {
  HMR_CHECK(t1 >= t0);
  TraceSummary s;
  PairMap pairs;
  double lo = 0, hi = 0;
  bool first = true;
  for (const auto& iv : ivs) {
    if (worker_lanes >= 0 && iv.lane >= worker_lanes) continue;
    const double start = std::max(iv.start, t0);
    const double end = std::min(iv.end, t1);
    if (end <= start) continue;
    if (first) {
      lo = start;
      hi = end;
      first = false;
    } else {
      lo = std::min(lo, start);
      hi = std::max(hi, end);
    }
    s.lanes = std::max(s.lanes, iv.lane + 1);
    s.total[static_cast<int>(iv.cat)] += end - start;
    s.count[static_cast<int>(iv.cat)] += 1;
    if (iv.bytes > 0) {
      add_pair_traffic(pairs, iv, end - start,
                       (end - start) / (iv.end - iv.start));
    }
  }
  s.span = first ? 0 : hi - lo;
  for (const auto& [key, t] : pairs) s.migrations.push_back(t);
  return s;
}

std::vector<Interval> Tracer::intervals() const {
  std::vector<Interval> out;
  {
    std::lock_guard lock(mu_);
    drain_locked();
    out = log_;
  }
  sort_intervals(out);
  return out;
}

TraceSummary Tracer::summarize(std::int32_t worker_lanes, double t0,
                               double t1) const {
  std::lock_guard lock(mu_);
  drain_locked();
  TraceSummary s = trace::summarize(log_, worker_lanes, t0, t1);
  s.dropped = rings_.dropped();
  s.ring_fallbacks = copy_fallbacks();
  return s;
}

void Tracer::fill_idle(double t0, double t1) {
  if (!enabled_) return;
  HMR_CHECK(t1 >= t0);
  std::lock_guard lock(mu_);
  drain_locked();
  // Collect per-lane sorted busy intervals, then append gap fillers.
  std::map<std::int32_t, std::vector<std::pair<double, double>>> busy;
  for (const auto& iv : log_) {
    if (iv.cat == Category::Idle) continue;
    busy[iv.lane].emplace_back(iv.start, iv.end);
  }
  std::vector<Interval> fillers;
  for (auto& [lane, spans] : busy) {
    std::sort(spans.begin(), spans.end());
    double cursor = t0;
    for (const auto& [s, e] : spans) {
      if (s > cursor) {
        fillers.push_back({lane, Category::Idle, cursor, s, 0, 0, 0, 0});
      }
      cursor = std::max(cursor, e);
    }
    if (cursor < t1) {
      fillers.push_back({lane, Category::Idle, cursor, t1, 0, 0, 0, 0});
    }
  }
  for (auto& f : fillers) {
    if (f.end > f.start) log_.push_back(f);
  }
}

void Tracer::write_csv(std::ostream& os) const {
  hmr::CsvWriter csv(os);
  csv.header({"lane", "category", "start", "end", "task", "src_tier",
              "dst_tier", "bytes"});
  for (const auto& iv : intervals()) {
    csv.field(static_cast<std::int64_t>(iv.lane))
        .field(std::string_view(category_name(iv.cat)))
        .field(iv.start)
        .field(iv.end)
        .field(static_cast<std::uint64_t>(iv.task))
        .field(static_cast<std::uint64_t>(iv.src_tier))
        .field(static_cast<std::uint64_t>(iv.dst_tier))
        .field(iv.bytes);
    csv.end_row();
  }
  // Trailer comment so offline consumers (tools/hmr_trace) can see
  // drops the rows themselves cannot show.
  os << "# dropped=" << dropped() << "\n";
  os << "# ring_fallbacks=" << copy_fallbacks() << "\n";
}

CsvTrace read_csv(std::istream& is) {
  CsvTrace out;
  const auto fail = [&out](std::size_t lineno, std::string what) {
    out.error = std::move(what);
    out.error_line = lineno;
    return out;
  };
  std::string line;
  if (!std::getline(is, line)) return fail(0, "empty input");
  // write_csv quotes nothing, so a plain split is a full parser.
  if (csv_split(line) !=
      std::vector<std::string>{"lane", "category", "start", "end", "task",
                               "src_tier", "dst_tier", "bytes"}) {
    return fail(1, "unrecognized header: " + line);
  }
  for (std::size_t lineno = 2; std::getline(is, line); ++lineno) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      // Match the longer key first: "ring_fallbacks=" does not
      // contain "dropped=".
      try {
        if (const auto rf = line.find("ring_fallbacks=");
            rf != std::string::npos) {
          out.ring_fallbacks = std::stoull(line.substr(rf + 15));
        } else if (const auto eq = line.find("dropped=");
                   eq != std::string::npos) {
          out.dropped = std::stoull(line.substr(eq + 8));
        }
      } catch (const std::exception&) {
        return fail(lineno, "bad comment at line " + std::to_string(lineno));
      }
      continue;
    }
    const auto f = csv_split(line);
    Interval iv;
    bool ok = f.size() == 8 && parse_category(f[1], iv.cat);
    try {
      if (ok) {
        iv.lane = std::stoi(f[0]);
        iv.start = std::stod(f[2]);
        iv.end = std::stod(f[3]);
        iv.task = std::stoull(f[4]);
        iv.src_tier = static_cast<std::uint32_t>(std::stoul(f[5]));
        iv.dst_tier = static_cast<std::uint32_t>(std::stoul(f[6]));
        iv.bytes = std::stoull(f[7]);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok || iv.end < iv.start) { // a tracer never writes end < start
      return fail(lineno, "bad row at line " + std::to_string(lineno));
    }
    out.intervals.push_back(iv);
  }
  return out;
}

std::string dropped_warning(std::uint64_t dropped) {
  return "WARNING: " + std::to_string(dropped) +
         " events were dropped at record time (ring full) -- every figure "
         "above undercounts.  Re-run with a larger "
         "Tracer::Options::ring_capacity or drain more often.";
}

void Tracer::ascii_timeline(std::ostream& os, int width, double t0,
                            double t1) const {
  trace::ascii_timeline(os, intervals(), width, t0, t1);
}

void ascii_timeline(std::ostream& os, const std::vector<Interval>& ivs,
                    int width, double t0, double t1) {
  HMR_CHECK(width > 0 && t1 > t0);
  std::int32_t max_lane = -1;
  for (const auto& iv : ivs) max_lane = std::max(max_lane, iv.lane);
  if (max_lane < 0) return;
  const double bucket = (t1 - t0) / width;

  for (std::int32_t lane = 0; lane <= max_lane; ++lane) {
    // share[bucket][category] = seconds of that category in the bucket
    std::vector<std::array<double, 6>> share(
        static_cast<std::size_t>(width), std::array<double, 6>{});
    bool lane_has_data = false;
    for (const auto& iv : ivs) {
      if (iv.lane != lane) continue;
      lane_has_data = true;
      const double s = std::max(iv.start, t0);
      const double e = std::min(iv.end, t1);
      if (e <= s) continue;
      int b0 = static_cast<int>((s - t0) / bucket);
      int b1 = static_cast<int>((e - t0) / bucket);
      b0 = std::clamp(b0, 0, width - 1);
      b1 = std::clamp(b1, 0, width - 1);
      for (int b = b0; b <= b1; ++b) {
        const double bs = t0 + b * bucket;
        const double be = bs + bucket;
        const double overlap = std::min(e, be) - std::max(s, bs);
        if (overlap > 0) {
          share[static_cast<std::size_t>(b)][static_cast<int>(iv.cat)] +=
              overlap;
        }
      }
    }
    if (!lane_has_data) continue;
    os << "lane " << lane << (lane < 10 ? "  |" : " |");
    for (int b = 0; b < width; ++b) {
      int best = static_cast<int>(Category::Idle);
      double best_v = 0;
      for (int c = 0; c < 6; ++c) {
        if (share[static_cast<std::size_t>(b)][c] > best_v) {
          best_v = share[static_cast<std::size_t>(b)][c];
          best = c;
        }
      }
      os << category_glyph(static_cast<Category>(best));
    }
    os << "|\n";
  }
  os << "legend: C=compute P=prefetch E=evict w=wait o=overhead .=idle\n";
}

void Tracer::clear() {
  std::lock_guard lock(mu_);
  drain_locked(); // frees the ring slots; dropped() stays monotonic
  log_.clear();
}

} // namespace hmr::trace
