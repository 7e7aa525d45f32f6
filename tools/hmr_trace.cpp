// hmr_trace: offline inspector for Tracer CSV dumps.
//
// Reads the CSV written by trace::Tracer::write_csv (header:
// lane,category,start,end,task,src_tier,dst_tier,bytes), prints the
// per-category summary and per-tier-pair traffic table, optionally an
// ASCII timeline, and converts to Chrome-trace/Perfetto JSON
// (telemetry::write_perfetto) for ui.perfetto.dev.
//
//   hmr_trace --in trace.csv
//   hmr_trace --in trace.csv --timeline --width 120
//   hmr_trace --in trace.csv --workers 8 --perfetto out.json
//   hmr_trace --in trace.csv --json          # machine summary to stdout
//   hmr_trace --decisions decisions.csv      # DecisionLog provenance view
//
// --decisions reads the CSV the /decisions?format=csv route serves
// (telemetry::DecisionLog::write_csv) and renders the advisor/governor
// decision history with the inputs that triggered each one.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "telemetry/perfetto.hpp"
#include "trace/tracer.hpp"
#include "util/argparse.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

namespace {

using hmr::trace::Category;
using hmr::trace::Interval;

void print_summary(const hmr::trace::TraceSummary& s,
                   std::int64_t workers, std::uint64_t dropped,
                   std::uint64_t ring_fallbacks) {
  std::printf("span: %.6f s over %d lanes", s.span, s.lanes);
  if (workers >= 0) std::printf(" (workers only)");
  std::printf("\n\n%-10s %14s %10s\n", "category", "lane-seconds",
              "intervals");
  for (int c = 0; c < 6; ++c) {
    const auto cat = static_cast<Category>(c);
    std::printf("%-10s %14.6f %10llu\n", hmr::trace::category_name(cat),
                s.total_of(cat),
                static_cast<unsigned long long>(s.count_of(cat)));
  }
  std::printf("overhead fraction: %.4f\n", s.overhead_fraction());
  std::printf("ring drops: %llu\n",
              static_cast<unsigned long long>(dropped));
  if (dropped > 0) {
    std::fprintf(stderr, "hmr_trace: %s\n",
                 hmr::trace::dropped_warning(dropped).c_str());
  }
  std::printf("copy ring fallbacks: %llu\n",
              static_cast<unsigned long long>(ring_fallbacks));
  if (ring_fallbacks > 0) {
    std::fprintf(stderr,
                 "hmr_trace: WARNING: %llu large copies found every "
                 "ChunkRing slot busy and ran un-assisted (single-thread "
                 "bandwidth).  Prefetch/Evict lane-seconds above are "
                 "slower than the cooperative path would be; consider a "
                 "larger ChunkRing or fewer concurrent migrations.\n",
                 static_cast<unsigned long long>(ring_fallbacks));
  }
  if (s.migrations.empty()) return;
  std::printf("\n%-12s %12s %10s %12s %14s\n", "tier pair", "bytes",
              "copies", "seconds", "effective b/w");
  for (const auto& m : s.migrations) {
    char pair[32];
    std::snprintf(pair, sizeof pair, "%u -> %u", m.src_tier, m.dst_tier);
    std::printf("%-12s %12s %10llu %12.6f %14s\n", pair,
                hmr::fmt_bytes(m.bytes).c_str(),
                static_cast<unsigned long long>(m.count), m.seconds,
                m.seconds > 0
                    ? hmr::fmt_bandwidth(static_cast<double>(m.bytes) /
                                         m.seconds)
                          .c_str()
                    : "-");
  }
}

/// Machine-readable twin of print_summary for scripting and CI.
void print_json(const hmr::trace::TraceSummary& s, std::size_t intervals,
                std::uint64_t dropped, std::uint64_t ring_fallbacks) {
  std::printf("{\"intervals\":%zu,\"span_s\":%.9f,\"lanes\":%d",
              intervals, s.span, s.lanes);
  std::printf(",\"categories\":{");
  for (int c = 0; c < 6; ++c) {
    const auto cat = static_cast<Category>(c);
    std::printf("%s\"%s\":{\"lane_seconds\":%.9f,\"intervals\":%llu}",
                c ? "," : "", hmr::trace::category_name(cat),
                s.total_of(cat),
                static_cast<unsigned long long>(s.count_of(cat)));
  }
  std::printf("},\"overhead_fraction\":%.6f,\"dropped\":%llu"
              ",\"ring_fallbacks\":%llu,\"migrations\":[",
              s.overhead_fraction(),
              static_cast<unsigned long long>(dropped),
              static_cast<unsigned long long>(ring_fallbacks));
  for (std::size_t i = 0; i < s.migrations.size(); ++i) {
    const auto& m = s.migrations[i];
    // effective_bw mirrors the human table's "effective b/w" column
    // (bytes over busy lane-seconds; 0 when no time was recorded).
    std::printf("%s{\"src_tier\":%u,\"dst_tier\":%u,\"bytes\":%llu,"
                "\"count\":%llu,\"seconds\":%.9f,\"effective_bw\":%.3f}",
                i ? "," : "", m.src_tier, m.dst_tier,
                static_cast<unsigned long long>(m.bytes),
                static_cast<unsigned long long>(m.count), m.seconds,
                m.seconds > 0
                    ? static_cast<double>(m.bytes) / m.seconds
                    : 0.0);
  }
  std::printf("]}\n");
}

/// Pretty-print a DecisionLog CSV (/decisions?format=csv).  Governor
/// rows show the phase inputs and the decision (with a marker on
/// changes); advisor rows show the profile inputs and the placement
/// action.  Returns false on malformed input.
bool print_decisions(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    std::fprintf(stderr, "hmr_trace: empty decisions input\n");
    return false;
  }
  const auto header = hmr::csv_split(line);
  if (header.size() != 27 || header[0] != "seq" || header[2] != "kind") {
    std::fprintf(stderr,
                 "hmr_trace: unrecognized decisions header (expected the "
                 "/decisions?format=csv columns): %s\n",
                 line.c_str());
    return false;
  }
  std::printf("%6s %12s %-9s %s\n", "seq", "time_s", "kind", "detail");
  std::size_t lineno = 1;
  std::size_t governor_flips = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    const auto f = hmr::csv_split(line);
    if (f.size() != 27) {
      std::fprintf(stderr, "hmr_trace: bad decisions row at line %zu\n",
                   lineno);
      return false;
    }
    const std::string& kind = f[2];
    char detail[256];
    if (kind == "governor") {
      const bool changed = f[26] == "1";
      if (changed) ++governor_flips;
      std::snprintf(detail, sizeof detail,
                    "phase=%s wait=%s refetch=%s util=%s -> strategy=%s "
                    "eager=%s fair=%s%s%s",
                    f[13].c_str(), f[15].c_str(), f[16].c_str(),
                    f[17].c_str(), f[21].c_str(), f[22].c_str(),
                    f[23].c_str(), f[20] == "1" ? " (cooldown)" : "",
                    changed ? "  <== CHANGED" : "");
    } else {
      std::snprintf(detail, sizeof detail,
                    "block=%s bytes=%s hotness=%s ro=%s reuse=%s "
                    "break_even=%s pin=%s demote_first=%s bypass=%s",
                    f[3].c_str(), f[4].c_str(), f[5].c_str(),
                    f[6].c_str(), f[7].c_str(), f[8].c_str(),
                    f[9].c_str(), f[10].c_str(), f[11].c_str());
    }
    std::printf("%6s %12s %-9s %s\n", f[0].c_str(), f[1].c_str(),
                kind.c_str(), detail);
  }
  std::printf("\n%zu decision(s), %zu governor change(s)\n", lineno - 1,
              governor_flips);
  return true;
}

} // namespace

int main(int argc, char** argv) {
  std::string in;
  std::string perfetto;
  std::string decisions;
  std::int64_t workers = -1;
  bool timeline = false;
  std::int64_t width = 100;
  bool flows = true;
  bool idle = false;
  bool json = false;

  hmr::ArgParser args("hmr_trace",
                      "Summarize a Tracer CSV dump and convert it to "
                      "Perfetto JSON");
  args.add_flag("in", "trace CSV (from Tracer::write_csv)", &in);
  args.add_flag("perfetto", "write Chrome-trace/Perfetto JSON here",
                &perfetto);
  args.add_flag("workers",
                "worker-lane count: restricts the summary to workers and "
                "names lanes PE/IO in the JSON (-1 = all lanes)",
                &workers);
  args.add_flag("timeline", "print an ASCII timeline", &timeline);
  args.add_flag("width", "timeline width in characters", &width);
  args.add_flag("flows", "emit causal task flow events (--flows=false "
                         "to disable)",
                &flows);
  args.add_flag("idle", "include idle intervals in the JSON", &idle);
  args.add_flag("json",
                "print the summary as JSON instead of tables (category "
                "totals, tier-pair traffic, drop counters)",
                &json);
  args.add_flag("decisions",
                "DecisionLog CSV (from /decisions?format=csv): print the "
                "decision provenance view and exit",
                &decisions);
  if (!args.parse(argc, argv)) return 1;

  if (!decisions.empty()) {
    std::ifstream dfs(decisions);
    if (!dfs) {
      std::fprintf(stderr, "hmr_trace: cannot open %s\n",
                   decisions.c_str());
      return 1;
    }
    return print_decisions(dfs) ? 0 : 1;
  }

  if (in.empty()) {
    std::fprintf(stderr, "hmr_trace: --in is required\n%s",
                 args.usage().c_str());
    return 1;
  }

  std::ifstream ifs(in);
  if (!ifs) {
    std::fprintf(stderr, "hmr_trace: cannot open %s\n", in.c_str());
    return 1;
  }
  const hmr::trace::CsvTrace trace = hmr::trace::read_csv(ifs);
  if (!trace.error.empty()) {
    std::fprintf(stderr, "hmr_trace: %s\n", trace.error.c_str());
    return 1;
  }
  // Zero-width rows carry no time; drop them as Tracer::record does.
  std::vector<Interval> ivs;
  double t0 = 0, t1 = 0;
  for (std::size_t i = 0; i < trace.intervals.size(); ++i) {
    const auto& iv = trace.intervals[i];
    if (iv.end > iv.start) ivs.push_back(iv);
    t0 = i == 0 ? iv.start : std::min(t0, iv.start);
    t1 = i == 0 ? iv.end : std::max(t1, iv.end);
  }

  const auto summary =
      hmr::trace::summarize(ivs, static_cast<std::int32_t>(workers));
  if (json) {
    print_json(summary, trace.intervals.size(), trace.dropped,
               trace.ring_fallbacks);
  } else {
    std::printf("%s: %zu intervals\n", in.c_str(), trace.intervals.size());
    print_summary(summary, workers, trace.dropped, trace.ring_fallbacks);
  }

  hmr::trace::sort_intervals(ivs);
  if (timeline && t1 > t0) {
    std::printf("\n");
    hmr::trace::ascii_timeline(std::cout, ivs, static_cast<int>(width), t0,
                               t1);
  }

  if (!perfetto.empty()) {
    std::ofstream ofs(perfetto);
    if (!ofs) {
      std::fprintf(stderr, "hmr_trace: cannot write %s\n",
                   perfetto.c_str());
      return 1;
    }
    hmr::telemetry::PerfettoOptions popt;
    popt.worker_lanes = static_cast<std::int32_t>(workers);
    popt.flows = flows;
    popt.idle = idle;
    hmr::telemetry::write_perfetto(ofs, ivs, popt);
    std::printf("\nwrote %s (open in ui.perfetto.dev)\n",
                perfetto.c_str());
  }
  return 0;
}
