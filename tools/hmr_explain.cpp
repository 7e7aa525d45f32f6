// hmr_explain: offline bottleneck explainer.
//
// Reads a trace dump — the Tracer CSV (trace::Tracer::write_csv) or
// the Perfetto JSON hmr_trace/--perfetto writes — extracts the
// critical path (telemetry::critical_path), classifies the run
// (bandwidth-bound / latency-bound / message-rate-bound /
// compute-bound) and re-costs the path under a set of hypothetical
// hardware deltas (telemetry::whatif).
//
//   hmr_explain --in trace.csv --model three_tier
//   hmr_explain --perfetto trace.json --model knl --whatif
//   hmr_explain --in trace.csv --json        # machine-readable report
//
// The verdict taxonomy and what-if methodology are documented in
// docs/OBSERVABILITY.md §10.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hw/machine_model.hpp"
#include "telemetry/critpath.hpp"
#include "trace/tracer.hpp"
#include "util/argparse.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace {

using hmr::trace::Category;
using hmr::trace::Interval;

/// Rebuild intervals from the Perfetto JSON our own tools emit:
/// "X" (complete) duration events with ts/dur in microseconds and the
/// category name as the event name; migrations carry src_tier /
/// dst_tier / bytes in args.  Metadata and flow events are skipped.
bool read_perfetto(const std::string& text, std::vector<Interval>& out) {
  hmr::json::Value doc;
  std::string err;
  if (!hmr::json::parse(text, doc, &err)) {
    std::fprintf(stderr, "hmr_explain: bad perfetto JSON: %s\n",
                 err.c_str());
    return false;
  }
  const hmr::json::Value* evs = doc.find("traceEvents");
  if (evs == nullptr || !evs->is_array()) {
    std::fprintf(stderr, "hmr_explain: no traceEvents array\n");
    return false;
  }
  for (const auto& e : evs->arr) {
    const hmr::json::Value* ph = e.find("ph");
    if (ph == nullptr || ph->str_or("") != "X") continue;
    Interval iv;
    if (!hmr::trace::parse_category(e.find("name") ? e.find("name")->str_or("") : "",
                        iv.cat)) {
      continue; // not one of ours (custom slice); skip
    }
    const double ts = e.find("ts") ? e.find("ts")->num_or(0) : 0;
    const double dur = e.find("dur") ? e.find("dur")->num_or(0) : 0;
    iv.start = ts * 1e-6;
    iv.end = (ts + dur) * 1e-6;
    iv.lane = static_cast<std::int32_t>(
        e.find("tid") ? e.find("tid")->num_or(0) : 0);
    if (const auto* args = e.find("args")) {
      if (const auto* t = args->find("task")) {
        iv.task = static_cast<std::uint64_t>(t->num_or(0));
      }
      if (const auto* s = args->find("src_tier")) {
        iv.src_tier = static_cast<std::uint32_t>(s->num_or(0));
      }
      if (const auto* d = args->find("dst_tier")) {
        iv.dst_tier = static_cast<std::uint32_t>(d->num_or(0));
      }
      if (const auto* b = args->find("bytes")) {
        iv.bytes = static_cast<std::uint64_t>(b->num_or(0));
      }
    }
    out.push_back(iv);
  }
  return true;
}

bool resolve_model(const std::string& name, hmr::hw::MachineModel& out) {
  if (name == "knl") {
    out = hmr::hw::knl_flat_all_to_all();
  } else if (name == "three_tier") {
    out = hmr::hw::three_tier_hbm_ddr_nvm();
  } else if (name == "spr") {
    out = hmr::hw::spr_hbm_flat();
  } else if (name == "exascale") {
    out = hmr::hw::exascale_near_far();
  } else {
    return false;
  }
  return true;
}

std::string pair_name(const hmr::hw::MachineModel* m, std::uint32_t src,
                      std::uint32_t dst) {
  char buf[96];
  if (m != nullptr && src < m->tiers.size() && dst < m->tiers.size()) {
    std::snprintf(buf, sizeof buf, "%s -> %s",
                  m->tiers[src].name.c_str(), m->tiers[dst].name.c_str());
  } else {
    std::snprintf(buf, sizeof buf, "tier %u -> %u", src, dst);
  }
  return buf;
}

std::vector<hmr::telemetry::HwDelta> default_deltas() {
  using hmr::telemetry::HwDelta;
  HwDelta fast2x;
  fast2x.name = "2x fast-tier bandwidth";
  fast2x.fast_bw_scale = 2.0;
  HwDelta remote;
  remote.name = "halved remote latency";
  remote.remote_latency_scale = 0.5;
  HwDelta remote_bw;
  remote_bw.name = "2x remote bandwidth";
  remote_bw.remote_bw_scale = 2.0;
  HwDelta compute;
  compute.name = "2x compute throughput";
  compute.compute_scale = 2.0;
  return {fast2x, remote, remote_bw, compute};
}

void json_escape(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
}

} // namespace

int main(int argc, char** argv) {
  std::string in;
  std::string perfetto;
  std::string model_name;
  bool whatif = false;
  bool json = false;
  std::int64_t top = 5;

  hmr::ArgParser args(
      "hmr_explain",
      "Explain a trace's bottleneck: critical path, phase verdict and "
      "what-if hardware re-costing");
  args.add_flag("in", "trace CSV (from Tracer::write_csv)", &in);
  args.add_flag("perfetto",
                "read a Perfetto JSON trace instead of the CSV", &perfetto);
  args.add_flag("model",
                "machine model for analytic verdicts and what-if "
                "(knl | three_tier | spr | exascale)",
                &model_name);
  args.add_flag("whatif",
                "re-cost the critical path under the built-in hardware "
                "deltas (needs --model)",
                &whatif);
  args.add_flag("json", "machine-readable report to stdout", &json);
  args.add_flag("top", "tier pairs / channels to list", &top);
  if (!args.parse(argc, argv)) return 1;

  if (in.empty() == perfetto.empty()) {
    std::fprintf(stderr,
                 "hmr_explain: exactly one of --in / --perfetto is "
                 "required\n%s",
                 args.usage().c_str());
    return 1;
  }

  std::vector<Interval> ivs;
  std::uint64_t dropped = 0;
  if (!in.empty()) {
    std::ifstream ifs(in);
    if (!ifs) {
      std::fprintf(stderr, "hmr_explain: cannot open %s\n", in.c_str());
      return 1;
    }
    hmr::trace::CsvTrace trace = hmr::trace::read_csv(ifs);
    if (!trace.error.empty()) {
      std::fprintf(stderr, "hmr_explain: %s\n", trace.error.c_str());
      return 1;
    }
    ivs = std::move(trace.intervals);
    dropped = trace.dropped;
  } else {
    std::ifstream ifs(perfetto);
    if (!ifs) {
      std::fprintf(stderr, "hmr_explain: cannot open %s\n",
                   perfetto.c_str());
      return 1;
    }
    std::ostringstream text;
    text << ifs.rdbuf();
    if (!read_perfetto(text.str(), ivs)) return 1;
  }
  if (ivs.empty()) {
    std::fprintf(stderr, "hmr_explain: no intervals in input\n");
    return 1;
  }

  hmr::hw::MachineModel model;
  const hmr::hw::MachineModel* mp = nullptr;
  if (!model_name.empty()) {
    if (!resolve_model(model_name, model)) {
      std::fprintf(stderr,
                   "hmr_explain: unknown model '%s' (knl | three_tier | "
                   "spr | exascale)\n",
                   model_name.c_str());
      return 1;
    }
    mp = &model;
  }
  if (whatif && mp == nullptr) {
    std::fprintf(stderr, "hmr_explain: --whatif needs --model\n");
    return 1;
  }

  // A ring that dropped events leaves holes the critical path walks
  // around: say so once the report is out.
  const auto warn_if_lossy = [dropped] {
    if (dropped > 0) {
      std::fprintf(stderr, "hmr_explain: %s\n",
                   hmr::trace::dropped_warning(dropped).c_str());
    }
  };
  const auto cp = hmr::telemetry::critical_path(ivs);
  const auto verdict = hmr::telemetry::classify(cp, mp);

  std::vector<std::pair<std::string, hmr::telemetry::WhatIfResult>> wis;
  if (whatif) {
    for (const auto& d : default_deltas()) {
      wis.emplace_back(d.name, hmr::telemetry::whatif(cp, *mp, d));
    }
  }

  const auto topn = static_cast<std::size_t>(top < 0 ? 0 : top);
  auto pairs = cp.pairs;
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) {
              return a.seconds > b.seconds;
            });
  if (pairs.size() > topn) pairs.resize(topn);

  if (json) {
    std::string reason;
    json_escape(reason, verdict.reason);
    std::printf("{\"intervals\":%zu,\"makespan_s\":%.9f,\"steps\":%zu,"
                "\"step_coverage\":%.6f,\"gap_s\":%.9f,\"categories\":{",
                ivs.size(), cp.makespan(), cp.steps.size(),
                cp.step_coverage(), cp.gap_seconds);
    for (int c = 0; c < 6; ++c) {
      std::printf("%s\"%s\":%.9f", c ? "," : "",
                  hmr::trace::category_name(static_cast<Category>(c)),
                  cp.cat_seconds[c]);
    }
    std::printf("},\"pairs\":[");
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const auto& p = pairs[i];
      std::printf("%s{\"src_tier\":%u,\"dst_tier\":%u,\"seconds\":%.9f,"
                  "\"bytes\":%llu,\"count\":%llu}",
                  i ? "," : "", p.src, p.dst, p.seconds,
                  static_cast<unsigned long long>(p.bytes),
                  static_cast<unsigned long long>(p.count));
    }
    std::printf("],\"verdict\":\"%s\",\"reason\":\"%s\","
                "\"bandwidth_s\":%.9f,\"latency_s\":%.9f,"
                "\"msgrate_s\":%.9f,\"whatif\":[",
                hmr::telemetry::verdict_name(verdict.verdict),
                reason.c_str(), verdict.bandwidth_seconds,
                verdict.latency_seconds, verdict.msgrate_seconds);
    for (std::size_t i = 0; i < wis.size(); ++i) {
      std::string nm;
      json_escape(nm, wis[i].first);
      std::printf("%s{\"delta\":\"%s\",\"predicted_s\":%.9f,"
                  "\"speedup\":%.6f}",
                  i ? "," : "", nm.c_str(), wis[i].second.predicted_seconds,
                  wis[i].second.speedup);
    }
    std::printf("]}\n");
    warn_if_lossy();
    return 0;
  }

  std::printf("%zu intervals, makespan %.6f s\n", ivs.size(),
              cp.makespan());
  std::printf("critical path: %zu steps covering %.1f%% of the makespan "
              "(%.6f s steps, %.6f s gaps)\n",
              cp.steps.size(), cp.step_coverage() * 100, cp.step_seconds,
              cp.gap_seconds);
  std::printf("\n%-10s %14s %8s\n", "category", "path-seconds", "share");
  const double m = cp.makespan() > 0 ? cp.makespan() : 1;
  for (int c = 0; c < 6; ++c) {
    if (cp.cat_seconds[c] <= 0) continue;
    std::printf("%-10s %14.6f %7.1f%%\n",
                hmr::trace::category_name(static_cast<Category>(c)),
                cp.cat_seconds[c], cp.cat_seconds[c] / m * 100);
  }
  if (cp.gap_seconds > 0) {
    std::printf("%-10s %14.6f %7.1f%%\n", "(gaps)", cp.gap_seconds,
                cp.gap_seconds / m * 100);
  }
  if (!pairs.empty()) {
    std::printf("\n%-28s %12s %10s %8s %14s\n", "channel on path", "bytes",
                "copies", "seconds", "effective b/w");
    for (const auto& p : pairs) {
      std::printf("%-28s %12s %10llu %8.4f %14s\n",
                  pair_name(mp, p.src, p.dst).c_str(),
                  hmr::fmt_bytes(p.bytes).c_str(),
                  static_cast<unsigned long long>(p.count), p.seconds,
                  p.seconds > 0
                      ? hmr::fmt_bandwidth(static_cast<double>(p.bytes) /
                                           p.seconds)
                            .c_str()
                      : "-");
    }
  }
  std::printf("\nverdict: %s\n  %s\n",
              hmr::telemetry::verdict_name(verdict.verdict),
              verdict.reason.c_str());
  std::printf("  migration split: bandwidth %.6f s, latency %.6f s, "
              "message-rate %.6f s\n",
              verdict.bandwidth_seconds, verdict.latency_seconds,
              verdict.msgrate_seconds);
  if (!wis.empty()) {
    std::printf("\nwhat-if (re-costed critical path):\n");
    for (const auto& [name, r] : wis) {
      std::printf("  %-26s predicted %.6f s (%.2fx speedup)\n",
                  name.c_str(), r.predicted_seconds, r.speedup);
    }
  }
  warn_if_lossy();
  return 0;
}
