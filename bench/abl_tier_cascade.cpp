// Ablation — demotion cascade on a three-tier node (HBM + DDR4 + NVM,
// hw::three_tier_hbm_ddr_nvm).  Three placement hierarchies run the
// same out-of-core stencil with zero application changes:
//
//  * two-tier: HBM fast, NVM far, DDR4 invisible — what the runtime
//    could express when placement was a fast/slow binary;
//  * direct: the engine sees all three levels but evicts straight to
//    the bottom (demote_cascade off), so DDR4 still never fills;
//  * cascade: HBM evictions land on DDR4 while it has room and only
//    overflow to NVM, so steady-state re-fetches stream over the
//    DDR4->HBM channel instead of the ~5x slower NVM->HBM one.
//
// A fourth phase exercises the threaded runtime's zero-copy admission
// (docs/PERF.md §4): the same read-heavy churn workload runs with
// shadow retention off and on, and must produce byte-identical block
// contents and an identical engine command stream -- the only
// difference zero-copy is allowed to make is physical (migrations
// admitted as pointer swaps instead of copies).
//
// `--check` asserts the cascade actually demoted through the middle
// tier and beat direct-to-NVM, and that the zero-copy run admitted
// swaps while staying equivalent; `--json` writes the result to
// BENCH_abl_tier_cascade.json for CI artifact upload.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "rt/runtime.hpp"
#include "sim/stencil_workload.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/critpath.hpp"
#include "telemetry/perfetto.hpp"

namespace {

using namespace hmr;

struct Outcome {
  std::string name;
  sim::SimResult result;
  trace::TraceSummary trace;
  std::vector<trace::Interval> intervals;
  telemetry::AttributionTable::Rollup attrib;
  /// Task -> bytes_by_tier, for the what-if compute re-costing.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> task_bytes;
};

struct Setup {
  const char* name;
  bool two_tier;
  bool cascade;
};

Outcome run_setup(const Setup& s, const hw::MachineModel& model,
                  const sim::StencilWorkload& w) {
  sim::SimConfig cfg;
  cfg.model = model;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.trace = true;
  cfg.attrib = true;
  cfg.attrib_keep_tasks = true;
  cfg.demote_cascade = s.cascade;
  if (s.two_tier) {
    cfg.tiers = {{model.fast, model.tier(model.fast).capacity, 1.0},
                 {model.slow, 0, 1.0}};
  }
  sim::SimExecutor ex(cfg);
  Outcome o;
  o.name = s.name;
  o.result = ex.run(w);
  o.trace = ex.tracer().summarize();
  o.intervals = ex.tracer().intervals();
  if (const auto* at = ex.attribution()) {
    o.attrib = at->rollup();
    for (const auto& a : at->tasks()) {
      o.task_bytes.emplace(a.task, a.bytes_by_tier);
    }
  }
  return o;
}

double pair_gib(const trace::TraceSummary& s, std::uint32_t src,
                std::uint32_t dst) {
  return static_cast<double>(s.migration_between(src, dst).bytes) / GiB;
}

/// One threaded-runtime run of the zero-copy churn workload: more
/// read-only blocks than the fast tier holds, cycled so steady state
/// is fetch/evict ping-pong -- exactly the pattern shadow retention
/// turns into pointer swaps.
struct ZcRun {
  std::vector<std::vector<unsigned char>> contents;
  ooc::PolicyEngine::Stats stats;
  std::uint64_t tasks = 0;
  std::uint64_t admissions = 0;
  std::uint64_t bytes_saved = 0;
};

ZcRun run_zero_copy(bool zero_copy) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 2;
  // 16 GB KNL fast tier -> 1 MiB testbed: 16 of the 48 blocks fit.
  cfg.mem_scale = 1.0 / 16384;
  cfg.chunk_threshold = 0;
  rt::Runtime run(cfg);
  // The runtime always retains shadows; the reference leg turns them
  // off before the first block exists.
  if (!zero_copy) run.memory().set_zero_copy(false);

  constexpr int kBlocks = 48;
  constexpr std::uint64_t kBytes = 64u << 10;
  std::vector<mem::BlockId> blocks;
  blocks.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(run.alloc_block(kBytes));
  }
  // Deterministic per-block pattern, written before any migration (no
  // shadows exist yet, so no mark_dirty needed).
  for (int i = 0; i < kBlocks; ++i) {
    auto* p = static_cast<unsigned char*>(run.block_ptr(blocks[i]));
    for (std::uint64_t j = 0; j < kBytes; ++j) {
      p[j] = static_cast<unsigned char>(
          (static_cast<std::uint64_t>(i) * 2654435761u + j) >> 3);
    }
  }

  for (int r = 0; r < 6; ++r) {
    for (int pe = 0; pe < cfg.num_pes; ++pe) {
      std::vector<rt::Runtime::PrefetchMsg> batch;
      for (int t = 0; t < 24; ++t) {
        const std::size_t a =
            static_cast<std::size_t>(r * 7 + pe * 13 + t) % blocks.size();
        const std::size_t b = (a + 11) % blocks.size();
        rt::Runtime::PrefetchMsg m;
        m.deps = {{blocks[a], ooc::AccessMode::ReadOnly},
                  {blocks[b], ooc::AccessMode::ReadOnly}};
        m.body = [] {};
        batch.push_back(std::move(m));
      }
      run.send_prefetch_batch(pe, std::move(batch));
    }
    run.wait_idle();
  }

  ZcRun out;
  out.contents.reserve(kBlocks);
  for (const mem::BlockId b : blocks) {
    const auto* p = static_cast<const unsigned char*>(run.block_ptr(b));
    out.contents.emplace_back(p, p + kBytes);
  }
  out.stats = run.policy_stats();
  out.tasks = run.tasks_executed();
  out.admissions = run.memory().zero_copy_admissions();
  out.bytes_saved = run.memory().zero_copy_bytes();
  return out;
}

void write_json(const std::vector<Outcome>& outcomes,
                const hw::MachineModel& model, const ZcRun& zc,
                double predicted_speedup, double measured_speedup) {
  FILE* f = std::fopen("BENCH_abl_tier_cascade.json", "w");
  if (f == nullptr) {
    std::perror("BENCH_abl_tier_cascade.json");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"abl_tier_cascade\",\n");
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"model\": \"%s\",\n  \"configs\": [\n",
               model.name.c_str());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"total_s\": %.6f, "
                 "\"cascade_demotions\": %llu, \"fetch_bytes\": %llu, ",
                 o.name.c_str(), o.result.total_time,
                 static_cast<unsigned long long>(
                     o.result.policy.cascade_demotions),
                 static_cast<unsigned long long>(o.result.policy.fetch_bytes));
    std::fprintf(f, "\"attrib\": {");
    for (int b = 0; b < telemetry::kBucketCount; ++b) {
      std::fprintf(f, "%s\"%s_s\": %.6f", b ? ", " : "",
                   telemetry::bucket_name(static_cast<telemetry::Bucket>(b)),
                   o.attrib.seconds[b]);
    }
    std::fprintf(f, "}, \"migrations\": [");
    for (std::size_t j = 0; j < o.trace.migrations.size(); ++j) {
      const auto& m = o.trace.migrations[j];
      std::fprintf(f,
                   "%s{\"src_tier\": %u, \"dst_tier\": %u, "
                   "\"bytes\": %llu, \"count\": %llu}",
                   j ? ", " : "", m.src_tier, m.dst_tier,
                   static_cast<unsigned long long>(m.bytes),
                   static_cast<unsigned long long>(m.count));
    }
    std::fprintf(f, "]}%s\n", i + 1 < outcomes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Deterministic (DES): the what-if gate's inputs, kept so baseline
  // drift in the estimator itself is visible in CI diffs.
  std::fprintf(f,
               "  \"whatif_fast2x\": {\"predicted_speedup\": %.6f, "
               "\"measured_speedup\": %.6f},\n",
               predicted_speedup, measured_speedup);
  // admissions / bytes_saved depend on thread interleaving; CI ignores
  // them (--ignore) and gates on the deterministic task count.
  std::fprintf(f,
               "  \"zero_copy\": {\"tasks\": %llu, "
               "\"admissions\": %llu, \"bytes_saved\": %llu}\n}\n",
               static_cast<unsigned long long>(zc.tasks),
               static_cast<unsigned long long>(zc.admissions),
               static_cast<unsigned long long>(zc.bytes_saved));
  std::fclose(f);
  std::cout << "\nwrote BENCH_abl_tier_cascade.json\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string csv_path;
  std::string perfetto_prefix;
  bool check = false;
  bool json = false;
  ArgParser args("abl_tier_cascade",
                 "ablation: demotion cascade on a three-tier node");
  args.add_flag("csv", "write results to this CSV file", &csv_path);
  args.add_flag("json", "write BENCH_abl_tier_cascade.json", &json);
  args.add_flag("perfetto",
                "write one Perfetto JSON trace per config to "
                "<prefix>_<config>.json (feed them to hmr_explain)",
                &perfetto_prefix);
  args.add_flag("check",
                "exit nonzero unless the cascade demotes through the "
                "middle tier, beats direct-to-NVM, and the what-if "
                "estimator predicts the 2x-fast-bandwidth re-run within "
                "15%",
                &check);
  if (!args.parse(argc, argv)) return 1;

  bench::banner("Ablation: N-tier demotion cascade",
                "extension beyond the paper (its §VI future work: other "
                "heterogeneous memory architectures)");

  const auto model = hw::three_tier_hbm_ddr_nvm();
  const auto p = sim::StencilWorkload::params_for_reduced(
      32 * GiB, 4 * GiB, model.num_pes, /*iterations=*/5);
  const sim::StencilWorkload w(p);
  const hw::TierId nvm = model.slow, hbm = model.fast;
  const hw::TierId ddr = 2; // see hw::three_tier_hbm_ddr_nvm()

  const Setup setups[] = {
      {"two-tier", true, false},
      {"direct", false, false},
      {"cascade", false, true},
  };

  std::vector<Outcome> outcomes;
  for (const auto& s : setups) {
    outcomes.push_back(run_setup(s, model, w));
  }

  TextTable t({"config", "total (s)", "cascade demotions", "DDR4->HBM GiB",
               "NVM->HBM GiB", "HBM->DDR4 GiB", "HBM->NVM GiB"});
  bench::CsvSink csv(csv_path,
                     {"config", "total_s", "cascade_demotions",
                      "ddr_to_hbm_gib", "nvm_to_hbm_gib", "hbm_to_ddr_gib",
                      "hbm_to_nvm_gib"});
  for (const auto& o : outcomes) {
    const double d2h = pair_gib(o.trace, ddr, hbm);
    const double n2h = pair_gib(o.trace, nvm, hbm);
    const double h2d = pair_gib(o.trace, hbm, ddr);
    const double h2n = pair_gib(o.trace, hbm, nvm);
    t.add_row({o.name, strfmt("%.2f", o.result.total_time),
               strfmt("%llu", static_cast<unsigned long long>(
                                  o.result.policy.cascade_demotions)),
               strfmt("%.1f", d2h), strfmt("%.1f", n2h), strfmt("%.1f", h2d),
               strfmt("%.1f", h2n)});
    if (csv) {
      csv->field(std::string_view(o.name))
          .field(o.result.total_time)
          .field(static_cast<double>(o.result.policy.cascade_demotions))
          .field(d2h)
          .field(n2h)
          .field(h2d)
          .field(h2n);
      csv->end_row();
    }
  }
  t.print(std::cout);

  if (!perfetto_prefix.empty()) {
    for (const auto& o : outcomes) {
      const std::string path = perfetto_prefix + "_" + o.name + ".json";
      std::ofstream ofs(path);
      telemetry::PerfettoOptions po;
      po.worker_lanes = model.num_pes;
      telemetry::write_perfetto(ofs, o.intervals, po);
      std::cout << "wrote " << path << "\n";
    }
  }

  // Attribution verdicts + what-if validation: the critical-path
  // estimator predicts the speedup of doubling the fast tier's
  // bandwidth; the DES then actually re-runs the cascade config with
  // the modified MachineModel, and --check gates the prediction within
  // 15% relative error of the measured speedup.
  std::printf("\nbottleneck verdicts (critical path):\n");
  for (const auto& o : outcomes) {
    const auto cp = telemetry::critical_path(o.intervals);
    const auto v = telemetry::classify(cp, &model);
    std::printf("  %-9s %-18s %s\n", o.name.c_str(),
                telemetry::verdict_name(v.verdict), v.reason.c_str());
  }
  telemetry::HwDelta fast2x;
  fast2x.name = "2x fast-tier bandwidth";
  fast2x.fast_bw_scale = 2.0;
  const auto& cas = outcomes[2];
  const auto cas_cp = telemetry::critical_path(cas.intervals);
  const auto pred =
      telemetry::whatif(cas_cp, model, fast2x, &cas.task_bytes);
  const Outcome rerun =
      run_setup(setups[2], telemetry::apply_delta(model, fast2x), w);
  const double measured =
      cas.result.total_time / rerun.result.total_time;
  const double relerr =
      measured > 0 ? std::abs(pred.speedup - measured) / measured : 1.0;
  std::printf(
      "\nwhat-if: %s on the cascade config\n"
      "  predicted %.2fx (re-costed critical path), measured %.2fx "
      "(DES re-run: %.2fs -> %.2fs), relative error %.1f%%\n",
      fast2x.name.c_str(), pred.speedup, measured, cas.result.total_time,
      rerun.result.total_time, relerr * 100);

  // Zero-copy admission phase: same workload, shadow retention off/on.
  const ZcRun zc_off = run_zero_copy(false);
  const ZcRun zc_on = run_zero_copy(true);
  const bool zc_identical = zc_off.contents == zc_on.contents;
  // Fetch/evict counts depend on thread interleaving (two identical
  // runs differ by a few), so the byte-exact engine-stream equivalence
  // lives in the sequential refimpl test (test_tier_equivalence.cpp);
  // here we gate on what threading cannot change: every submitted
  // task ran, and the data is byte-identical.
  const bool zc_tasks_equal = zc_off.tasks == zc_on.tasks;
  std::printf(
      "\nzero-copy admission (threaded runtime, read-only churn):\n"
      "  off: %llu tasks, %llu fetches, %llu evicts\n"
      "  on:  %llu tasks, %llu fetches, %llu evicts, "
      "%llu swaps admitted (%.1f MiB of copies skipped)\n"
      "  contents %s, task count %s\n",
      static_cast<unsigned long long>(zc_off.tasks),
      static_cast<unsigned long long>(zc_off.stats.fetches),
      static_cast<unsigned long long>(zc_off.stats.evicts),
      static_cast<unsigned long long>(zc_on.tasks),
      static_cast<unsigned long long>(zc_on.stats.fetches),
      static_cast<unsigned long long>(zc_on.stats.evicts),
      static_cast<unsigned long long>(zc_on.admissions),
      static_cast<double>(zc_on.bytes_saved) / (1u << 20),
      zc_identical ? "byte-identical" : "DIVERGED",
      zc_tasks_equal ? "identical" : "DIVERGED");

  if (json) write_json(outcomes, model, zc_on, pred.speedup, measured);

  if (check) {
    int rc = 0;
    auto expect = [&](bool ok, const std::string& what) {
      if (!ok) {
        std::cerr << "CHECK FAILED: " << what << "\n";
        rc = 2;
      }
    };
    const auto& two = outcomes[0];
    const auto& direct = outcomes[1];
    const auto& cascade = outcomes[2];
    expect(cascade.result.policy.cascade_demotions > 0,
           "cascade run demoted nothing through the middle tier");
    expect(pair_gib(cascade.trace, ddr, hbm) >
               pair_gib(cascade.trace, nvm, hbm),
           "cascade run still re-fetched mostly from NVM");
    expect(cascade.result.total_time < direct.result.total_time,
           strfmt("cascade %.3fs not faster than direct-to-NVM %.3fs",
                  cascade.result.total_time, direct.result.total_time));
    // Without the cascade the third level only adds labels: the command
    // stream (and hence the simulated time) must match the two-tier
    // hierarchy exactly.
    expect(direct.result.total_time == two.result.total_time &&
               direct.result.policy.cascade_demotions == 0,
           strfmt("direct-to-NVM %.6fs != two-tier %.6fs",
                  direct.result.total_time, two.result.total_time));
    expect(zc_on.admissions > 0,
           "zero-copy run admitted no shadow swaps");
    expect(zc_off.admissions == 0,
           "zero-copy counted admissions while disabled");
    expect(zc_identical,
           "zero-copy run diverged from the copying run (contents)");
    expect(zc_tasks_equal,
           "zero-copy run diverged from the copying run (task count)");
    expect(relerr <= 0.15,
           strfmt("what-if estimator off by %.1f%% (predicted %.2fx, "
                  "measured %.2fx; bound 15%%)",
                  relerr * 100, pred.speedup, measured));
    // Per-task buckets must sum to wall time (1% tolerance) in every
    // config — the same invariant HMR_AUDIT enforces at quiescence.
    for (const auto& o : outcomes) {
      expect(o.attrib.sum_violations == 0,
             strfmt("%s: %llu attribution sum violations (worst %.2f%%)",
                    o.name.c_str(),
                    static_cast<unsigned long long>(o.attrib.sum_violations),
                    o.attrib.worst_rel_err * 100));
    }
    if (rc == 0) std::cout << "\ncascade + zero-copy checks passed\n";
    return rc;
  }
  return 0;
}
