// Golden-file tests for the CLI tools (tools/hmr_trace, hmr_explain,
// hmr_top and hmr_bench_diff), driven through popen the way a user or
// a CI step would run them.  The binaries' paths and the golden directory
// arrive as compile definitions from tests/CMakeLists.txt.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult run(const std::string& cmd) {
  RunResult r;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return r;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    r.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string golden(const std::string& file) {
  std::ifstream f(std::string(HMR_GOLDEN_DIR) + "/" + file);
  EXPECT_TRUE(f.good()) << "missing golden file " << file;
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Tools are run from inside the golden directory so the input path the
// tool echoes back is the stable relative name, not a build path.
std::string in_golden_dir(const std::string& tool_and_args) {
  return "cd '" HMR_GOLDEN_DIR "' && " + tool_and_args;
}

// ---- hmr_trace ----

TEST(HmrTrace, SummaryMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_small.csv 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("trace_small.out"));
}

TEST(HmrTrace, TimelineMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_small.csv --timeline --width 60 "
                    "2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("trace_small_timeline.out"));
}

TEST(HmrTrace, CleanTraceEmitsNoWarning) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_small.csv 2>&1 1>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, ""); // stderr must stay silent on a clean trace
}

TEST(HmrTrace, DroppedTrailerCountsAndWarns) {
  const RunResult out = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_drops.csv 2>/dev/null"));
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_NE(out.output.find("ring drops: 7"), std::string::npos);
  const RunResult err = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_drops.csv 2>&1 1>/dev/null"));
  EXPECT_NE(err.output.find("WARNING: 7 events were dropped"),
            std::string::npos);
}

TEST(HmrTrace, RejectsBadHeader) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in bench_old.json 2>&1"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unrecognized header"), std::string::npos);
}

TEST(HmrTrace, JsonSummaryIsMachineReadable) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_small.csv --json 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  // Spot-check the document rather than pinning every float digit.
  EXPECT_NE(r.output.find("\"intervals\":7"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"categories\":{"), std::string::npos);
  EXPECT_NE(r.output.find("\"compute\":{"), std::string::npos);
  EXPECT_NE(r.output.find("\"migrations\":["), std::string::npos);
  EXPECT_NE(r.output.find("\"dropped\":0"), std::string::npos);
  // And it must parse: feed it through python3 if available.
  const RunResult py = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --in trace_small.csv --json 2>/dev/null | "
                    "python3 -c 'import json,sys; json.load(sys.stdin)' "
                    "2>&1 || true"));
  EXPECT_EQ(py.output, "") << py.output;
}

TEST(HmrTrace, DecisionViewMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --decisions decisions_small.csv 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("decisions_small.out"));
}

TEST(HmrTrace, DecisionViewRejectsWrongHeader) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TRACE_TOOL +
                    "' --decisions trace_small.csv 2>&1"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("unrecognized decisions header"),
            std::string::npos)
      << r.output;
}

// ---- hmr_top ----

TEST(HmrTop, OfflineFrameMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TOP_TOOL +
                    "' --once --from hmr_top_status.json "
                    "--history-file hmr_top_history.json 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("hmr_top.out"));
}

TEST(HmrTop, MissingHistoryDropsOnlySparklines) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_TOP_TOOL +
                    "' --once --from hmr_top_status.json 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("Tiers:"), std::string::npos);
  EXPECT_EQ(r.output.find("|"), std::string::npos); // no sparkline pipes
  EXPECT_NE(r.output.find("watchdog trip(s)"), std::string::npos);
}

TEST(HmrTop, UnreadableOfflineFileFails) {
  // A missing or non-JSON pane file is an error, not a frame without
  // that pane.
  const RunResult missing = run(
      in_golden_dir(std::string("'") + HMR_TOP_TOOL +
                    "' --once --from hmr_top_status.json "
                    "--cluster-file /nonexistent.json 2>&1"));
  EXPECT_EQ(missing.exit_code, 1);
  EXPECT_NE(missing.output.find("cannot open /nonexistent.json"),
            std::string::npos)
      << missing.output;
  EXPECT_EQ(missing.output.find("Tiers:"), std::string::npos);

  const RunResult garbled = run(
      in_golden_dir(std::string("'") + HMR_TOP_TOOL +
                    "' --once --from hmr_top_status.json "
                    "--history-file hmr_top.out 2>&1"));
  EXPECT_EQ(garbled.exit_code, 1);
  EXPECT_NE(garbled.output.find("bad JSON in hmr_top.out"),
            std::string::npos)
      << garbled.output;
}

TEST(HmrTop, RequiresPortOrFile) {
  const RunResult r = run(std::string("'") + HMR_TOP_TOOL + "' 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("--port or --from"), std::string::npos);
}

TEST(HmrTop, OfflineFilesNeedFrom) {
  // Live mode reads /history from the port and has no cluster pane, so
  // the offline-only files are a usage error there, not silently
  // ignored.  The port is never contacted: the check runs first.
  for (const char* flag : {"--cluster-file /dev/null",
                           "--history-file /dev/null"}) {
    const RunResult r = run(std::string("'") + HMR_TOP_TOOL +
                            "' --port 18080 --once " + flag + " 2>&1");
    EXPECT_EQ(r.exit_code, 1) << flag;
    EXPECT_NE(r.output.find("need --from"), std::string::npos) << r.output;
  }
}

// ---- hmr_explain ----

TEST(HmrExplain, ComputeBoundSummaryMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_EXPLAIN_TOOL +
                    "' --in trace_small.csv 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("explain_small.out"));
}

TEST(HmrExplain, BandwidthBoundWithModelAndWhatIfMatchesGolden) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_EXPLAIN_TOOL +
                    "' --in explain_bw.csv --model knl --whatif "
                    "2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, golden("explain_bw.out"));
}

TEST(HmrExplain, JsonOutputCarriesVerdictAndPairs) {
  const RunResult r = run(
      in_golden_dir(std::string("'") + HMR_EXPLAIN_TOOL +
                    "' --in explain_bw.csv --json 2>/dev/null"));
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("\"verdict\":\"bandwidth-bound\""),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("\"pairs\":["), std::string::npos);
  EXPECT_NE(r.output.find("\"makespan_s\":10.5"), std::string::npos);
}

TEST(HmrExplain, DroppedTrailerWarns) {
  const RunResult err = run(
      in_golden_dir(std::string("'") + HMR_EXPLAIN_TOOL +
                    "' --in trace_drops.csv 2>&1 1>/dev/null"));
  EXPECT_EQ(err.exit_code, 0); // a lossy trace still gets its report
  EXPECT_NE(err.output.find("hmr_explain: WARNING: 7 events were dropped"),
            std::string::npos)
      << err.output;
  // A clean trace stays silent.
  const RunResult clean = run(
      in_golden_dir(std::string("'") + HMR_EXPLAIN_TOOL +
                    "' --in trace_small.csv 2>&1 1>/dev/null"));
  EXPECT_EQ(clean.output, "");
}

TEST(HmrExplain, RequiresExactlyOneInput) {
  const RunResult r =
      run(std::string("'") + HMR_EXPLAIN_TOOL + "' 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("exactly one of --in / --perfetto"),
            std::string::npos);
}

TEST(HmrExplain, RejectsMalformedCsvRow) {
  const std::string path = "/tmp/hmr_explain_bad.csv";
  {
    std::ofstream f(path);
    f << "lane,category,start,end,task,src_tier,dst_tier,bytes\n";
    f << "0,compute,zero,1,1,0,0,0\n";
  }
  const RunResult r = run(std::string("'") + HMR_EXPLAIN_TOOL +
                          "' --in " + path + " 2>&1");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("bad row at line 2"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

// ---- hmr_bench_diff ----

std::string diff_cmd(const std::string& oldf, const std::string& newf,
                     const std::string& extra = "") {
  return in_golden_dir(std::string("'") + HMR_BENCH_DIFF_TOOL +
                       "' --old " + oldf + " --new " + newf + " " +
                       extra + " 2>&1");
}

TEST(HmrBenchDiff, WithinToleranceExitsZero) {
  const RunResult r = run(diff_cmd("bench_old.json", "bench_new_ok.json"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("ok: "), std::string::npos);
  EXPECT_EQ(r.output.find("REGRESSION"), std::string::npos);
}

TEST(HmrBenchDiff, SelfDiffIsExact) {
  const RunResult r = run(
      diff_cmd("bench_old.json", "bench_old.json", "--tolerance 0"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
}

TEST(HmrBenchDiff, RegressionsExitTwo) {
  const RunResult r =
      run(diff_cmd("bench_old.json", "bench_new_regress.json"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  // Slower wall clock, lower throughput, lower speedup, and a
  // disappeared metric must each be flagged.
  EXPECT_NE(r.output.find("configs.sharded.wall_s"), std::string::npos);
  EXPECT_NE(r.output.find("metric disappeared"), std::string::npos);
  EXPECT_NE(r.output.find("4 regression(s)"), std::string::npos);
}

TEST(HmrBenchDiff, OnlyRestrictsTheGate) {
  // The regressing file passes when gated on its stable counters only.
  const RunResult ok = run(diff_cmd("bench_old.json",
                                    "bench_new_regress.json",
                                    "--only bytes --tolerance 0"));
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  // A suffix must match at a path-component boundary: "asks" is not
  // a component of configs.global.tasks.
  const RunResult none = run(
      diff_cmd("bench_old.json", "bench_new_ok.json", "--only asks"));
  EXPECT_EQ(none.exit_code, 1);
  EXPECT_NE(none.output.find("matched no metric"), std::string::npos);
}

TEST(HmrBenchDiff, DecodesUnicodeEscapes) {
  // bench_unicode.json carries \uXXXX escapes (BMP code points and a
  // surrogate pair) in object keys and element-key "name" members; the
  // parser must decode them to UTF-8 instead of rejecting the file.
  const RunResult r = run(
      diff_cmd("bench_unicode.json", "bench_unicode.json", "--tolerance 0"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.find("unsupported escape"), std::string::npos);
  // é -> C3 A9: the decoded name keys the flattened path.
  EXPECT_NE(r.output.find("configs.caf\xC3\xA9.wall_s"), std::string::npos)
      << r.output;
  // € (3-byte) inside a key.
  EXPECT_NE(r.output.find("euro\xE2\x82\xAC"), std::string::npos) << r.output;
}

TEST(HmrBenchDiff, RejectsUnpairedSurrogate) {
  const std::string path = "/tmp/hmr_bad_surrogate.json";
  {
    std::ofstream f(path);
    f << "{\"na\\ud83dme\": 1}\n";
  }
  const RunResult r = run(diff_cmd(path, path));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("unpaired surrogate"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(HmrBenchDiff, MissingFileExitsOne) {
  const RunResult r = run(diff_cmd("bench_old.json", "no_such.json"));
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("cannot open"), std::string::npos);
}

} // namespace
