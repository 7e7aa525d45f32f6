// Tests for the live-introspection layer: the status server (routes,
// query parsing, endpoints against a live runtime), the stall
// watchdog (deterministic evaluate() logic plus a real injected-stall
// trip), and the engine invariant auditor (gating, clean runs,
// sensitivity to claimed-but-false quiescence).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "instant_executor.hpp"
#include "ooc/policy_engine.hpp"
#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "rt/sharded_engine.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/serve.hpp"
#include "telemetry/watchdog.hpp"

namespace hmr {
namespace {

// ---- tiny blocking HTTP client (tests only) ----

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break; // server closes after the response
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

// ---- StatusServer ----

TEST(StatusServer, RoutesAndQueryDecoding) {
  telemetry::StatusServer srv;
  srv.route("/echo", [](const telemetry::StatusServer::Request& rq) {
    telemetry::StatusServer::Response r;
    const auto it = rq.query.find("x");
    r.body = it == rq.query.end() ? "(none)" : it->second;
    return r;
  });
  std::string err;
  ASSERT_TRUE(srv.start(0, &err)) << err;
  ASSERT_NE(srv.port(), 0);

  const std::string resp = http_get(srv.port(), "/echo?x=a%20b%2Fc+d");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("a b/c d"), std::string::npos);
  srv.stop();
  EXPECT_FALSE(srv.running());
}

TEST(StatusServer, UnknownPathIs404ListingRoutes) {
  telemetry::StatusServer srv;
  srv.route("/known", [](const telemetry::StatusServer::Request&) {
    return telemetry::StatusServer::Response{};
  });
  ASSERT_TRUE(srv.start(0));
  const std::string resp = http_get(srv.port(), "/nope");
  EXPECT_NE(resp.find("404"), std::string::npos);
  EXPECT_NE(resp.find("/known"), std::string::npos);
  srv.stop();
}

TEST(StatusServer, ParseQuery) {
  const auto q =
      telemetry::StatusServer::parse_query("id=7&name=a%20b&flag");
  EXPECT_EQ(q.at("id"), "7");
  EXPECT_EQ(q.at("name"), "a b");
  EXPECT_EQ(q.at("flag"), "");
}

// ---- Watchdog: deterministic tick logic via evaluate() ----

struct FakeSignals {
  bool loaded = true;
  std::uint64_t progress = 0;
  double fetch_age = -1;
  double fetch_p99 = 0;
  std::string dumped;

  telemetry::Watchdog::Hooks hooks() {
    telemetry::Watchdog::Hooks h;
    h.under_load = [this] { return loaded; };
    h.progress = [this] { return progress; };
    h.fetch_age = [this] { return fetch_age; };
    h.fetch_p99 = [this] { return fetch_p99; };
    h.dump = [this](std::ostream& os) {
      os << "BUNDLE";
      dumped += "BUNDLE";
    };
    return h;
  }
};

telemetry::Watchdog::Config warn_cfg(double stall_seconds = 2.0) {
  telemetry::Watchdog::Config c;
  c.stall_seconds = stall_seconds;
  c.escalation = telemetry::Watchdog::Escalation::Warn;
  return c;
}

TEST(Watchdog, NoTripWhileProgressing) {
  FakeSignals sig;
  telemetry::Watchdog wd(warn_cfg(), sig.hooks());
  for (int i = 0; i < 10; ++i) {
    ++sig.progress;
    wd.evaluate(i * 1.0);
  }
  EXPECT_EQ(wd.trips(), 0u);
  EXPECT_FALSE(wd.stalled());
}

TEST(Watchdog, TripsOnceAfterStallWindowAndRearms) {
  FakeSignals sig;
  telemetry::Watchdog wd(warn_cfg(/*stall_seconds=*/2.0), sig.hooks());
  sig.progress = 5;
  wd.evaluate(0.0); // progress observed, window re-armed
  wd.evaluate(0.5); // first frozen observation: window opens here
  wd.evaluate(2.0); // frozen 1.5 s: below the window
  EXPECT_EQ(wd.trips(), 0u);
  wd.evaluate(3.0); // frozen 2.5 s: trip
  EXPECT_EQ(wd.trips(), 1u);
  EXPECT_TRUE(wd.stalled());
  EXPECT_NE(wd.last_reason().find("no progress"), std::string::npos);
  wd.evaluate(5.0); // still frozen: one report per episode
  EXPECT_EQ(wd.trips(), 1u);
  ++sig.progress; // forward motion clears the episode
  wd.evaluate(5.5);
  EXPECT_FALSE(wd.stalled());
  wd.evaluate(6.0); // frozen again: second window opens
  wd.evaluate(9.0); // frozen 3 s: a second episode
  EXPECT_EQ(wd.trips(), 2u);
}

TEST(Watchdog, IdleNeverTrips) {
  FakeSignals sig;
  sig.loaded = false;
  telemetry::Watchdog wd(warn_cfg(), sig.hooks());
  wd.evaluate(0.0);
  wd.evaluate(100.0); // frozen forever, but nothing outstanding
  EXPECT_EQ(wd.trips(), 0u);
}

TEST(Watchdog, StuckFetchTripsEvenWithProgress) {
  FakeSignals sig;
  sig.fetch_age = 10.0; // one fetch stuck for 10 s
  sig.fetch_p99 = 0.1;  // limit = max(2.0, 8 x 0.1) = 2.0
  telemetry::Watchdog wd(warn_cfg(), sig.hooks());
  ++sig.progress; // other work still retires
  wd.evaluate(0.0);
  EXPECT_EQ(wd.trips(), 1u);
  EXPECT_NE(wd.last_reason().find("fetch in flight"), std::string::npos);
}

TEST(Watchdog, DumpEscalationWritesBundleToFile) {
  FakeSignals sig;
  telemetry::Watchdog::Config c;
  c.stall_seconds = 1.0;
  c.escalation = telemetry::Watchdog::Escalation::Dump;
  c.dump_path = temp_path("wd_dump.txt");
  std::remove(c.dump_path.c_str());
  telemetry::Watchdog wd(c, sig.hooks());
  wd.evaluate(0.0);
  wd.evaluate(1.5);
  ASSERT_EQ(wd.trips(), 1u);
  std::ifstream f(c.dump_path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("watchdog trip"), std::string::npos);
  EXPECT_NE(ss.str().find("BUNDLE"), std::string::npos);
}

TEST(Watchdog, WarnEscalationNeverDumps) {
  FakeSignals sig;
  telemetry::Watchdog wd(warn_cfg(1.0), sig.hooks());
  wd.evaluate(0.0);
  wd.evaluate(2.0);
  EXPECT_EQ(wd.trips(), 1u);
  EXPECT_TRUE(sig.dumped.empty());
}

// ---- audit plumbing ----

TEST(Audit, EnabledPrecedence) {
  ::unsetenv("HMR_AUDIT");
  EXPECT_TRUE(telemetry::audit_enabled(1));
  EXPECT_FALSE(telemetry::audit_enabled(0));
  ::setenv("HMR_AUDIT", "0", 1);
  EXPECT_FALSE(telemetry::audit_enabled(1)); // env beats the knob
  ::setenv("HMR_AUDIT", "1", 1);
  EXPECT_TRUE(telemetry::audit_enabled(0));
  ::unsetenv("HMR_AUDIT");
}

TEST(Audit, FormatAndJson) {
  telemetry::AuditReport r;
  r.time = 1.5;
  r.at_quiescence = true;
  EXPECT_NE(telemetry::format_audit(r).find("clean"), std::string::npos);
  r.violations.push_back("used 10 != 20 \"quoted\"");
  const std::string text = telemetry::format_audit(r);
  EXPECT_NE(text.find("1 violation"), std::string::npos);
  EXPECT_NE(text.find("used 10 != 20"), std::string::npos);
  std::ostringstream os;
  telemetry::write_audit_json(os, r);
  EXPECT_NE(os.str().find("\"ok\":false"), std::string::npos);
  EXPECT_NE(os.str().find("\\\"quoted\\\""), std::string::npos);
}

TEST(AuditDeathTest, CheckAuditAbortsOnViolations) {
  telemetry::AuditReport r;
  r.violations.push_back("synthetic divergence");
  EXPECT_DEATH(telemetry::check_audit(r), "invariant audit failed");
}

// The auditor must be *sensitive*, not just quiet on healthy runs: a
// mid-flight engine audited against a (false) claim of quiescence has
// held refcounts and an unfinished migration to object to.  Both
// engines run the one shared audit over their own snapshot.
TEST(Audit, EngineAuditFlagsFalseQuiescenceClaim) {
  ooc::PolicyEngine::Config c;
  c.strategy = ooc::Strategy::MultiIo;
  c.num_pes = 1;
  c.fast_capacity = 100;
  ooc::PolicyEngine serial(c);
  rt::ShardedEngine sharded(c);
  for (ooc::Engine* e : {static_cast<ooc::Engine*>(&serial),
                         static_cast<ooc::Engine*>(&sharded)}) {
    e->add_block(0, 60); // slow-resident under a movement strategy
    ooc::TaskDesc t;
    t.id = 1;
    t.pe = 0;
    t.deps.push_back({0, ooc::AccessMode::ReadWrite});
    const auto cmds = e->on_task_arrived(t);
    ASSERT_FALSE(cmds.empty()); // a fetch is now in flight
    EXPECT_TRUE(e->audit_invariants(/*at_quiescence=*/false).empty());
    EXPECT_FALSE(e->audit_invariants(/*at_quiescence=*/true).empty());
  }
}

// A completed task's record is freed: after many tasks through the
// serial engine the quiescent audit (records = queued + live) is
// clean, which it cannot be while completed records linger.
TEST(Audit, SerialEngineFreesCompletedTaskRecords) {
  ooc::PolicyEngine::Config c;
  c.num_pes = 2;
  c.fast_capacity = 1000;
  ooc::PolicyEngine e(c);
  for (ooc::BlockId b = 0; b < 8; ++b) e.add_block(b, 100);
  testing::InstantExecutor x(e);
  constexpr ooc::TaskId kTasks = 12000;
  for (ooc::TaskId t = 0; t < kTasks; ++t) {
    ooc::TaskDesc d;
    d.id = t;
    d.pe = static_cast<std::int32_t>(t % 2);
    d.deps = {{t % 8, ooc::AccessMode::ReadWrite},
              {(t + 3) % 8, ooc::AccessMode::ReadOnly}};
    x.arrive(d);
  }
  EXPECT_EQ(e.stats().tasks_run, kTasks);
  EXPECT_EQ(e.live_tasks(), 0u);
  EXPECT_EQ(e.audit_invariants(/*at_quiescence=*/true),
            std::vector<std::string>{});
}

// ---- runtime integration ----

rt::Runtime::Config busy_config(int pes = 2) {
  rt::Runtime::Config cfg;
  cfg.num_pes = pes;
  cfg.mem_scale = 1.0 / 4096; // 4 MiB fast / 24 MiB slow
  return cfg;
}

void run_migrating_workload(rt::Runtime& rt, int rounds = 3) {
  std::vector<rt::IoHandle<double>> blocks;
  for (int i = 0; i < 12; ++i) {
    blocks.emplace_back(rt, 64 * 1024); // 512 KiB each > fast tier sum
  }
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      auto& blk = blocks[i];
      rt.send_prefetch(static_cast<int>(i) % rt.num_pes(),
                       {blk.dep(ooc::AccessMode::ReadWrite)},
                       [&blk] { blk[0] += 1.0; });
    }
    rt.wait_idle();
  }
}

TEST(RuntimeIntrospect, StatusEndpointsEndToEnd) {
  auto cfg = busy_config();
  cfg.serve_port = 0; // any free loopback port
  rt::Runtime rt(cfg);
  ASSERT_NE(rt.serve_port(), 0);
  run_migrating_workload(rt);

  EXPECT_NE(http_get(rt.serve_port(), "/healthz").find("ok"),
            std::string::npos);

  const std::string status = http_get(rt.serve_port(), "/status");
  EXPECT_NE(status.find("200 OK"), std::string::npos);
  EXPECT_NE(status.find("\"num_pes\":2"), std::string::npos);
  EXPECT_NE(status.find("\"tiers\":["), std::string::npos);
  EXPECT_NE(status.find("\"pes\":["), std::string::npos);

  const std::string metrics = http_get(rt.serve_port(), "/metrics");
  EXPECT_NE(metrics.find("hmr_policy_tasks_run_total"),
            std::string::npos);
  EXPECT_NE(metrics.find("hmr_tier_used_bytes"), std::string::npos);

  const std::string blocks = http_get(rt.serve_port(), "/blocks?id=0");
  EXPECT_NE(blocks.find("\"transitions\":["), std::string::npos);
  EXPECT_NE(blocks.find("\"fetch\":true"), std::string::npos);
  EXPECT_NE(http_get(rt.serve_port(), "/blocks").find("400"),
            std::string::npos);
  // A freed block's history goes with it.
  const mem::BlockId freed = rt.alloc_block(4096);
  rt.send_prefetch(0, {{freed, ooc::AccessMode::ReadWrite}}, [] {});
  rt.wait_idle();
  const std::string path = "/blocks?id=" + std::to_string(freed);
  EXPECT_NE(http_get(rt.serve_port(), path).find("\"fetch\":true"),
            std::string::npos);
  rt.free_block(freed);
  EXPECT_NE(http_get(rt.serve_port(), path).find("\"transitions\":[]"),
            std::string::npos);
  EXPECT_NE(http_get(rt.serve_port(), "/blocks?id=junk").find("400"),
            std::string::npos);
}

TEST(RuntimeIntrospect, AttribRouteServesStallDecomposition) {
  auto cfg = busy_config();
  cfg.serve_port = 0;
  rt::Runtime rt(cfg);
  ASSERT_NE(rt.serve_port(), 0);
  run_migrating_workload(rt);

  const std::string resp = http_get(rt.serve_port(), "/attrib");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  EXPECT_NE(resp.find("\"buckets\":{"), std::string::npos);
  EXPECT_NE(resp.find("\"compute\":"), std::string::npos);
  EXPECT_NE(resp.find("\"fetch_wait\":"), std::string::npos);
  // Every retired task's buckets summed to wall time.
  EXPECT_NE(resp.find("\"sum_violations\":0"), std::string::npos);
  // All 36 tasks from the migrating workload are attributed.
  EXPECT_NE(resp.find("\"tasks\":36"), std::string::npos) << resp;
}

TEST(RuntimeIntrospect, HistoryRejectsMalformedWindow) {
  auto cfg = busy_config();
  cfg.serve_port = 0;
  cfg.metrics = true; // history needs the registry (depth default 240)
  rt::Runtime rt(cfg);
  ASSERT_NE(rt.serve_port(), 0);
  run_migrating_workload(rt, /*rounds=*/1);

  // Valid windows (including zero and float seconds) still answer 200.
  EXPECT_NE(http_get(rt.serve_port(), "/history?window=2.5")
                .find("200 OK"),
            std::string::npos);
  // strtod accepts "nan"/"inf"/negatives; the route must not.
  for (const char* bad : {"nan", "inf", "-1", "junk", "1e9x"}) {
    const std::string resp =
        http_get(rt.serve_port(), std::string("/history?window=") + bad);
    EXPECT_NE(resp.find("400"), std::string::npos) << bad;
    EXPECT_NE(resp.find("bad window"), std::string::npos) << bad;
    EXPECT_NE(resp.find("usage:"), std::string::npos) << bad;
  }
}

TEST(RuntimeIntrospect, BlockIdsMustBePlainDigits) {
  auto cfg = busy_config();
  cfg.serve_port = 0;
  cfg.adaptive = true; // /decisions needs the decision log
  rt::Runtime rt(cfg);
  ASSERT_NE(rt.serve_port(), 0);
  run_migrating_workload(rt, /*rounds=*/1);

  EXPECT_NE(http_get(rt.serve_port(), "/blocks?id=0").find("200 OK"),
            std::string::npos);
  EXPECT_NE(http_get(rt.serve_port(), "/decisions?block=0").find("200 OK"),
            std::string::npos);
  // strtoull negates "-1", skips blanks and saturates on overflow; the
  // routes must not.  %2B and %20 decode to '+' and ' '.
  for (const char* bad :
       {"-1", "%2B1", "%201", "99999999999999999999999"}) {
    for (const std::string route : {"/blocks?id=", "/decisions?block="}) {
      const std::string resp = http_get(rt.serve_port(), route + bad);
      EXPECT_NE(resp.find("400"), std::string::npos) << route << bad;
      EXPECT_NE(resp.find("bad block id"), std::string::npos)
          << route << bad;
    }
  }
  // Any 64-bit id is valid; one past the flight recorder's table (or
  // never allocated) has no history.
  for (const char* id : {"1099511627776", "9223372036854775808",
                         "18446744073709551615"}) {
    const std::string resp = http_get(rt.serve_port(),
                                      std::string("/blocks?id=") + id);
    EXPECT_NE(resp.find("200 OK"), std::string::npos) << id;
    EXPECT_NE(resp.find(std::string("{\"block\":") + id +
                        ",\"transitions\":[]}"),
              std::string::npos)
        << resp;
  }
}

TEST(RuntimeIntrospect, WatchdogSilentOnHealthyRun) {
  auto cfg = busy_config();
  cfg.watchdog = true;
  cfg.watchdog_cfg.interval = std::chrono::milliseconds(20);
  cfg.watchdog_cfg.stall_seconds = 5.0; // far above any healthy pause
  rt::Runtime rt(cfg);
  run_migrating_workload(rt);
  ASSERT_NE(rt.watchdog(), nullptr);
  EXPECT_EQ(rt.watchdog()->trips(), 0u);
}

TEST(RuntimeIntrospect, WatchdogTripsOnInjectedStallAndDumps) {
  auto cfg = busy_config();
  cfg.metrics = true; // the dump's "==== metrics ====" section
  cfg.watchdog = true;
  cfg.watchdog_cfg.interval = std::chrono::milliseconds(20);
  cfg.watchdog_cfg.stall_seconds = 0.2;
  cfg.watchdog_cfg.escalation = telemetry::Watchdog::Escalation::Dump;
  cfg.watchdog_cfg.dump_path = temp_path("rt_stall_dump.txt");
  std::remove(cfg.watchdog_cfg.dump_path.c_str());
  rt::Runtime rt(cfg);
  // The injected stall: one message whose body blocks well past the
  // stall window while a second one waits behind it, so the runtime
  // is under load with its progress counter frozen.
  rt.send(0, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
  });
  rt.send(0, [] {});
  rt.wait_idle();
  ASSERT_NE(rt.watchdog(), nullptr);
  EXPECT_GE(rt.watchdog()->trips(), 1u);
  std::ifstream f(cfg.watchdog_cfg.dump_path);
  ASSERT_TRUE(f.good()) << "watchdog trip produced no dump file";
  std::stringstream ss;
  ss << f.rdbuf();
  EXPECT_NE(ss.str().find("watchdog trip"), std::string::npos);
  EXPECT_NE(ss.str().find("==== status ===="), std::string::npos);
  EXPECT_NE(ss.str().find("==== metrics ===="), std::string::npos);
}

TEST(RuntimeIntrospect, AuditCleanAtQuiescenceBothEngines) {
  for (const auto strategy :
       {ooc::Strategy::MultiIo, ooc::Strategy::SingleIo}) {
    auto cfg = busy_config();
    cfg.strategy = strategy;
    cfg.audit = 1;
    rt::Runtime rt(cfg);
    run_migrating_workload(rt);
    const telemetry::AuditReport r = rt.audit_now();
    EXPECT_TRUE(r.ok()) << telemetry::format_audit(r);
    EXPECT_TRUE(r.at_quiescence);
  }
}

TEST(RuntimeIntrospect, WaitIdleRunsAuditsWhenEnabled) {
  ::unsetenv("HMR_AUDIT");
  auto cfg = busy_config();
  cfg.audit = 1;
  rt::Runtime rt(cfg);
  run_migrating_workload(rt, /*rounds=*/2);
  EXPECT_GE(rt.audit_runs(), 2u);
  const std::string status = rt.status_json();
  EXPECT_NE(status.find("\"audit\":{"), std::string::npos);
  EXPECT_NE(status.find("\"ok\":true"), std::string::npos);
}

} // namespace
} // namespace hmr
