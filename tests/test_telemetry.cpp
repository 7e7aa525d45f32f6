// Tests for the telemetry subsystem: the lock-free event rings under
// the tracer, the metrics registry (log2 histograms, Prometheus/JSON
// writers), Perfetto export with causal task flows, the block flight
// recorder, the hub both executors build their planes from, and the
// bridges that keep the registry in lockstep with PolicyEngine::Stats
// in both executors.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rt/io_handle.hpp"
#include "rt/runtime.hpp"
#include "sim/sim_executor.hpp"
#include "sim/stencil_workload.hpp"
#include "telemetry/bridge.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/hub.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/perfetto.hpp"
#include "telemetry/ring.hpp"
#include "trace/tracer.hpp"
#include "util/units.hpp"

namespace hmr {
namespace {

using telemetry::EventRing;
using telemetry::Histogram;
using telemetry::LaneRings;
using telemetry::MetricsRegistry;
using trace::Category;
using trace::Interval;

// ---------------------------------------------------------------- rings

TEST(TelemetryRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing<int>(1).capacity(), 8u); // minimum
  EXPECT_EQ(EventRing<int>(8).capacity(), 8u);
  EXPECT_EQ(EventRing<int>(10).capacity(), 16u);
  EXPECT_EQ(EventRing<int>(1 << 14).capacity(), std::size_t{1} << 14);
}

TEST(TelemetryRing, FifoAndOverflowDropAccounting) {
  EventRing<int> ring(16);
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(ring.try_push(i));
  // Full: further pushes are dropped and counted, never blocking.
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(ring.try_push(100 + i));
  EXPECT_EQ(ring.dropped(), 5u);

  std::vector<int> out;
  EXPECT_EQ(ring.drain(out), 16u);
  ASSERT_EQ(out.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[i], i); // FIFO order

  // Drain freed the slots: pushes succeed again, drop count is
  // monotonic.
  EXPECT_TRUE(ring.try_push(42));
  out.clear();
  EXPECT_EQ(ring.drain(out), 1u);
  EXPECT_EQ(out[0], 42);
  EXPECT_EQ(ring.dropped(), 5u);
}

TEST(TelemetryRing, ConcurrentProducersVsDrainLoseNothingButDrops) {
  // Several producers hammer one small ring while a consumer drains
  // concurrently; afterwards every event was either drained exactly
  // once or counted as dropped.
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5000;
  EventRing<std::uint64_t> ring(256);

  std::vector<std::uint64_t> drained;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) ring.drain(drained);
    ring.drain(drained); // final sweep
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        ring.try_push(static_cast<std::uint64_t>(p) * kPerProducer + i);
      }
    });
  }
  for (auto& t : producers) t.join();
  done.store(true, std::memory_order_release);
  consumer.join();

  EXPECT_EQ(drained.size() + ring.dropped(), kProducers * kPerProducer);

  // No duplicates, every value valid, and each producer's surviving
  // events appear in its push order.
  std::vector<std::uint64_t> last(kProducers, 0);
  std::vector<bool> any(kProducers, false);
  std::vector<char> seen(kProducers * kPerProducer, 0);
  for (const std::uint64_t v : drained) {
    ASSERT_LT(v, kProducers * kPerProducer);
    ASSERT_FALSE(seen[v]) << "event drained twice";
    seen[v] = 1;
    const auto p = static_cast<std::size_t>(v / kPerProducer);
    if (any[p]) {
      ASSERT_GT(v, last[p]) << "per-producer order broken";
    }
    any[p] = true;
    last[p] = v;
  }
}

TEST(TelemetryRing, LaneRingsCreateOnFirstUseAndAggregate) {
  LaneRings<int> lanes(8);
  EXPECT_EQ(lanes.lane(-1), nullptr);
  EXPECT_EQ(lanes.lane(LaneRings<int>::kMaxLanes), nullptr);
  EXPECT_EQ(lanes.peek(3), nullptr); // peek never creates

  auto* r3 = lanes.lane(3);
  ASSERT_NE(r3, nullptr);
  EXPECT_EQ(lanes.lane(3), r3); // stable across calls
  EXPECT_EQ(lanes.peek(3), r3);

  lanes.lane(0)->try_push(10);
  r3->try_push(30);
  for (int i = 0; i < 20; ++i) lanes.lane(5)->try_push(i); // 8 fit
  EXPECT_EQ(lanes.dropped(), 12u);

  std::vector<int> out;
  EXPECT_EQ(lanes.drain_all(out), 10u); // 1 + 1 + 8
}

// --------------------------------------------------------------- tracer

Interval make_iv(std::int32_t lane, Category cat, double start,
                 double end, std::uint64_t task = 0,
                 std::uint32_t src = 0, std::uint32_t dst = 0,
                 std::uint64_t bytes = 0) {
  Interval iv;
  iv.lane = lane;
  iv.cat = cat;
  iv.start = start;
  iv.end = end;
  iv.task = task;
  iv.src_tier = src;
  iv.dst_tier = dst;
  iv.bytes = bytes;
  return iv;
}

TEST(TelemetryTracer, FullRingDropsAndCountsWithoutBlocking) {
  trace::Tracer::Options opt;
  opt.ring_capacity = 8;
  trace::Tracer t(true, opt);
  for (int i = 0; i < 100; ++i) {
    t.record(0, Category::Compute, i, i + 0.5, 1);
  }
  EXPECT_GT(t.dropped(), 0u);
  EXPECT_EQ(t.intervals().size() + t.dropped(), 100u);
  // dropped() is monotonic across clear().
  const auto before = t.dropped();
  t.clear();
  EXPECT_EQ(t.dropped(), before);
}

TEST(TelemetryTracer, ConcurrentRecordVsDrain) {
  // Recorders on their own lanes race readers that drain mid-flight;
  // the final log must hold exactly recorded - dropped intervals.
  trace::Tracer t(true);
  constexpr int kLanes = 4;
  constexpr int kEach = 4000;
  std::vector<std::thread> rec;
  for (int l = 0; l < kLanes; ++l) {
    rec.emplace_back([&t, l] {
      for (int i = 0; i < kEach; ++i) {
        t.record(l, Category::Compute, i, i + 0.5,
                 static_cast<std::uint64_t>(i + 1));
      }
    });
  }
  // Concurrent readers force ring drains while producers run.
  std::size_t mid = 0;
  for (int i = 0; i < 20; ++i) mid = t.intervals().size();
  EXPECT_LE(mid, static_cast<std::size_t>(kLanes) * kEach);
  for (auto& th : rec) th.join();
  EXPECT_EQ(t.intervals().size() + t.dropped(),
            static_cast<std::size_t>(kLanes) * kEach);
}

// -------------------------------------------------------------- metrics

TEST(TelemetryMetrics, HistogramBucketBoundaries) {
  EXPECT_EQ(Histogram::bucket_of(0), 0);
  EXPECT_EQ(Histogram::bucket_of(1), 1);
  EXPECT_EQ(Histogram::bucket_of(2), 2);
  EXPECT_EQ(Histogram::bucket_of(3), 2);
  EXPECT_EQ(Histogram::bucket_of(4), 3);
  EXPECT_EQ(Histogram::bucket_of(7), 3);
  EXPECT_EQ(Histogram::bucket_of(8), 4);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64);

  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64), ~0ull);

  // Every bucket's upper bound is the largest value that maps to it.
  for (int i = 1; i < 64; ++i) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i)), i);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i) + 1), i + 1);
  }

  Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull}) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(TelemetryMetrics, RegistryFindOrCreateIsStable) {
  MetricsRegistry reg;
  auto& c1 = reg.counter("hmr_x_total");
  auto& c2 = reg.counter("hmr_x_total");
  EXPECT_EQ(&c1, &c2);
  // Same name, different labels: distinct instruments.
  auto& s0 = reg.counter("hmr_y_total", "shard=\"0\"");
  auto& s1 = reg.counter("hmr_y_total", "shard=\"1\"");
  EXPECT_NE(&s0, &s1);

  c1.add(3);
  s0.set(7);
  s1.set(9);
  reg.gauge("hmr_g").set(2.5);
  reg.histogram("hmr_h_ns").observe(5);

  const auto snap = reg.snapshot();
  ASSERT_NE(snap.counter("hmr_x_total"), nullptr);
  EXPECT_EQ(snap.counter("hmr_x_total")->value, 3u);
  ASSERT_NE(snap.counter("hmr_y_total", "shard=\"1\""), nullptr);
  EXPECT_EQ(snap.counter("hmr_y_total", "shard=\"1\"")->value, 9u);
  EXPECT_EQ(snap.counter("hmr_y_total"), nullptr); // labels must match
  ASSERT_NE(snap.gauge("hmr_g"), nullptr);
  EXPECT_DOUBLE_EQ(snap.gauge("hmr_g")->value, 2.5);
  ASSERT_NE(snap.histogram("hmr_h_ns"), nullptr);
  EXPECT_EQ(snap.histogram("hmr_h_ns")->count, 1u);
  EXPECT_GE(reg.uptime(), 0.0);
}

bool has_line(const std::string& text, const std::string& line) {
  std::istringstream is(text);
  std::string l;
  while (std::getline(is, l)) {
    if (l == line) return true;
  }
  return false;
}

std::size_t count_of(const std::string& text, const std::string& pat) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(pat); pos != std::string::npos;
       pos = text.find(pat, pos + pat.size())) {
    ++n;
  }
  return n;
}

TEST(TelemetryMetrics, PrometheusExposition) {
  MetricsRegistry reg;
  reg.counter("hmr_foo_total", "", "foo help").add(7);
  reg.counter("hmr_sharded_total", "shard=\"0\"").add(1);
  reg.counter("hmr_sharded_total", "shard=\"1\"").add(2);
  reg.gauge("hmr_bar", "", "bar help").set(2.5);
  auto& h = reg.histogram("hmr_lat_ns", "", "latency");
  for (const std::uint64_t v : {0ull, 1ull, 3ull, 4ull}) h.observe(v);
  auto& hl = reg.histogram("hmr_lab_ns", "shard=\"1\"");
  hl.observe(0);

  std::ostringstream os;
  MetricsRegistry::write_prometheus(os, reg.snapshot());
  const std::string text = os.str();

  EXPECT_TRUE(has_line(text, "# HELP hmr_foo_total foo help"));
  EXPECT_TRUE(has_line(text, "# TYPE hmr_foo_total counter"));
  EXPECT_TRUE(has_line(text, "hmr_foo_total 7"));
  // One preamble shared by both labeled series.
  EXPECT_EQ(count_of(text, "# TYPE hmr_sharded_total counter"), 1u);
  EXPECT_TRUE(has_line(text, "hmr_sharded_total{shard=\"0\"} 1"));
  EXPECT_TRUE(has_line(text, "hmr_sharded_total{shard=\"1\"} 2"));
  EXPECT_TRUE(has_line(text, "# TYPE hmr_bar gauge"));
  EXPECT_TRUE(has_line(text, "hmr_bar 2.5"));

  // Cumulative buckets with log2 le bounds; +Inf carries the count.
  EXPECT_TRUE(has_line(text, "# TYPE hmr_lat_ns histogram"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_bucket{le=\"0\"} 1"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_bucket{le=\"1\"} 2"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_bucket{le=\"3\"} 3"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_bucket{le=\"7\"} 4"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_bucket{le=\"+Inf\"} 4"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_sum 8"));
  EXPECT_TRUE(has_line(text, "hmr_lat_ns_count 4"));
  // Labeled histogram series merge the le label after the labels.
  EXPECT_TRUE(has_line(text, "hmr_lab_ns_bucket{shard=\"1\",le=\"0\"} 1"));
  EXPECT_TRUE(has_line(text, "hmr_lab_ns_sum{shard=\"1\"} 0"));
  EXPECT_TRUE(has_line(text, "hmr_lab_ns_count{shard=\"1\"} 1"));
}

TEST(TelemetryMetrics, PrometheusGroupsInterleavedFamilies) {
  // Node-wide series and their per-shard copies are registered apart,
  // so names interleave in registration order.  Each family must
  // still come out as one contiguous group under one preamble.
  MetricsRegistry reg;
  reg.counter("hmr_a_total", "", "a help").add(1);
  reg.counter("hmr_b_total").add(2);
  reg.counter("hmr_a_total", "shard=\"0\"").add(3);
  reg.counter("hmr_b_total", "shard=\"0\"", "b help").add(4);
  reg.counter("hmr_a_total", "shard=\"1\"").add(5);
  reg.gauge("hmr_g").set(1);
  reg.gauge("hmr_h").set(2);
  reg.gauge("hmr_g", "level=\"1\"").set(3);
  reg.histogram("hmr_x_ns").observe(1);
  reg.histogram("hmr_y_ns").observe(2);
  reg.histogram("hmr_x_ns", "shard=\"0\"").observe(3);

  std::ostringstream os;
  MetricsRegistry::write_prometheus(os, reg.snapshot());
  const std::string text = os.str();

  // One # TYPE line per family, and every sample line of a family sits
  // between its own # TYPE line and the next one.
  std::map<std::string, int> types;
  std::istringstream is(text);
  std::string line, current;
  std::vector<std::string> order;
  while (std::getline(is, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      current = line.substr(7, line.find(' ', 7) - 7);
      ++types[current];
      order.push_back(current);
      continue;
    }
    if (line.rfind("#", 0) == 0) continue;
    EXPECT_EQ(line.rfind(current, 0), 0u)
        << "sample outside its family: " << line;
  }
  for (const auto& [name, n] : types) {
    EXPECT_EQ(n, 1) << name;
  }
  const std::vector<std::string> want = {"hmr_a_total", "hmr_b_total",
                                         "hmr_g",       "hmr_h",
                                         "hmr_x_ns",    "hmr_y_ns"};
  EXPECT_EQ(order, want);
  // HELP comes from the first series that has one, once per family.
  EXPECT_EQ(count_of(text, "# HELP hmr_a_total a help\n"), 1u);
  EXPECT_EQ(count_of(text, "# HELP hmr_b_total b help\n"), 1u);
  EXPECT_TRUE(has_line(text, "hmr_a_total{shard=\"1\"} 5"));
  EXPECT_TRUE(has_line(text, "hmr_x_ns_count{shard=\"0\"} 1"));
}

TEST(TelemetryMetrics, PromLabelEscapesValues) {
  EXPECT_EQ(telemetry::prom_label("app", "plain"), "app=\"plain\"");
  EXPECT_EQ(telemetry::prom_label("app", "a\"b\\c\nd"),
            "app=\"a\\\"b\\\\c\\nd\"");
  // The result drops into an exposition line verbatim.
  MetricsRegistry reg;
  reg.counter("hmr_esc_total", telemetry::prom_label("cfg", "x\"y"))
      .add(3);
  std::ostringstream os;
  MetricsRegistry::write_prometheus(os, reg.snapshot());
  EXPECT_TRUE(has_line(os.str(), "hmr_esc_total{cfg=\"x\\\"y\"} 3"));
}

TEST(TelemetryMetrics, HelpTextEscaping) {
  MetricsRegistry reg;
  reg.counter("hmr_h_total", "", "line one\nback\\slash").add(1);
  std::ostringstream os;
  MetricsRegistry::write_prometheus(os, reg.snapshot());
  EXPECT_TRUE(has_line(
      os.str(), "# HELP hmr_h_total line one\\nback\\\\slash"));
}

TEST(TelemetryMetrics, MetricNameValidation) {
  EXPECT_TRUE(telemetry::valid_metric_name("hmr_ok_total"));
  EXPECT_TRUE(telemetry::valid_metric_name("ns:sub_total"));
  EXPECT_TRUE(telemetry::valid_metric_name("_x9"));
  EXPECT_FALSE(telemetry::valid_metric_name(""));
  EXPECT_FALSE(telemetry::valid_metric_name("9starts_with_digit"));
  EXPECT_FALSE(telemetry::valid_metric_name("has-dash"));
  EXPECT_FALSE(telemetry::valid_metric_name("has space"));
}

TEST(TelemetryMetricsDeathTest, RejectsMalformedRegistrations) {
  MetricsRegistry reg;
  EXPECT_DEATH(reg.counter("bad name"), "invalid metric name");
  EXPECT_DEATH(reg.counter("hmr_ok", "a=\"b\nc\""), "raw newline");
  EXPECT_DEATH(telemetry::prom_label("bad-key", "v"),
               "invalid label key");
}

TEST(TelemetryTracer, SummaryCarriesRingDropCount) {
  trace::Tracer::Options opt;
  opt.ring_capacity = 8;
  trace::Tracer t(true, opt);
  for (int i = 0; i < 50; ++i) {
    t.record(0, Category::Compute, i, i + 0.5, 1);
  }
  const auto s = t.summarize();
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.dropped, t.dropped());
}

TEST(TelemetryMetrics, JsonWriterIsStructurallySound) {
  MetricsRegistry reg;
  reg.counter("hmr_a_total").add(1);
  reg.gauge("hmr_b", "level=\"0\"").set(0.25);
  reg.histogram("hmr_c_ns").observe(1000);

  std::ostringstream os;
  MetricsRegistry::write_json(os, reg.snapshot());
  const std::string js = os.str();

  EXPECT_EQ(js.front(), '{');
  EXPECT_EQ(count_of(js, "{"), count_of(js, "}"));
  EXPECT_EQ(count_of(js, "["), count_of(js, "]"));
  EXPECT_EQ(count_of(js, "\"") % 2, 0u);
  EXPECT_EQ(count_of(js, "\"counters\":["), 1u);
  EXPECT_EQ(count_of(js, "\"gauges\":["), 1u);
  EXPECT_EQ(count_of(js, "\"histograms\":["), 1u);
  EXPECT_NE(js.find("\"name\":\"hmr_a_total\""), std::string::npos);
  EXPECT_NE(js.find("\"labels\":\"level=\\\"0\\\"\""), std::string::npos);
}

TEST(TelemetryMetrics, SnapshotSamplerKeepsBoundedHistory) {
  MetricsRegistry reg;
  auto& c = reg.counter("hmr_ticks_total");
  telemetry::SnapshotSampler sampler(
      reg, std::chrono::hours(1), [&c] { c.add(1); }, /*keep=*/3);
  for (int i = 0; i < 5; ++i) sampler.sample_now();
  const auto hist = sampler.history();
  ASSERT_EQ(hist.size(), 3u); // bounded by keep
  EXPECT_EQ(hist.back().counter("hmr_ticks_total")->value, 5u);
  // Background thread start/stop is idempotent and joins cleanly.
  sampler.start();
  sampler.start();
  sampler.stop();
  sampler.stop();
}

TEST(TelemetryMetrics, BridgeMirrorsPolicyStatsExactly) {
  ooc::PolicyEngine::Stats st;
  st.tasks_run = 1;
  st.fetches = 2;
  st.fetch_bytes = 3;
  st.evicts = 4;
  st.evict_bytes = 5;
  st.fetch_dedup_hits = 6;
  st.lru_reclaims = 7;
  st.advised_pins = 8;
  st.advised_bypasses = 9;
  st.advised_demotions = 10;
  st.cascade_demotions = 11;
  st.tier_trims = 12;

  MetricsRegistry reg;
  telemetry::export_policy_stats(reg, st);
  telemetry::export_policy_stats(reg, st, "shard=\"3\"");
  const auto s = reg.snapshot();
  const struct {
    const char* name;
    std::uint64_t want;
  } expect[] = {
      {"hmr_policy_tasks_run_total", 1},
      {"hmr_policy_fetches_total", 2},
      {"hmr_policy_fetch_bytes_total", 3},
      {"hmr_policy_evicts_total", 4},
      {"hmr_policy_evict_bytes_total", 5},
      {"hmr_policy_fetch_dedup_hits_total", 6},
      {"hmr_policy_lru_reclaims_total", 7},
      {"hmr_policy_advised_pins_total", 8},
      {"hmr_policy_advised_bypasses_total", 9},
      {"hmr_policy_advised_demotions_total", 10},
      {"hmr_policy_cascade_demotions_total", 11},
      {"hmr_policy_tier_trims_total", 12},
  };
  for (const auto& e : expect) {
    const auto* node = s.counter(e.name);
    ASSERT_NE(node, nullptr) << e.name;
    EXPECT_EQ(node->value, e.want) << e.name;
    const auto* shard = s.counter(e.name, "shard=\"3\"");
    ASSERT_NE(shard, nullptr) << e.name;
    EXPECT_EQ(shard->value, e.want) << e.name;
  }
}

// ------------------------------------------------------------- perfetto

struct FlowEvent {
  char ph = 0;
  std::uint64_t id = 0;
  std::size_t pos = 0; // byte offset, for ordering checks
};

std::vector<FlowEvent> parse_flow_events(const std::string& js) {
  std::vector<FlowEvent> out;
  for (std::size_t pos = js.find("\"cat\":\"task_flow\"");
       pos != std::string::npos;
       pos = js.find("\"cat\":\"task_flow\"", pos + 1)) {
    const std::size_t b = js.rfind('\n', pos) + 1;
    const std::size_t e = js.find('\n', pos);
    const std::string line = js.substr(b, e - b);
    FlowEvent ev;
    ev.pos = b;
    const auto php = line.find("\"ph\":\"");
    const auto idp = line.find("\"id\":");
    EXPECT_NE(php, std::string::npos);
    EXPECT_NE(idp, std::string::npos);
    ev.ph = line[php + 6];
    ev.id = std::stoull(line.substr(idp + 5));
    out.push_back(ev);
  }
  return out;
}

TEST(TelemetryPerfetto, EmitsMetadataSlicesAndOneFlowChain) {
  std::vector<Interval> ivs;
  // Task 7's causal chain: fetch on an IO lane, execute on a worker,
  // evict on another IO lane.
  ivs.push_back(make_iv(16, Category::Prefetch, 0.0, 0.1, 7, 1, 0, 1024));
  ivs.push_back(make_iv(2, Category::Compute, 0.1, 0.2, 7));
  ivs.push_back(make_iv(17, Category::Evict, 0.2, 0.3, 7, 0, 1, 1024));
  // A single-interval task draws no arrow.
  ivs.push_back(make_iv(2, Category::Compute, 0.3, 0.4, 9));
  // Non-task-bound and idle intervals never join chains.
  ivs.push_back(make_iv(2, Category::Overhead, 0.4, 0.45));
  ivs.push_back(make_iv(3, Category::Idle, 0.0, 1.0));

  std::ostringstream os;
  telemetry::PerfettoOptions opt;
  opt.worker_lanes = 16;
  telemetry::write_perfetto(os, ivs, opt);
  const std::string js = os.str();

  EXPECT_EQ(js.rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
  EXPECT_EQ(count_of(js, "{"), count_of(js, "}"));
  EXPECT_EQ(count_of(js, "["), count_of(js, "]"));

  // Lane metadata: workers are PEs, lanes past worker_lanes are IO.
  EXPECT_NE(js.find("\"name\":\"PE 2\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"IO 0\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"IO 1\""), std::string::npos);

  // Slices: idle is skipped by default, migrations carry tier args.
  EXPECT_EQ(count_of(js, "\"ph\":\"X\""), 5u);
  // Microsecond times, the lane as tid and the task as an argument.
  EXPECT_NE(js.find("\"ph\":\"X\",\"pid\":0,\"tid\":2,\"ts\":100000.000,"
                    "\"dur\":100000.000,\"args\":{\"task\":7}}"),
            std::string::npos);
  EXPECT_NE(js.find("\"tid\":2,\"ts\":300000.000,\"dur\":100000.000,"
                    "\"args\":{\"task\":9}}"),
            std::string::npos);
  EXPECT_EQ(js.find("\"name\":\"idle\""), std::string::npos);
  EXPECT_NE(js.find("\"src_tier\":1,\"dst_tier\":0,\"bytes\":1024"),
            std::string::npos);

  // Exactly one chain: s -> t -> f, all bound to enclosing slices and
  // all carrying task 7's id; task 9 (chain of one) draws nothing.
  const auto flows = parse_flow_events(js);
  ASSERT_EQ(flows.size(), 3u);
  EXPECT_EQ(flows[0].ph, 's');
  EXPECT_EQ(flows[1].ph, 't');
  EXPECT_EQ(flows[2].ph, 'f');
  for (const auto& f : flows) EXPECT_EQ(f.id, 7u);
  EXPECT_EQ(count_of(js, "\"bp\":\"e\""), 3u);
  EXPECT_EQ(js.find("\"id\":9"), std::string::npos);

  // Idle intervals appear when asked for.
  std::ostringstream os2;
  opt.idle = true;
  telemetry::write_perfetto(os2, ivs, opt);
  EXPECT_NE(os2.str().find("\"name\":\"idle\""), std::string::npos);

  // Flow arrows vanish when disabled.
  std::ostringstream os3;
  opt.flows = false;
  telemetry::write_perfetto(os3, ivs, opt);
  EXPECT_TRUE(parse_flow_events(os3.str()).empty());
}

TEST(TelemetryPerfetto, FlowIdsAreUniqueAndPairedUnderRandomTraces) {
  std::mt19937 rng(42);
  std::uniform_int_distribution<int> lanes(0, 7);
  std::uniform_int_distribution<int> steps(1, 4);
  std::vector<Interval> ivs;
  std::map<std::uint64_t, int> expected; // task -> interval count
  double t = 0;
  for (std::uint64_t task = 1; task <= 40; ++task) {
    const int k = steps(rng);
    expected[task] = k;
    for (int i = 0; i < k; ++i) {
      const auto cat = i == 0 && k > 1      ? Category::Prefetch
                       : i + 1 == k && k > 2 ? Category::Evict
                                             : Category::Compute;
      ivs.push_back(make_iv(lanes(rng), cat, t, t + 0.001, task));
      t += 0.0015;
    }
  }

  std::ostringstream os;
  telemetry::write_perfetto(os, ivs, telemetry::PerfettoOptions{});
  const auto flows = parse_flow_events(os.str());

  std::map<std::uint64_t, std::string> phases; // in emission order
  for (const auto& f : flows) phases[f.id] += f.ph;
  for (const auto& [task, k] : expected) {
    if (k < 2) {
      EXPECT_EQ(phases.count(task), 0u) << "task " << task;
      continue;
    }
    ASSERT_EQ(phases.count(task), 1u) << "task " << task;
    // Exactly one start, one finish, k-2 steps, in that order.
    std::string want = "s";
    want += std::string(static_cast<std::size_t>(k - 2), 't');
    want += "f";
    EXPECT_EQ(phases[task], want) << "task " << task;
  }
}

// ------------------------------------------------------ flight recorder

TEST(TelemetryFlight, DepthFromEnvTakesOnlyPlainDigits) {
  ::setenv("HMR_FLIGHT_DEPTH", "16", 1);
  EXPECT_EQ(telemetry::flight_depth_from_env(8), 16u);
  ::setenv("HMR_FLIGHT_DEPTH", "5000", 1);
  EXPECT_EQ(telemetry::flight_depth_from_env(8), 1024u); // clamped
  // strtoull would read "-5" as 2^64 - 5 (clamped to 1024) and
  // saturate the overflow; both must fall back instead.
  for (const char* bad : {"-5", "+5", " 5", "99999999999999999999999",
                          "junk"}) {
    ::setenv("HMR_FLIGHT_DEPTH", bad, 1);
    EXPECT_EQ(telemetry::flight_depth_from_env(8), 8u) << bad;
  }
  ::unsetenv("HMR_FLIGHT_DEPTH");
  EXPECT_EQ(telemetry::flight_depth_from_env(8), 8u);
}

TEST(TelemetryFlight, KeepsLastNTransitionsOldestFirst) {
  telemetry::BlockFlightRecorder fr(/*depth=*/3);
  EXPECT_EQ(fr.depth(), 3u);
  for (int i = 1; i <= 5; ++i) {
    telemetry::BlockFlightRecorder::Transition t;
    t.time = i;
    t.task = static_cast<ooc::TaskId>(i);
    t.src_tier = i % 2;
    t.dst_tier = 1 - i % 2;
    t.bytes = 1024;
    t.fetch = i % 2 == 1;
    fr.record(42, t);
  }
  EXPECT_EQ(fr.total_recorded(42), 5u);
  const auto h = fr.history(42);
  ASSERT_EQ(h.size(), 3u); // ring wrapped: only the last 3 survive
  EXPECT_DOUBLE_EQ(h[0].time, 3.0);
  EXPECT_DOUBLE_EQ(h[1].time, 4.0);
  EXPECT_DOUBLE_EQ(h[2].time, 5.0);
  EXPECT_TRUE(h[2].fetch);

  // Untouched blocks have no history.
  EXPECT_TRUE(fr.history(7).empty());
  EXPECT_EQ(fr.total_recorded(7), 0u);

  std::ostringstream os;
  fr.dump_block(os, 42);
  EXPECT_FALSE(os.str().empty());
  std::ostringstream all;
  fr.dump(all);
  EXPECT_FALSE(all.str().empty());
}

TEST(TelemetryFlight, ForgetDropsABlocksHistory) {
  telemetry::BlockFlightRecorder fr(/*depth=*/4);
  telemetry::BlockFlightRecorder::Transition t;
  t.bytes = 64;
  for (int i = 0; i < 6; ++i) {
    fr.record(1, t);
    fr.record(2, t);
  }
  EXPECT_EQ(fr.tracked_blocks(), 2u);
  fr.forget(1);
  EXPECT_TRUE(fr.history(1).empty());
  EXPECT_EQ(fr.total_recorded(1), 0u);
  EXPECT_EQ(fr.tracked_blocks(), 1u);
  EXPECT_EQ(fr.history(2).size(), 4u); // the other block is untouched
  EXPECT_EQ(fr.total_recorded(2), 6u);
  fr.forget(1); // forgetting an untracked block is a no-op
  fr.forget(2);
  EXPECT_EQ(fr.tracked_blocks(), 0u);
  std::ostringstream os;
  fr.dump(os);
  EXPECT_TRUE(os.str().empty());
}

TEST(TelemetryFlight, IdsOutsideTheTableHaveNoHistory) {
  telemetry::BlockFlightRecorder fr(/*depth=*/4);
  telemetry::BlockFlightRecorder::Transition t;
  t.bytes = 64;
  const ooc::BlockId last = telemetry::BlockFlightRecorder::kMaxBlocks - 1;
  fr.record(last, t); // the table's last id is recorded
  EXPECT_EQ(fr.total_recorded(last), 1u);
  for (const ooc::BlockId b :
       {telemetry::BlockFlightRecorder::kMaxBlocks, ooc::BlockId{1} << 40,
        ooc::BlockId{1} << 63, ~ooc::BlockId{0}}) {
    fr.record(b, t);
    EXPECT_TRUE(fr.history(b).empty()) << b;
    EXPECT_EQ(fr.total_recorded(b), 0u) << b;
    fr.forget(b); // a no-op
  }
  EXPECT_EQ(fr.tracked_blocks(), 1u);
  std::ostringstream os;
  fr.dump(os);
  EXPECT_EQ(os.str(), "block " + std::to_string(last) +
                          " (1 transitions, last 1):\n  t=0 evict 0->0 "
                          "bytes=64\n");
}

TEST(TelemetryFlight, ConcurrentRecordersAndReaders) {
  // Four writers record disjoint, interleaved ids (so they share chunks
  // and cache lines) while a reader walks every read path and forgets
  // every third block once its writer is done with it.  Each record's
  // time is its index, so a snapshot is consistent exactly when its
  // times are consecutive and end at total - 1.
  constexpr std::size_t kDepth = 5;
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200; // 800 ids: four chunks
  constexpr int kRecords = 12;    // the rings wrap
  constexpr int kBlocks = kWriters * kPerWriter;
  telemetry::BlockFlightRecorder fr(kDepth);
  std::vector<std::atomic<bool>> finished(kBlocks);
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int k = 0; k < kRecords; ++k) {
        for (int j = 0; j < kPerWriter; ++j) {
          const int b = w + kWriters * j;
          telemetry::BlockFlightRecorder::Transition t;
          t.time = k;
          t.task = static_cast<ooc::TaskId>(b);
          t.fetch = k % 2 == 0;
          fr.record(static_cast<ooc::BlockId>(b), t);
          if (k + 1 == kRecords) {
            finished[static_cast<std::size_t>(b)].store(
                true, std::memory_order_release);
          }
        }
      }
      writers_left.fetch_sub(1);
    });
  }
  const auto consistent = [&](ooc::BlockId b,
                              const std::vector<
                                  telemetry::BlockFlightRecorder::Transition>&
                                  h,
                              std::uint64_t total) {
    if (h.size() != std::min<std::uint64_t>(total, kDepth)) return false;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const double want = static_cast<double>(total - h.size() + i);
      if (h[i].time != want || h[i].task != b) return false;
    }
    return true;
  };
  std::vector<bool> forgotten(kBlocks, false);
  std::mt19937 rng(7);
  int reads = 0;
  bool torn = false;
  while (writers_left.load() > 0 || reads < 200) {
    ++reads;
    const auto b = static_cast<ooc::BlockId>(rng() % kBlocks);
    // history() and total_recorded() are separate snapshots: the total
    // may only grow in between.
    const auto h = fr.history(b);
    const std::uint64_t total = fr.total_recorded(b);
    if (h.size() > kDepth ||
        (!h.empty() && static_cast<double>(total) < h.back().time + 1)) {
      torn = true;
    }
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (h[i].time != h[0].time + static_cast<double>(i) || h[i].task != b) {
        torn = true;
      }
    }
    // dump_block() reads the ring and its total in one snapshot.
    std::ostringstream os;
    fr.dump_block(os, b);
    unsigned long long n = 0, last = 0;
    ASSERT_EQ(std::sscanf(os.str().c_str(),
                          "block %*u (%llu transitions, last %llu)", &n,
                          &last),
              2)
        << os.str();
    if (last != std::min<unsigned long long>(n, kDepth)) torn = true;
    if (reads % 50 == 0) {
      std::ostringstream all;
      fr.dump(all);
      EXPECT_LE(fr.tracked_blocks(), static_cast<std::size_t>(kBlocks));
    }
    if (b % 3 == 0 && !forgotten[b] &&
        finished[b].load(std::memory_order_acquire)) {
      ASSERT_TRUE(consistent(b, fr.history(b), kRecords)) << b;
      fr.forget(b);
      forgotten[b] = true;
    }
  }
  for (auto& th : writers) th.join();
  EXPECT_FALSE(torn);
  std::size_t survivors = 0;
  for (int i = 0; i < kBlocks; ++i) {
    const auto b = static_cast<ooc::BlockId>(i);
    if (forgotten[b]) {
      EXPECT_TRUE(fr.history(b).empty()) << b;
      EXPECT_EQ(fr.total_recorded(b), 0u) << b;
      continue;
    }
    ++survivors;
    EXPECT_EQ(fr.total_recorded(b), static_cast<std::uint64_t>(kRecords))
        << b;
    EXPECT_TRUE(consistent(b, fr.history(b), kRecords)) << b;
  }
  EXPECT_EQ(fr.tracked_blocks(), survivors);
}

// ------------------------------------------------------------------ hub

TEST(TelemetryHub, AuditAddsOneLineForABadAttributionSum) {
  ooc::PolicyEngine::Config ec;
  ec.fast_capacity = 1 * MiB;
  const ooc::PolicyEngine engine(ec);
  telemetry::Hub::Options o;
  o.attrib = true;
  const telemetry::Hub hub(o);
  telemetry::TaskAttribution a;
  a.arrive = 0;
  a.start = 0.5;
  a.end = 1.0;
  a.seconds[static_cast<int>(telemetry::Bucket::Compute)] = 0.5;
  a.seconds[static_cast<int>(telemetry::Bucket::QueueWait)] = 0.5;
  hub.attribution()->record(0, a);
  EXPECT_TRUE(hub.audit(engine, 1.0, true).ok());

  a.seconds[static_cast<int>(telemetry::Bucket::QueueWait)] = 0.1;
  hub.attribution()->record(0, a);
  const telemetry::AuditReport r = hub.audit(engine, 2.0, true);
  ASSERT_EQ(r.violations.size(), 1u) << telemetry::format_audit(r);
  EXPECT_NE(r.violations[0].find("attribution buckets fail to sum"),
            std::string::npos);
  EXPECT_DOUBLE_EQ(r.time, 2.0);
  EXPECT_TRUE(r.at_quiescence);
}

TEST(TelemetryHub, WithoutARegistryExportsNothing) {
  ooc::PolicyEngine::Config ec;
  ec.fast_capacity = 1 * MiB;
  const ooc::PolicyEngine engine(ec);
  const trace::Tracer tracer(false);
  telemetry::Hub::Options o;
  o.history_depth = 8;
  o.attrib = true;
  const telemetry::Hub bare(o);
  EXPECT_EQ(bare.registry(), nullptr);
  EXPECT_EQ(bare.histograms().fetch_ns, nullptr);
  EXPECT_EQ(bare.histograms().run_q_depth, nullptr);
  EXPECT_EQ(bare.history(), nullptr);
  bare.on_quiescence(engine, tracer); // must not touch any registry

  // The same options with a registry export every shared plane.
  MetricsRegistry reg;
  o.registry = &reg;
  const telemetry::Hub hub(o);
  hub.on_quiescence(engine, tracer);
  const auto snap = reg.snapshot();
  EXPECT_NE(snap.histogram("hmr_fetch_latency_ns"), nullptr);
  EXPECT_NE(snap.counter("hmr_trace_events_dropped_total"), nullptr);
  EXPECT_NE(snap.counter("hmr_attrib_tasks_total"), nullptr);
  const auto* cap = snap.gauge("hmr_tier_capacity_bytes",
                               telemetry::prom_label("level", "0"));
  ASSERT_NE(cap, nullptr);
  EXPECT_DOUBLE_EQ(cap->value, static_cast<double>(1 * MiB));
  ASSERT_NE(hub.history(), nullptr);
  EXPECT_EQ(hub.history()->total_samples(), 1u);
}

TEST(TelemetryHub, ReadsHmrAuditOnceAtConstruction) {
  telemetry::Hub::Options o;
  o.audit = 0;
  ::setenv("HMR_AUDIT", "1", 1);
  const telemetry::Hub hub(o);
  EXPECT_TRUE(hub.audit_enabled()); // the environment beats the knob
  ::setenv("HMR_AUDIT", "0", 1);
  EXPECT_TRUE(hub.audit_enabled()); // ...but only at construction
  EXPECT_FALSE(telemetry::Hub(o).audit_enabled());
  ::unsetenv("HMR_AUDIT");
}

// ------------------------------------------------- executor integration

TEST(TelemetrySim, RegistryTracksPolicyStatsInLockstep) {
  MetricsRegistry reg;
  sim::SimConfig cfg;
  cfg.model = hw::knl_flat_all_to_all();
  cfg.model.num_pes = 8;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.fast_capacity = 64 * MiB;
  cfg.trace = true;
  cfg.metrics = &reg;
  cfg.flight_depth = 4;
  sim::SimExecutor ex(cfg);
  const auto r = ex.run(sim::StencilWorkload({.total_bytes = 128 * MiB,
                                              .num_chares = 32,
                                              .num_pes = 8,
                                              .iterations = 2}));
  ASSERT_GT(r.tasks_completed, 0u);

  const auto s = reg.snapshot();
  const auto want = [&](const char* name) {
    const auto* c = s.counter(name);
    ASSERT_NE(c, nullptr) << name;
  };
  want("hmr_policy_tasks_run_total");
  EXPECT_EQ(s.counter("hmr_policy_tasks_run_total")->value,
            r.policy.tasks_run);
  EXPECT_EQ(s.counter("hmr_policy_fetches_total")->value,
            r.policy.fetches);
  EXPECT_EQ(s.counter("hmr_policy_fetch_bytes_total")->value,
            r.policy.fetch_bytes);
  EXPECT_EQ(s.counter("hmr_policy_evicts_total")->value, r.policy.evicts);
  EXPECT_EQ(s.counter("hmr_policy_evict_bytes_total")->value,
            r.policy.evict_bytes);

  // Every executed task went through the wait histogram.
  const auto* wait = s.histogram("hmr_task_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, r.tasks_completed);

  // Transfer completions land in the latency histograms.
  const auto* fetch = s.histogram("hmr_fetch_latency_ns");
  ASSERT_NE(fetch, nullptr);
  EXPECT_GT(fetch->count, 0u);
  EXPECT_LE(fetch->count, r.policy.fetches);

  // Tier occupancy gauges exist for the fast level.
  ASSERT_NE(s.gauge("hmr_tier_capacity_bytes", "level=\"0\""), nullptr);
  EXPECT_GT(s.gauge("hmr_tier_capacity_bytes", "level=\"0\"")->value, 0.0);
  ASSERT_NE(s.counter("hmr_trace_events_dropped_total"), nullptr);

  // Flight recorder captured residency transitions.
  ASSERT_NE(ex.flight_recorder(), nullptr);
  std::ostringstream os;
  ex.flight_recorder()->dump(os);
  EXPECT_FALSE(os.str().empty());
}

TEST(TelemetryRt, MetricsAndFlightRecorderFollowRealMigrations) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 2;
  cfg.mem_scale = 1.0 / 4096;
  cfg.trace = true;
  cfg.metrics = true;
  rt::Runtime runtime(cfg);
  rt::IoHandle<std::uint64_t> h(runtime, 4096);

  constexpr int kTasks = 10;
  for (int t = 0; t < kTasks; ++t) {
    runtime.send_prefetch(t % 2, {h.dep(ooc::AccessMode::ReadWrite)},
                          [] {});
    runtime.wait_idle(); // serialize: each task fetches and evicts once
  }

  const auto st = runtime.policy_stats();
  ASSERT_NE(runtime.metrics(), nullptr);
  const auto s = runtime.metrics()->snapshot();
  EXPECT_EQ(s.counter("hmr_policy_tasks_run_total")->value, st.tasks_run);
  EXPECT_EQ(s.counter("hmr_policy_fetches_total")->value, st.fetches);
  EXPECT_EQ(s.counter("hmr_policy_evicts_total")->value, st.evicts);

  const auto* wait = s.histogram("hmr_task_wait_ns");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, st.tasks_run);
  const auto* fetch = s.histogram("hmr_fetch_latency_ns");
  ASSERT_NE(fetch, nullptr);
  EXPECT_EQ(fetch->count, st.fetches);
  const auto* evict = s.histogram("hmr_evict_latency_ns");
  ASSERT_NE(evict, nullptr);
  EXPECT_EQ(evict->count, st.evicts);

  ASSERT_NE(s.counter("hmr_trace_events_dropped_total"), nullptr);
  ASSERT_NE(s.gauge("hmr_tier_used_bytes", "level=\"0\""), nullptr);

  // The flight recorder (always on) replays the block's path: a
  // fetch/evict alternation ending in the quiescence eviction.
  ASSERT_NE(runtime.flight_recorder(), nullptr);
  EXPECT_EQ(runtime.flight_recorder()->total_recorded(h.id()),
            st.fetches + st.evicts);
  const auto hist = runtime.flight_recorder()->history(h.id());
  ASSERT_EQ(hist.size(), runtime.flight_recorder()->depth());
  for (std::size_t i = 1; i < hist.size(); ++i) {
    EXPECT_NE(hist[i].fetch, hist[i - 1].fetch);
    EXPECT_GE(hist[i].time, hist[i - 1].time);
  }
  EXPECT_FALSE(hist.back().fetch); // last move was the final evict
}

TEST(TelemetryRt, MetricsAreOptIn) {
  rt::Runtime::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 2;
  cfg.mem_scale = 1.0 / 4096;
  rt::Runtime runtime(cfg);
  EXPECT_EQ(runtime.metrics(), nullptr);
  runtime.send(0, [] {});
  runtime.wait_idle();
}

} // namespace
} // namespace hmr
