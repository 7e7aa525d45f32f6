// Micro-benchmarks (google-benchmark) for the hot paths of the
// runtime: arena allocation, pooled buffers, real memcpy by size,
// policy-engine event handling, transfer-channel updates, and the
// event queue.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "adapt/block_profiler.hpp"
#include "adapt/placement_advisor.hpp"
#include "mem/arena.hpp"
#include "mem/chunked_copy.hpp"
#include "mem/copy_kernel.hpp"
#include "rt/ci_parser.hpp"
#include "sim/sim_executor.hpp"
#include "sim/stencil_workload.hpp"
#include "telemetry/attrib.hpp"
#include "telemetry/decision_log.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/history.hpp"
#include "telemetry/metrics.hpp"
#include "trace/tracer.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/policy_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/transfer_channel.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace hmr;

void BM_ArenaAllocFree(benchmark::State& state) {
  mem::TierArena arena("t", 64 * MiB);
  const auto sz = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    void* p = arena.alloc(sz);
    benchmark::DoNotOptimize(p);
    arena.free(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaAllocFree)->Arg(256)->Arg(4096)->Arg(1 << 20);

void BM_ArenaFragmentedAlloc(benchmark::State& state) {
  // Allocate through a checkerboard of live allocations.
  mem::TierArena arena("t", 64 * MiB);
  std::vector<void*> keep;
  for (int i = 0; i < 512; ++i) {
    void* a = arena.alloc(32 * KiB);
    void* b = arena.alloc(32 * KiB);
    keep.push_back(a);
    arena.free(b);
  }
  for (auto _ : state) {
    void* p = arena.alloc(16 * KiB);
    benchmark::DoNotOptimize(p);
    arena.free(p);
  }
  for (void* p : keep) arena.free(p);
}
BENCHMARK(BM_ArenaFragmentedAlloc);

void BM_MigrateRoundTrip(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  const bool pool = state.range(1) != 0;
  mem::MemoryManager mm({{"DDR4", 128 * MiB}, {"MCDRAM", 128 * MiB}}, pool);
  const auto b = mm.register_block(bytes, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mm.migrate(b, 1).ok);
    benchmark::DoNotOptimize(mm.migrate(b, 0).ok);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MigrateRoundTrip)
    ->Args({64 * KiB, 0})
    ->Args({64 * KiB, 1})
    ->Args({1 << 20, 0})
    ->Args({1 << 20, 1})
    ->Args({16 << 20, 0})
    ->Args({16 << 20, 1});

void BM_RawMemcpy(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<char> src(bytes, 1), dst(bytes);
  for (auto _ : state) {
    std::memcpy(dst.data(), src.data(), bytes);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_RawMemcpy)->Arg(4 * KiB)->Arg(256 * KiB)->Arg(16 << 20);

void BM_CopyKernel(benchmark::State& state) {
  // mem::copy dispatched kernel vs BM_RawMemcpy above; range(1) forces
  // streaming stores on/off so the NT threshold tradeoff is visible at
  // each size.
  const auto bytes = static_cast<std::size_t>(state.range(0));
  const auto stream =
      state.range(1) != 0 ? mem::Stream::Always : mem::Stream::Never;
  std::vector<char> src(bytes, 1), dst(bytes);
  for (auto _ : state) {
    mem::copy(dst.data(), src.data(), bytes, stream);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
  state.SetLabel(mem::copy_impl_name(mem::copy_impl()));
}
BENCHMARK(BM_CopyKernel)
    ->Args({4 * KiB, 0})
    ->Args({256 * KiB, 0})
    ->Args({256 * KiB, 1})
    ->Args({16 << 20, 0})
    ->Args({16 << 20, 1});

void BM_PolicyTaskCycle(benchmark::State& state) {
  // One full task lifecycle (arrive -> fetch -> run -> complete ->
  // evict) through the engine, MultiIo.
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 4;
  cfg.fast_capacity = 1 * GiB;
  ooc::PolicyEngine eng(cfg);
  eng.add_block(0, 1 * MiB);
  ooc::TaskId next = 1;
  for (auto _ : state) {
    ooc::TaskDesc t;
    t.id = next++;
    t.pe = 0;
    t.deps = {{0, ooc::AccessMode::ReadWrite}};
    auto c1 = eng.on_task_arrived(t);
    auto c2 = eng.on_fetch_complete(0);
    auto c3 = eng.on_task_complete(t.id);
    auto c4 = eng.on_evict_complete(0);
    benchmark::DoNotOptimize(c1.size() + c2.size() + c3.size() + c4.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyTaskCycle);

void BM_ChunkedMigrateRoundTrip(benchmark::State& state) {
  // BM_MigrateRoundTrip with the copy streamed through the ChunkRing
  // (256 KiB chunks), with 0 or 2 helper threads assisting.  Compare
  // against BM_MigrateRoundTrip at the same size for the chunking
  // overhead / cooperation speedup.
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  const int n_helpers = static_cast<int>(state.range(1));
  mem::MemoryManager mm({{"DDR4", 128 * MiB}, {"MCDRAM", 128 * MiB}});
  mm.set_chunked_copy(/*threshold=*/1 * MiB, /*chunk=*/256 * KiB);
  const auto b = mm.register_block(bytes, 0);
  std::atomic<bool> stop{false};
  std::vector<std::thread> helpers;
  for (int h = 0; h < n_helpers; ++h) {
    helpers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (mm.assist_copies() == 0) std::this_thread::yield();
      }
    });
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mm.migrate(b, 1).ok);
    benchmark::DoNotOptimize(mm.migrate(b, 0).ok);
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ChunkedMigrateRoundTrip)
    ->Args({4 << 20, 0})
    ->Args({4 << 20, 2})
    ->Args({16 << 20, 0})
    ->Args({16 << 20, 2})
    ->UseRealTime();

void BM_BlockProfilerAccess(benchmark::State& state) {
  // Per-access cost of the hotness/reuse sketch, over more live blocks
  // than top_k so the space-saving takeover path is exercised too.
  adapt::BlockProfiler prof({.top_k = 256});
  Xoshiro256 rng(11);
  for (auto _ : state) {
    const auto b = static_cast<ooc::BlockId>(rng.below(1024));
    prof.on_access(b, 1 * MiB, ooc::AccessMode::ReadOnly);
    benchmark::DoNotOptimize(prof.ticks());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BlockProfilerAccess);

void BM_PolicyTaskCycleAdaptive(benchmark::State& state) {
  // BM_PolicyTaskCycle with the adaptive subsystem in the loop: the
  // profiler fed per arrival and a PlacementAdvisor installed on the
  // engine.  The delta against BM_PolicyTaskCycle is the guidance
  // overhead per engine step (acceptance: < 2%).
  ooc::PolicyEngine::Config cfg;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.num_pes = 4;
  cfg.fast_capacity = 1 * GiB;
  ooc::PolicyEngine eng(cfg);
  eng.add_block(0, 1 * MiB);
  adapt::BlockProfiler prof({.top_k = 256});
  adapt::PlacementAdvisor advisor(
      prof, adapt::AdvisorConfig::from_model(hw::knl_flat_all_to_all()));
  eng.set_advisor(&advisor);
  ooc::TaskId next = 1;
  for (auto _ : state) {
    ooc::TaskDesc t;
    t.id = next++;
    t.pe = 0;
    t.deps = {{0, ooc::AccessMode::ReadWrite}};
    prof.on_task_arrived(t, [](ooc::BlockId) { return 1 * MiB; });
    auto c1 = eng.on_task_arrived(t);
    auto c2 = eng.on_fetch_complete(0);
    auto c3 = eng.on_task_complete(t.id);
    auto c4 = eng.on_evict_complete(0);
    benchmark::DoNotOptimize(c1.size() + c2.size() + c3.size() + c4.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyTaskCycleAdaptive);

void BM_TransferChannelUpdate(benchmark::State& state) {
  const auto flows = static_cast<std::uint64_t>(state.range(0));
  sim::TransferChannel ch(10.0 * GB, 40.0 * GB);
  double t = 0;
  std::uint64_t id = 0;
  for (std::uint64_t i = 0; i < flows; ++i) {
    (void)ch.advance(t);
    ch.add_flow(id++, 1e18, t); // effectively never completes
  }
  for (auto _ : state) {
    t += 1e-6;
    benchmark::DoNotOptimize(ch.advance(t));
  }
}
BENCHMARK(BM_TransferChannelUpdate)->Arg(1)->Arg(16)->Arg(64);

void BM_EventQueue(benchmark::State& state) {
  sim::EventQueue eq;
  Xoshiro256 rng(1);
  double base = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      eq.at(base + rng.uniform(), [] {});
    }
    while (!eq.empty()) {
      auto [tt, fn] = eq.pop();
      fn();
      base = tt;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(BM_EventQueue);

void BM_CiParse(benchmark::State& state) {
  const std::string src = R"(
    module Stencil {
      entry [prefetch] void exchange() [readonly: cur, writeonly: ghosts];
      entry [prefetch] void update()
          [readonly: cur, readonly: ghosts, writeonly: next];
      entry void converged();
    };
  )";
  for (auto _ : state) {
    auto r = hmr::rt::parse_ci(src);
    benchmark::DoNotOptimize(r.file->modules.size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
}
BENCHMARK(BM_CiParse);

void BM_TracerRecord(benchmark::State& state) {
  // The lock-free ring fast path (acceptance: <= ~50 ns/event).  The
  // ring is drained from the timed loop's own thread every 4k events —
  // the executor's windowed-summary cadence — so the steady state is
  // try_push succeeding, not the drop path.
  trace::Tracer t;
  double now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    t.record(0, trace::Category::Compute, now, now + 1e-4, 1);
    now += 1e-4;
    if ((++i & 4095) == 0) t.clear();
  }
  if (t.dropped() > 0) {
    state.SkipWithError("ring dropped events on the fast path");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecord);

void BM_TracerRecordDrop(benchmark::State& state) {
  // The overflow path: a tiny ring that is never drained, so every
  // record after the first few is a wait-free drop (one CAS-free
  // sequence load + one relaxed counter increment).
  trace::Tracer::Options opt;
  opt.ring_capacity = 8;
  trace::Tracer t(true, opt);
  double now = 0;
  for (auto _ : state) {
    t.record(0, trace::Category::Compute, now, now + 1e-4, 1);
    now += 1e-4;
  }
  // Calibration runs may be shorter than the ring; only a measured
  // run long enough to wrap proves the drop path engaged.
  if (state.iterations() > 64 && t.dropped() == 0) {
    state.SkipWithError("expected the drop path to engage");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordDrop);

void BM_AttribRecord(benchmark::State& state) {
  // AttributionTable::record on an uncontended shard — the per-task
  // cost the executors add on top of the 22 ns trace record
  // (acceptance: <= ~30 ns/task).  The record carries the typical
  // shape of a stencil task: two covered tier pairs and two waited-on
  // blocks.
  telemetry::AttributionTable::Options opt;
  opt.shards = 1;
  telemetry::AttributionTable table(opt);
  telemetry::TaskAttribution a;
  a.pe = 0;
  a.phase = 3;
  a.arrive = 0;
  a.start = 1e-4;
  a.end = 3e-4;
  a.seconds[static_cast<int>(telemetry::Bucket::Compute)] = 2e-4;
  a.seconds[static_cast<int>(telemetry::Bucket::FetchWait)] = 6e-5;
  a.seconds[static_cast<int>(telemetry::Bucket::QueueWait)] = 4e-5;
  a.pairs = {{0, 1, 4e-5}, {2, 1, 2e-5}};
  a.blocks = {{7, 4e-5}, {9, 2e-5}};
  std::uint64_t id = 0;
  for (auto _ : state) {
    a.task = ++id;
    table.record(0, a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AttribRecord);

void BM_TracerRecordMT(benchmark::State& state) {
  // Concurrent producers, one lane each (the executor's layout: no
  // cross-lane contention on the rings).  Thread 0 doubles as the
  // drain consumer.
  static trace::Tracer t; // shared across the benchmark's threads
  const auto lane = static_cast<std::int32_t>(state.thread_index());
  double now = 0;
  std::uint64_t i = 0;
  for (auto _ : state) {
    t.record(lane, trace::Category::Compute, now, now + 1e-4, 1);
    now += 1e-4;
    if (state.thread_index() == 0 && (++i & 4095) == 0) t.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerRecordMT)->Threads(4)->UseRealTime();

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram h;
  std::uint64_t v = 1;
  for (auto _ : state) {
    h.observe(v);
    v = (v * 2862933555777941757ull + 3037000493ull) >> 8; // cheap lcg
  }
  benchmark::DoNotOptimize(h.count());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

void BM_FlightRecorderRecord(benchmark::State& state) {
  telemetry::BlockFlightRecorder fr(8);
  Xoshiro256 rng(5);
  double now = 0;
  for (auto _ : state) {
    const auto b = static_cast<ooc::BlockId>(rng.below(512));
    fr.record(b, {now, 1, 0, 1, 1 * MiB, true});
    now += 1e-6;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_HistoryBufferSample(benchmark::State& state) {
  // One full registry sample into the history ring at a realistic
  // instrument population (the runtime's /metrics page is ~40 series).
  // Samples happen at quiescence ticks / iteration boundaries, so this
  // per-call cost bounds the history plane's overhead there.
  telemetry::MetricsRegistry reg;
  for (int i = 0; i < 32; ++i) {
    reg.counter("bench_counter_" + std::to_string(i), "").add(i);
    reg.gauge("bench_gauge_" + std::to_string(i), "").set(i * 1.5);
  }
  telemetry::Histogram& h = reg.histogram("bench_hist", "");
  for (int i = 0; i < 1000; ++i) h.observe(static_cast<std::uint64_t>(i));
  telemetry::HistoryBuffer hist(reg, 240);
  double now = 0;
  hist.set_clock([&now] { return now; });
  for (auto _ : state) {
    now += 0.1;
    hist.sample();
  }
  benchmark::DoNotOptimize(hist.total_samples());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistoryBufferSample);

void BM_DecisionLogRecord(benchmark::State& state) {
  // Seqlock-ring decision append — the cost the advisor/governor pay
  // per recorded decision (acceptance: history + decision logging
  // <= 2% on rt_contention).
  telemetry::DecisionLog log(1024);
  double now = 0;
  log.set_clock([&now] { return now; });
  adapt::DecisionEvent e;
  e.kind = adapt::DecisionKind::AdvisePin;
  e.bytes = 1 * MiB;
  e.hotness = 3.5;
  e.break_even = 2.0;
  e.pin = true;
  for (auto _ : state) {
    now += 1e-6;
    e.block = static_cast<ooc::BlockId>(log.total_recorded() % 512);
    log.record(e);
  }
  benchmark::DoNotOptimize(log.total_recorded());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DecisionLogRecord);

void BM_Xoshiro(benchmark::State& state) {
  Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Xoshiro);

void BM_SimStencilIteration(benchmark::State& state) {
  // Wall-clock cost of simulating one full out-of-core stencil
  // iteration (events, channel updates, engine steps) — the DES's own
  // overhead, not the modeled time.
  for (auto _ : state) {
    sim::StencilWorkload w({.total_bytes = 256u << 20,
                            .num_chares = 128,
                            .num_pes = 16,
                            .iterations = 1});
    sim::SimConfig cfg;
    cfg.model = hmr::hw::knl_flat_all_to_all();
    cfg.model.num_pes = 16;
    cfg.strategy = hmr::ooc::Strategy::MultiIo;
    cfg.fast_capacity = 128u << 20;
    sim::SimExecutor ex(cfg);
    benchmark::DoNotOptimize(ex.run(w).total_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128);
}
BENCHMARK(BM_SimStencilIteration);

void BM_SimStencilIterationAdaptive(benchmark::State& state) {
  // BM_SimStencilIteration with the full adaptive subsystem engaged
  // (profiler on every arrival, advisor on the engine, governor at
  // the iteration boundary).  The delta against the plain version is
  // the guidance overhead per simulated engine step (acceptance:
  // < 2% wall clock).
  for (auto _ : state) {
    sim::StencilWorkload w({.total_bytes = 256u << 20,
                            .num_chares = 128,
                            .num_pes = 16,
                            .iterations = 1});
    sim::SimConfig cfg;
    cfg.model = hmr::hw::knl_flat_all_to_all();
    cfg.model.num_pes = 16;
    cfg.strategy = hmr::ooc::Strategy::MultiIo;
    cfg.fast_capacity = 128u << 20;
    cfg.adaptive = true;
    cfg.profiler_cfg.top_k = 256;
    sim::SimExecutor ex(cfg);
    benchmark::DoNotOptimize(ex.run(w).total_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          128);
}
BENCHMARK(BM_SimStencilIterationAdaptive);

} // namespace

BENCHMARK_MAIN();
