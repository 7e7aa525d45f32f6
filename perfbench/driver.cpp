// perfbench_driver: one workload of the end-to-end benchmark, run on
// rt::Runtime with 2 PEs under MultiIo + eager eviction (the sharded
// engine hot path: 2 worker + 2 IO threads, the driver thread blocked in
// wait_idle or a reduction while they run).
//
// It prints one JSON record per line and leaves all statistics to
// run.py, which builds this program, runs it, survives its crashes and
// prints the benchmark's result line.  Records:
//
//   {"rec":"plan", ...}    steps per rep, before any work;
//   {"rec":"rep", ...}     one per completed rep: set-up seconds, timed
//                          wall, every step's latency, the correctness
//                          verdict and the exact counters of its timed
//                          steps;
//   {"rec":"layers", ...}  --mode layers: the per-layer figures;
//   {"rec":"audit", ...}   --mode audit: the number of audits run;
//   {"rec":"end", ...}     host reference timings and the VmHWM line.
//
// A rep is: construct the runtime and the app, fill the blocks, run the
// warm-up steps (all of that is "set-up"), then the timed steps, then
// the untimed correctness check.  Every counter a rep reports is the
// difference between snapshots taken when its timed steps start and when
// they end, so it covers exactly the work wall_s times and must repeat
// exactly across reps.
//
// Modes:
//   timed   reps until --seconds have passed (at least kMinReps);
//           tracing and metrics off.
//   layers  untraced and traced reps alternated (U T U T), plus the
//           isolated replays of single layers; traced reps turn on
//           Config::trace, metrics and lock_stats.
//   audit   one short rep with Config::audit = 1 (invariants checked at
//           every wait_idle; a violation aborts the process).
//
// Usage: perfbench_driver --workload W --seed N [--mode timed|layers|audit]
//          [--seconds S]

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "apps/block_matmul.hpp"
#include "apps/cg_solver.hpp"
#include "apps/reference.hpp"
#include "mem/copy_kernel.hpp"
#include "mem/memory_manager.hpp"
#include "ooc/tier_budget.hpp"
#include "rt/runtime.hpp"
#include "rt/sharded_engine.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace {

using namespace hmr;

constexpr int kPes = 2;
/// Timed mode runs at least this many reps, however long they take.
constexpr int kMinReps = 5;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- JSON

/// Minimal line-oriented JSON writer: numbers keep all their digits.
class Json {
public:
  Json& key(const char* k) {
    sep();
    os_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    os_ << buf;
    fresh_ = false;
    return *this;
  }
  Json& str(const std::string& s) {
    os_ << '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        os_ << '\\' << c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        os_ << ' ';
      } else {
        os_ << c;
      }
    }
    os_ << '"';
    fresh_ = false;
    return *this;
  }
  Json& arr(const std::vector<double>& v) {
    os_ << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) os_ << ',';
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.9g", v[i]);
      os_ << buf;
    }
    os_ << ']';
    fresh_ = false;
    return *this;
  }
  /// Print as one line and flush, so a later crash cannot lose it.
  void emit() {
    std::printf("{%s}\n", os_.str().c_str());
    std::fflush(stdout);
  }

private:
  void sep() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  std::ostringstream os_;
  bool fresh_ = true;
};

// ------------------------------------------------------------ options

enum class Mode { Timed, Layers, Audit };

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  Mode mode = Mode::Timed;
  double seconds = 10;
};

/// Knobs that vary between the reps of one process.
struct RepOpts {
  bool trace = false; // Config::trace + metrics + lock_stats
  bool audit = false; // Config::audit = 1
  bool tenants = true; // register the workload's tenants, if any
  int steps = 0;       // timed steps of this rep
};

/// Sum of MemoryManager::migration_stats over every ordered tier pair.
std::uint64_t migrated_bytes(const mem::MemoryManager& mm) {
  std::uint64_t sum = 0;
  for (hw::TierId s = 0; s < mm.num_tiers(); ++s) {
    for (hw::TierId d = 0; d < mm.num_tiers(); ++d) {
      if (s != d) sum += mm.migration_stats(s, d).bytes;
    }
  }
  return sum;
}

/// The runtime's cumulative counters at one instant.  A rep reads them
/// when its timed steps start and when they end (before the correctness
/// check) and reports the difference.  tasks, fetches and bytes_moved
/// are exact: fixed work must reproduce them bit for bit.
struct Counters {
  std::uint64_t tasks = 0, fetches = 0, bytes_moved = 0;
  std::uint64_t evicts = 0, dedup = 0, steals = 0;
  std::uint64_t chunks = 0, chunks_assisted = 0;
  std::uint64_t admitted = 0, deferred = 0, rejected = 0;
  // Traced reps only (attribution and lock statistics are off otherwise).
  double queue_wait_s = 0, fetch_wait_s = 0;
  std::uint64_t attrib_violations = 0;
  trace::ContentionStats::Totals locks;

  static Counters read(rt::Runtime& rt) {
    Counters c;
    const auto st = rt.policy_stats();
    c.tasks = rt.tasks_executed();
    c.fetches = st.fetches;
    c.bytes_moved = migrated_bytes(rt.memory());
    c.evicts = st.evicts;
    c.dedup = st.fetch_dedup_hits;
    c.steals = rt.budget_steals();
    c.chunks = rt.memory().chunk_ring().chunks_copied();
    c.chunks_assisted = rt.memory().chunk_ring().chunks_assisted();
    if (const auto* ten = rt.tenancy()) {
      for (const auto& s : ten->snapshots()) {
        c.admitted += s.admitted;
        c.deferred += s.deferred;
        c.rejected += s.rejected;
      }
    }
    if (const auto* at = rt.attribution()) {
      const auto roll = at->rollup();
      c.queue_wait_s =
          roll.seconds[static_cast<int>(telemetry::Bucket::QueueWait)];
      c.fetch_wait_s =
          roll.seconds[static_cast<int>(telemetry::Bucket::FetchWait)];
      c.attrib_violations = roll.sum_violations;
    }
    if (const auto* ls = rt.lock_stats()) c.locks = ls->totals();
    return c;
  }

  Counters operator-(const Counters& o) const {
    Counters d;
    d.tasks = tasks - o.tasks;
    d.fetches = fetches - o.fetches;
    d.bytes_moved = bytes_moved - o.bytes_moved;
    d.evicts = evicts - o.evicts;
    d.dedup = dedup - o.dedup;
    d.steals = steals - o.steals;
    d.chunks = chunks - o.chunks;
    d.chunks_assisted = chunks_assisted - o.chunks_assisted;
    d.admitted = admitted - o.admitted;
    d.deferred = deferred - o.deferred;
    d.rejected = rejected - o.rejected;
    d.queue_wait_s = queue_wait_s - o.queue_wait_s;
    d.fetch_wait_s = fetch_wait_s - o.fetch_wait_s;
    d.attrib_violations = attrib_violations - o.attrib_violations;
    d.locks.acquisitions = locks.acquisitions - o.locks.acquisitions;
    d.locks.contended = locks.contended - o.locks.contended;
    d.locks.wait_s = locks.wait_s - o.locks.wait_s;
    return d;
  }
};

/// The runtime every workload runs on: 2 PEs, MultiIo, eager eviction,
/// a two-tier KNL-shaped node with the given fast and slow capacities.
/// The fast arena is the engine's byte budget, as the runtime sets it up
/// by default.
rt::Runtime::Config runtime_config(std::uint64_t fast_bytes,
                                   std::uint64_t slow_bytes,
                                   const RepOpts& o) {
  rt::Runtime::Config cfg;
  cfg.model = hw::knl_flat_all_to_all();
  cfg.model.tiers[cfg.model.fast].capacity = fast_bytes;
  cfg.model.tiers[cfg.model.slow].capacity = slow_bytes;
  cfg.mem_scale = 1.0;
  cfg.num_pes = kPes;
  cfg.strategy = ooc::Strategy::MultiIo;
  cfg.eager_evict = true;
  cfg.audit = o.audit ? 1 : 0;
  cfg.trace = o.trace;
  cfg.metrics = o.trace;
  cfg.lock_stats = o.trace;
  if (o.trace) cfg.trace_opts.ring_capacity = 1u << 16;
  return cfg;
}

// ------------------------------------------------- engine replay shape

/// A workload's dependency shape for the isolated ShardedEngine
/// replay: block sizes plus waves of tasks (a wave drains before the
/// next one arrives, as the apps separate waves with wait_idle).
struct Shape {
  struct Task {
    std::int32_t pe = 0;
    std::vector<std::pair<std::size_t, ooc::AccessMode>> deps;
  };
  std::vector<std::uint64_t> blocks;
  std::vector<std::vector<Task>> waves;
};

// ------------------------------------------------------------ workloads

/// One benchmark workload.  The object lives for the whole process
/// (it caches the serial reference); build()/teardown() bracket a rep.
class Workload {
public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Fast-tier capacity: the arena and the engine's byte budget.
  virtual std::uint64_t fast_bytes() const = 0;
  virtual std::uint64_t slow_bytes() const = 0;
  virtual int warmup_steps() const = 0;
  virtual int steps_per_rep() const = 0;
  /// Construct the app on `rt` and fill its blocks.
  virtual void build(rt::Runtime& rt, const RepOpts& o) = 0;
  /// One step; returns its latency in seconds.
  virtual double step() = 0;
  /// Called between the warm-up and the timed steps.
  virtual void start_timing() {}
  /// Untimed output check after `total_steps` steps (warm-up included);
  /// "" when correct, else the first discrepancy.
  virtual std::string check(int total_steps) = 0;
  virtual void teardown() = 0;
  /// Operations the app kernels perform per step (computed).
  virtual double flops_per_step() const = 0;
  /// Block size that dominates migration traffic.
  virtual std::uint64_t dominant_bytes() const = 0;
  virtual Shape shape() const = 0;
  /// Seconds the plain single-threaded reference took (0 until run).
  double serial_ref_s() const { return serial_ref_s_; }
  /// The tenants to register (none: single-tenant runtime).
  virtual serve::ServeConfig serve_config() const { return {}; }
  /// tenant_mix only, over the timed steps: per-task latencies and the
  /// driver-timed send_prefetch_batch / wait_idle calls.
  virtual std::vector<double> task_latencies() const { return {}; }
  virtual std::vector<double> send_times() const { return {}; }
  virtual std::vector<double> wait_times() const { return {}; }

protected:
  double serial_ref_s_ = 0;
};

// ---- cg_fine: fine-grained CgSolver ----------------------------------

/// 256^2 Poisson problem over 8 strips: 64 KiB vectors, 2 KiB ghost
/// rows, 4 waves (4 wait_idle barriers, 2 reductions) per iteration.
/// CgSolver exposes only a whole solve(), so a step is the solve() of a
/// fresh solver with max_iterations = kStepIterations and tolerance 0:
/// the same waves and per-iteration traffic as any later iterations
/// (eager eviction returns every block to the slow tier after each
/// wave).  Four iterations per step: shorter steps spread no less from
/// run to run, and eight-iteration steps, with half the reps per run,
/// spread more (perfbench/METRICS.md).  The solver's blocks are freed
/// after the step.  Each rep also runs one untimed 50-iteration solve
/// checked against CgSolver::serial_solve.
class CgFine final : public Workload {
public:
  explicit CgFine(std::uint64_t seed) {
    p_.n = 256;
    p_.strips = 8;
    p_.max_iterations = kStepIterations;
    p_.tolerance = 0;
    p_.seed = seed;
  }
  std::uint64_t fast_bytes() const override { return 4 * MiB; }
  std::uint64_t slow_bytes() const override { return 32 * MiB; }
  int warmup_steps() const override { return 20; }
  int steps_per_rep() const override { return 200; }
  void build(rt::Runtime& rt, const RepOpts&) override {
    rt_ = &rt;
    next_block_ = 0;
    steps_ = 0;
    step_error_.clear();
  }
  double step() override {
    const mem::BlockId first = next_block_;
    auto solver = std::make_unique<apps::CgSolver>(*rt_, p_);
    next_block_ += kBlocksPerStrip * static_cast<mem::BlockId>(p_.strips);
    const double t0 = now_s();
    const apps::CgResult res = solver->solve();
    const double dt = now_s() - t0;
    // Spot-check every 64th step; check() adds the multi-iteration
    // solve.
    if (step_error_.empty() && steps_++ % 64 == 0) {
      if (res.iterations != kStepIterations) {
        step_error_ = "cg: step ran " + std::to_string(res.iterations) +
                      " iterations";
      } else {
        step_error_ = compare(solver->solution(), step_ref());
      }
    }
    solver.reset();
    release(first);
    return dt;
  }
  std::string check(int) override {
    if (!step_error_.empty()) return step_error_;
    // The multi-iteration check: fixed iteration count, tolerance 0.
    apps::CgParams deep = p_;
    deep.max_iterations = kDeepIterations;
    const mem::BlockId first = next_block_;
    auto solver = std::make_unique<apps::CgSolver>(*rt_, deep);
    next_block_ += kBlocksPerStrip * static_cast<mem::BlockId>(p_.strips);
    const apps::CgResult res = solver->solve();
    std::string err;
    if (res.iterations != kDeepIterations) {
      err = "cg: deep solve stopped early";
    } else {
      err = compare(solver->solution(), deep_ref(solver->rhs()));
    }
    solver.reset();
    release(first);
    return err;
  }
  void teardown() override { rt_ = nullptr; }
  double flops_per_step() const override {
    // matvec 5 + dot 2, update 4 + dot 2, direction 2 per unknown.
    return 15.0 * p_.n * p_.n * kStepIterations;
  }
  std::uint64_t dominant_bytes() const override {
    return static_cast<std::uint64_t>(p_.n / p_.strips) * p_.n *
           sizeof(double);
  }
  Shape shape() const override {
    // Per strip: x r p ap (vectors), ghost_up, ghost_down.
    Shape s;
    const int n = p_.strips;
    for (int i = 0; i < n; ++i) {
      for (int k = 0; k < 4; ++k) s.blocks.push_back(dominant_bytes());
      s.blocks.push_back(static_cast<std::uint64_t>(p_.n) * 8);
      s.blocks.push_back(static_cast<std::uint64_t>(p_.n) * 8);
    }
    auto b = [](int strip, int k) {
      return static_cast<std::size_t>(strip * kBlocksPerStrip + k);
    };
    using M = ooc::AccessMode;
    std::vector<Shape::Task> ex, mv, up, dir;
    for (int i = 0; i < n; ++i) {
      const std::int32_t pe = i % kPes;
      Shape::Task e{pe, {{b(i, 2), M::ReadOnly}}};
      if (i > 0) e.deps.push_back({b(i - 1, 5), M::WriteOnly});
      if (i + 1 < n) e.deps.push_back({b(i + 1, 4), M::WriteOnly});
      ex.push_back(e);
      mv.push_back({pe,
                    {{b(i, 2), M::ReadOnly},
                     {b(i, 4), M::ReadOnly},
                     {b(i, 5), M::ReadOnly},
                     {b(i, 3), M::WriteOnly}}});
      up.push_back({pe,
                    {{b(i, 0), M::ReadWrite},
                     {b(i, 1), M::ReadWrite},
                     {b(i, 2), M::ReadOnly},
                     {b(i, 3), M::ReadOnly}}});
      dir.push_back({pe, {{b(i, 2), M::ReadWrite}, {b(i, 1), M::ReadOnly}}});
    }
    s.waves = {ex, mv, up, dir};
    return s;
  }

private:
  static constexpr mem::BlockId kBlocksPerStrip = 6;
  static constexpr int kStepIterations = 4;
  static constexpr int kDeepIterations = 50;

  /// Free a finished solver's blocks.  CgSolver allocates exactly
  /// kBlocksPerStrip blocks per strip and never frees them; block ids
  /// are dense and sequential per runtime (Runtime::alloc_block checks
  /// it), so they are [first, first + 6 * strips).
  void release(mem::BlockId first) {
    for (mem::BlockId b = first; b < next_block_; ++b) {
      const std::uint64_t want =
          (b - first) % kBlocksPerStrip < 4
              ? dominant_bytes()
              : static_cast<std::uint64_t>(p_.n) * sizeof(double);
      HMR_CHECK_MSG(rt_->memory().block_bytes(b) == want,
                    "cg: solver block ids are not where expected");
      rt_->free_block(b);
    }
  }
  static std::string compare(const std::vector<double>& got,
                             const std::vector<double>& want) {
    if (got.size() != want.size()) return "cg: solution size differs";
    double scale = 1, err = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
      scale = std::max(scale, std::abs(want[i]));
      err = std::max(err, std::abs(got[i] - want[i]));
    }
    if (err > 1e-7 * scale) {
      return "cg: |x - serial_solve| = " + std::to_string(err);
    }
    return "";
  }
  const std::vector<double>& step_ref() {
    if (ref1_.empty()) {
      std::vector<double> b(static_cast<std::size_t>(p_.n) * p_.n);
      apps::fill_pattern(b.data(), b.size(), p_.seed);
      apps::CgSolver::serial_solve(b, p_.n, kStepIterations, 0, ref1_);
    }
    return ref1_;
  }
  const std::vector<double>& deep_ref(const std::vector<double>& b) {
    if (ref_deep_.empty()) {
      const double t0 = now_s();
      apps::CgSolver::serial_solve(b, p_.n, kDeepIterations, 0, ref_deep_);
      serial_ref_s_ = now_s() - t0;
    }
    return ref_deep_;
  }

  apps::CgParams p_;
  rt::Runtime* rt_ = nullptr;
  mem::BlockId next_block_ = 0;
  int steps_ = 0;
  std::string step_error_;
  std::vector<double> ref1_, ref_deep_;
};

// ---- tenant_mix: two tenants through src/serve ------------------------

/// Two tenants submitted by the driver through send_prefetch_batch, one
/// round per step, then wait_idle:
///   "lat"   LatencySLO: 64 blocks of 16 KiB; per PE per round 8 short
///           read-write tasks, x[i] += inc;
///   "batch" Batch: 8 read-only input and 8 read-write output blocks of
///           1 MiB; per PE per round 1 streaming task, out[i] += in[i].
/// Batch tasks are queued first so the latency tenant's tasks contend.
/// Values are small integers, so every block's final contents follow
/// exactly from the deterministic increments.  Without tenants (the
/// serve.untenanted_* figures) the same traffic runs untagged.
class TenantMix final : public Workload {
public:
  explicit TenantMix(std::uint64_t seed) : seed_(seed) {
    Xoshiro256 rng(seed);
    lat_inc_.resize(kLatBlocks);
    for (auto& v : lat_inc_) v = static_cast<double>(1 + rng() % 7);
  }
  std::uint64_t fast_bytes() const override { return 16 * MiB; }
  std::uint64_t slow_bytes() const override { return 48 * MiB; }
  int warmup_steps() const override { return 10; }
  int steps_per_rep() const override { return 250; }
  void build(rt::Runtime& rt, const RepOpts& o) override {
    rt_ = &rt;
    tenants_ = o.tenants;
    rounds_ = 0;
    lat_.clear();
    in_.clear();
    out_.clear();
    start_timing();
    Xoshiro256 rng(seed_ ^ 0x5eedull);
    for (std::size_t i = 0; i < kLatBlocks; ++i) {
      lat_.push_back(alloc(kLatBytes, [&](double* d, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) d[j] = static_cast<double>(j % 5);
      }));
    }
    in_vals_.assign(kBatchBlocks, {});
    for (std::size_t i = 0; i < kBatchBlocks; ++i) {
      in_.push_back(alloc(kBatchBytes, [&](double* d, std::size_t n) {
        for (std::size_t j = 0; j < n; ++j) {
          d[j] = static_cast<double>(rng() % 16);
        }
        in_vals_[i].assign(d, d + n);
      }));
      out_.push_back(alloc(kBatchBytes, [](double* d, std::size_t n) {
        std::memset(d, 0, n * sizeof(double));
      }));
    }
  }
  double step() override {
    const int r = rounds_++;
    // Latency slots for this round, written by the task bodies.
    const std::size_t base = task_s_.size();
    task_s_.resize(base + kPes * kLatPerPe);
    std::vector<std::vector<rt::Runtime::PrefetchMsg>> msgs(kPes);
    for (int pe = 0; pe < kPes; ++pe) {
      auto& m = msgs[static_cast<std::size_t>(pe)];
      const std::size_t bi = batch_index(r, pe);
      const std::size_t bo = (bi + static_cast<std::size_t>(r)) % kBatchBlocks;
      rt::Runtime::PrefetchMsg batch;
      batch.deps = {{in_[bi], ooc::AccessMode::ReadOnly},
                    {out_[bo], ooc::AccessMode::ReadWrite}};
      batch.body = [this, bi, bo] {
        const double* in = static_cast<const double*>(rt_->block_ptr(in_[bi]));
        double* out = static_cast<double*>(rt_->block_ptr(out_[bo]));
        for (std::size_t j = 0; j < kBatchBytes / sizeof(double); ++j) {
          out[j] += in[j];
        }
      };
      batch.tenant = tenants_ ? kBatchTenant : 0;
      m.push_back(std::move(batch));
      for (int t = 0; t < kLatPerPe; ++t) {
        const std::size_t li = lat_index(r, pe, t);
        const std::size_t slot = base + static_cast<std::size_t>(pe * kLatPerPe + t);
        rt::Runtime::PrefetchMsg lat;
        lat.deps = {{lat_[li], ooc::AccessMode::ReadWrite}};
        lat.body = [this, li, slot] {
          task_s_[slot] = now_s() - submit_s_;
          double* x = static_cast<double*>(rt_->block_ptr(lat_[li]));
          const double inc = lat_inc_[li];
          for (std::size_t j = 0; j < kLatBytes / sizeof(double); ++j) {
            x[j] += inc;
          }
        };
        lat.tenant = tenants_ ? kLatTenant : 0;
        m.push_back(std::move(lat));
      }
    }
    const double t0 = now_s();
    submit_s_ = t0;
    for (int pe = 0; pe < kPes; ++pe) {
      rt_->send_prefetch_batch(pe, std::move(msgs[static_cast<std::size_t>(pe)]));
    }
    const double t1 = now_s();
    rt_->wait_idle();
    const double t2 = now_s();
    send_s_.push_back(t1 - t0);
    wait_s_.push_back(t2 - t1);
    return t2 - t0;
  }
  std::string check(int total_steps) override {
    // Expected contents from the schedule alone: the plain serial
    // evaluation of the same traffic (timed as apps.serial_ref_s).
    const double t0 = now_s();
    std::vector<double> lat_adds(kLatBlocks, 0);
    std::vector<std::vector<std::size_t>> out_from(kBatchBlocks);
    for (int r = 0; r < total_steps; ++r) {
      for (int pe = 0; pe < kPes; ++pe) {
        const std::size_t bi = batch_index(r, pe);
        out_from[(bi + static_cast<std::size_t>(r)) % kBatchBlocks].push_back(bi);
        for (int t = 0; t < kLatPerPe; ++t) {
          lat_adds[lat_index(r, pe, t)] += lat_inc_[lat_index(r, pe, t)];
        }
      }
    }
    std::vector<std::vector<double>> want_out(
        kBatchBlocks, std::vector<double>(kBatchBytes / sizeof(double), 0.0));
    for (std::size_t o = 0; o < kBatchBlocks; ++o) {
      for (std::size_t bi : out_from[o]) {
        for (std::size_t j = 0; j < want_out[o].size(); ++j) {
          want_out[o][j] += in_vals_[bi][j];
        }
      }
    }
    serial_ref_s_ = now_s() - t0;
    for (std::size_t i = 0; i < kLatBlocks; ++i) {
      const double* x = static_cast<const double*>(rt_->block_ptr(lat_[i]));
      for (std::size_t j = 0; j < kLatBytes / sizeof(double); ++j) {
        if (x[j] != static_cast<double>(j % 5) + lat_adds[i]) {
          return "tenant_mix: latency block " + std::to_string(i) + " wrong";
        }
      }
    }
    for (std::size_t o = 0; o < kBatchBlocks; ++o) {
      const double* got = static_cast<const double*>(rt_->block_ptr(out_[o]));
      if (std::memcmp(got, want_out[o].data(), kBatchBytes)) {
        return "tenant_mix: batch output block " + std::to_string(o) + " wrong";
      }
    }
    for (std::size_t i = 0; i < kBatchBlocks; ++i) {
      const double* in = static_cast<const double*>(rt_->block_ptr(in_[i]));
      if (std::memcmp(in, in_vals_[i].data(), kBatchBytes)) {
        return "tenant_mix: read-only input block changed";
      }
    }
    return "";
  }
  void teardown() override { rt_ = nullptr; }
  double flops_per_step() const override {
    return static_cast<double>(kPes) *
           (kLatPerPe * (kLatBytes / 8) + kBatchBytes / 8);
  }
  std::uint64_t dominant_bytes() const override { return kBatchBytes; }
  Shape shape() const override {
    Shape s;
    s.blocks.assign(kLatBlocks, kLatBytes);
    s.blocks.insert(s.blocks.end(), 2 * kBatchBlocks, kBatchBytes);
    // One round (round 1's block choice; every round has this shape).
    std::vector<Shape::Task> wave;
    for (int pe = 0; pe < kPes; ++pe) {
      const std::size_t bi = batch_index(1, pe);
      wave.push_back({pe,
                      {{kLatBlocks + bi, ooc::AccessMode::ReadOnly},
                       {kLatBlocks + kBatchBlocks + (bi + 1) % kBatchBlocks,
                        ooc::AccessMode::ReadWrite}}});
      for (int t = 0; t < kLatPerPe; ++t) {
        wave.push_back({pe, {{lat_index(1, pe, t), ooc::AccessMode::ReadWrite}}});
      }
    }
    s.waves = {wave};
    return s;
  }
  void start_timing() override {
    task_s_.clear();
    send_s_.clear();
    wait_s_.clear();
  }
  serve::ServeConfig serve_config() const override {
    serve::ServeConfig sc;
    serve::TenantDesc lat;
    lat.id = kLatTenant;
    lat.name = "lat";
    lat.qos = serve::QosClass::LatencySLO;
    lat.slo_p99_fetch_s = 0.002;
    lat.tier_reserve = {0.25};
    serve::TenantDesc batch;
    batch.id = kBatchTenant;
    batch.name = "batch";
    batch.qos = serve::QosClass::Batch;
    sc.tenants = {lat, batch};
    return sc;
  }
  std::vector<double> task_latencies() const override { return task_s_; }
  std::vector<double> send_times() const override { return send_s_; }
  std::vector<double> wait_times() const override { return wait_s_; }

private:
  static constexpr std::uint32_t kLatTenant = 0;
  static constexpr std::uint32_t kBatchTenant = 1;
  static constexpr std::size_t kLatBlocks = 64;
  static constexpr std::uint64_t kLatBytes = 16 * KiB;
  static constexpr std::size_t kBatchBlocks = 8;
  static constexpr std::uint64_t kBatchBytes = 1 * MiB;
  static constexpr int kLatPerPe = 8;

  static std::size_t batch_index(int r, int pe) {
    return static_cast<std::size_t>(2 * r + pe) % kBatchBlocks;
  }
  static std::size_t lat_index(int r, int pe, int t) {
    // Each PE cycles its own half of the latency blocks.
    const std::size_t half = kLatBlocks / kPes;
    return static_cast<std::size_t>(pe) * half +
           static_cast<std::size_t>(r * kLatPerPe + t) % half;
  }
  template <class Fill>
  mem::BlockId alloc(std::uint64_t bytes, Fill fill) {
    const mem::BlockId b = rt_->alloc_block(bytes);
    fill(static_cast<double*>(rt_->block_ptr(b)), bytes / sizeof(double));
    return b;
  }

  std::uint64_t seed_;
  rt::Runtime* rt_ = nullptr;
  bool tenants_ = true;
  int rounds_ = 0;
  std::vector<double> lat_inc_;
  std::vector<mem::BlockId> lat_, in_, out_;
  std::vector<std::vector<double>> in_vals_;
  double submit_s_ = 0;
  std::vector<double> task_s_, send_s_, wait_s_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "cg_fine") return std::make_unique<CgFine>(seed);
  if (name == "tenant_mix") return std::make_unique<TenantMix>(seed);
  return nullptr;
}


// ------------------------------------------------------------- one rep

/// Per-step trace totals, accumulated over a traced rep.  The tracer's
/// rings are drained after every step (outside the step's timing) so
/// nothing is dropped.
struct TraceTotals {
  double worker[6] = {0, 0, 0, 0, 0, 0}; // worker lanes, by category
  double all[6] = {0, 0, 0, 0, 0, 0};    // every lane
  double copy_bytes = 0;
  double copy_s = 0;
  std::uint64_t dropped = 0;
  void add(rt::Runtime& rt) {
    const trace::TraceSummary w = rt.tracer().summarize(rt.num_pes());
    const trace::TraceSummary a = rt.tracer().summarize();
    for (int c = 0; c < 6; ++c) {
      worker[c] += w.total[c];
      all[c] += a.total[c];
    }
    for (const auto& m : a.migrations) {
      copy_bytes += static_cast<double>(m.bytes);
      copy_s += m.seconds;
    }
    dropped = a.dropped;
    rt.tracer().clear();
  }
};

struct RepResult {
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> step_s;
  std::vector<double> task_s, send_s, wait_s;
  std::string error;
  Counters counts;  // the timed steps only
  TraceTotals tr;   // traced reps: the timed steps only
  std::uint64_t fast_high_water = 0; // the whole rep
  std::uint64_t audit_runs = 0;      // the whole rep, check included
};

RepResult run_rep(Workload& w, const RepOpts& o) {
  RepResult res;
  const double t_setup = now_s();
  rt::Runtime::Config cfg = runtime_config(w.fast_bytes(), w.slow_bytes(), o);
  if (o.tenants) cfg.serve = w.serve_config();
  rt::Runtime rt(cfg);
  w.build(rt, o);
  for (int i = 0; i < w.warmup_steps(); ++i) w.step();
  res.setup_s = now_s() - t_setup;
  w.start_timing();
  if (o.trace) rt.tracer().clear(); // the traced window is the timed one
  const Counters before = Counters::read(rt);

  res.step_s.reserve(static_cast<std::size_t>(o.steps));
  double timed = 0;
  for (int i = 0; i < o.steps; ++i) {
    const double t0 = now_s();
    res.step_s.push_back(w.step());
    timed += now_s() - t0;
    if (o.trace) res.tr.add(rt); // drain outside the timed span
  }
  res.wall_s = timed;
  res.counts = Counters::read(rt) - before;

  res.error = w.check(w.warmup_steps() + o.steps);
  res.task_s = w.task_latencies();
  res.send_s = w.send_times();
  res.wait_s = w.wait_times();
  res.fast_high_water = rt.memory().usage(cfg.model.fast).high_water;
  res.audit_runs = rt.audit_runs();
  w.teardown();
  return res;
}

void emit_rep(int index, const char* kind, const RepResult& r) {
  Json j;
  j.key("rec").str("rep").key("rep").num(index).key("kind").str(kind);
  j.key("setup_s").num(r.setup_s).key("wall_s").num(r.wall_s);
  j.key("steps").num(static_cast<double>(r.step_s.size()));
  j.key("step_s").arr(r.step_s);
  j.key("task_s").arr(r.task_s);
  j.key("check").str(r.error);
  j.key("tasks").num(static_cast<double>(r.counts.tasks));
  j.key("fetches").num(static_cast<double>(r.counts.fetches));
  j.key("bytes_moved").num(static_cast<double>(r.counts.bytes_moved));
  j.emit();
}

// ------------------------------------------------------ isolated replays

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Fixed single-thread reference kernel (one 96^3 gemm_tile x 8), ms.
double host_ref_ms() {
  constexpr int t = 96;
  std::vector<double> a(t * t), b(t * t), c(t * t, 0.0);
  apps::fill_pattern(a.data(), a.size(), 1);
  apps::fill_pattern(b.data(), b.size(), 2);
  const double t0 = now_s();
  for (int i = 0; i < 8; ++i) {
    apps::BlockMatmul::gemm_tile(a.data(), b.data(), c.data(), t);
  }
  const double dt = now_s() - t0;
  HMR_CHECK(std::isfinite(c[0]));
  return dt * 1e3;
}

/// MemoryManager::migrate round trips (slow -> fast -> slow) of one
/// block of `bytes`, chunking configured as the runtime configures it.
/// Returns microseconds per round trip (median of batches).
double replay_migrate_us(std::uint64_t bytes) {
  mem::MemoryManager mm({{"slow", 4 * bytes + MiB}, {"fast", 4 * bytes + MiB}});
  rt::Runtime::Config defaults;
  mm.set_chunked_copy(defaults.chunk_threshold, defaults.chunk_bytes);
  const mem::BlockId b = mm.register_block(bytes, 0);
  std::memset(mm.block_ptr(b), 1, bytes);
  const int per_batch = std::max<int>(4, static_cast<int>(64 * MiB / bytes));
  std::vector<double> batches;
  for (int k = 0; k < 9; ++k) {
    const double t0 = now_s();
    for (int i = 0; i < per_batch; ++i) {
      HMR_CHECK(mm.migrate(b, 1).ok);
      HMR_CHECK(mm.migrate(b, 0).ok);
    }
    batches.push_back((now_s() - t0) / per_batch * 1e6);
  }
  return median(batches);
}

/// mem::copy of `bytes` between two buffers, GB/s (median of batches).
double replay_copy_gbps(std::uint64_t bytes) {
  std::vector<unsigned char> src(bytes, 7), dst(bytes, 0);
  const int per_batch = std::max<int>(4, static_cast<int>(64 * MiB / bytes));
  std::vector<double> batches;
  for (int k = 0; k < 9; ++k) {
    const double t0 = now_s();
    for (int i = 0; i < per_batch; ++i) {
      mem::copy(dst.data(), src.data(), bytes);
    }
    const double dt = now_s() - t0;
    batches.push_back(static_cast<double>(bytes) * per_batch / dt / 1e9);
  }
  HMR_CHECK(dst[bytes - 1] == 7);
  return median(batches);
}

/// Drive a ShardedEngine directly with the workload's dependency shape
/// (arrive -> fetch_complete -> task_complete -> evict_complete, no
/// data movement).  Returns nanoseconds per engine event.
double replay_engine_ns(const Shape& shape, std::uint64_t fast_bytes) {
  rt::ShardedEngine::Config sc;
  sc.num_pes = kPes;
  sc.fast_capacity = fast_bytes;
  rt::ShardedEngine eng(sc);
  for (std::size_t i = 0; i < shape.blocks.size(); ++i) {
    eng.add_block(i, shape.blocks[i]);
  }
  ooc::TaskId next = 1;
  std::uint64_t events = 0;
  std::vector<ooc::Command> queue;
  auto run_wave = [&](const std::vector<Shape::Task>& wave) {
    for (const auto& t : wave) {
      ooc::TaskDesc d;
      d.id = next++;
      d.pe = t.pe;
      for (const auto& [blk, mode] : t.deps) d.deps.push_back({blk, mode});
      auto c = eng.on_task_arrived(d);
      ++events;
      queue.insert(queue.end(), c.begin(), c.end());
    }
    // FIFO drain, the order IO and worker threads would see.
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const ooc::Command cmd = queue[i];
      std::vector<ooc::Command> c;
      switch (cmd.kind) {
        case ooc::Command::Kind::Fetch:
          c = eng.on_fetch_complete(cmd.block);
          break;
        case ooc::Command::Kind::Evict:
          c = eng.on_evict_complete(cmd.block);
          break;
        case ooc::Command::Kind::Run:
          c = eng.on_task_complete(cmd.task, cmd.pe);
          break;
      }
      ++events;
      queue.insert(queue.end(), c.begin(), c.end());
    }
    queue.clear();
    HMR_CHECK_MSG(eng.quiescent(), "engine replay did not drain");
  };
  for (int warm = 0; warm < 3; ++warm) {
    for (const auto& wave : shape.waves) run_wave(wave);
  }
  std::vector<double> batches;
  for (int k = 0; k < 9; ++k) {
    const std::uint64_t e0 = events;
    const double t0 = now_s();
    while (now_s() - t0 < 0.02) {
      for (const auto& wave : shape.waves) run_wave(wave);
    }
    batches.push_back((now_s() - t0) * 1e9 /
                      static_cast<double>(events - e0));
  }
  return median(batches);
}

/// TierBudget::try_claim + release pairs on shard 0, ns per pair.
double replay_budget_ns(std::uint64_t fast_bytes, std::uint64_t bytes) {
  ooc::TierBudget budget(fast_bytes, kPes);
  std::vector<double> batches;
  constexpr int kPairs = 200000;
  for (int k = 0; k < 9; ++k) {
    const double t0 = now_s();
    for (int i = 0; i < kPairs; ++i) {
      const std::int32_t shard = i & 1;
      HMR_CHECK(budget.try_claim(shard, bytes));
      budget.release(shard, bytes);
    }
    batches.push_back((now_s() - t0) * 1e9 / kPairs);
  }
  return median(batches);
}

// ---------------------------------------------------------------- main

std::string vmhwm_line() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return line;
  }
  return "";
}

bool parse_args(int argc, char** argv, Args& a) try {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--mode") {
      if (v == "timed") {
        a.mode = Mode::Timed;
      } else if (v == "layers") {
        a.mode = Mode::Layers;
      } else if (v == "audit") {
        a.mode = Mode::Audit;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return !a.workload.empty();
} catch (const std::exception&) { // std::stoull / std::stod on bad input
  return false;
}

void emit_layers(Workload& w, const std::vector<RepResult>& plain,
                 const std::vector<RepResult>& traced,
                 const std::vector<RepResult>& untenanted) {
  const RepResult& t = traced.front();
  std::vector<double> tw, uw;
  for (const auto& r : traced) tw.push_back(r.wall_s);
  for (const auto& r : plain) uw.push_back(r.wall_s);
  const double lanes = kPes;
  const auto cat = [](const double* v, trace::Category c) {
    return v[static_cast<int>(c)];
  };
  using C = trace::Category;
  const double compute = cat(t.tr.worker, C::Compute);
  const double busy = compute + cat(t.tr.worker, C::Prefetch) +
                      cat(t.tr.worker, C::Evict) + cat(t.tr.worker, C::Wait) +
                      cat(t.tr.worker, C::Overhead);
  const double gflop =
      w.flops_per_step() * static_cast<double>(t.step_s.size()) / 1e9;
  const RepResult& u = plain.front();

  Json j;
  j.key("rec").str("layers");
  // apps
  j.key("apps.compute_s").num(compute);
  j.key("apps.compute_frac").num(compute / (lanes * t.wall_s));
  j.key("apps.gflop").num(gflop);
  j.key("apps.gflop_per_s").num(compute > 0 ? gflop / compute : 0);
  j.key("apps.serial_ref_s").num(w.serial_ref_s());
  // mem
  j.key("mem.fetch_s").num(cat(t.tr.all, C::Prefetch));
  j.key("mem.evict_s").num(cat(t.tr.all, C::Evict));
  j.key("mem.bytes_moved").num(static_cast<double>(t.counts.bytes_moved));
  j.key("mem.copy_gbps").num(t.tr.copy_s > 0 ? t.tr.copy_bytes / t.tr.copy_s / 1e9 : 0);
  j.key("mem.chunks_copied").num(static_cast<double>(t.counts.chunks));
  j.key("mem.chunks_assisted").num(static_cast<double>(t.counts.chunks_assisted));
  j.key("mem.fast_high_water_mib").num(static_cast<double>(t.fast_high_water) / MiB);
  j.key("mem.migrate_us").num(replay_migrate_us(w.dominant_bytes()));
  j.key("mem.copy_isolated_gbps").num(replay_copy_gbps(w.dominant_bytes()));
  // ooc
  j.key("ooc.fetches").num(static_cast<double>(t.counts.fetches));
  j.key("ooc.evicts").num(static_cast<double>(t.counts.evicts));
  const double attempts = static_cast<double>(t.counts.fetches + t.counts.dedup);
  j.key("ooc.dedup_ratio").num(attempts > 0 ? t.counts.dedup / attempts : 0);
  j.key("ooc.budget_steals").num(static_cast<double>(t.counts.steals));
  j.key("ooc.engine_event_ns").num(replay_engine_ns(w.shape(), w.fast_bytes()));
  j.key("ooc.budget_claim_ns")
      .num(replay_budget_ns(w.fast_bytes(), w.dominant_bytes()));
  // rt
  j.key("rt.tasks").num(static_cast<double>(t.counts.tasks));
  j.key("rt.queue_wait_s").num(t.counts.queue_wait_s);
  j.key("rt.fetch_wait_s").num(t.counts.fetch_wait_s);
  j.key("rt.overhead_s").num(cat(t.tr.worker, C::Overhead));
  j.key("rt.lock_acquisitions").num(static_cast<double>(t.counts.locks.acquisitions));
  j.key("rt.lock_contended").num(static_cast<double>(t.counts.locks.contended));
  j.key("rt.lock_wait_s").num(t.counts.locks.wait_s);
  j.key("rt.send_us").num(median(u.send_s) * 1e6);
  j.key("rt.wait_idle_ms").num(median(u.wait_s) * 1e3);
  j.key("rt.unexplained_frac").num(1.0 - busy / (lanes * t.wall_s));
  // serve
  j.key("serve.admitted").num(static_cast<double>(u.counts.admitted));
  j.key("serve.deferred").num(static_cast<double>(u.counts.deferred));
  j.key("serve.rejected").num(static_cast<double>(u.counts.rejected));
  j.key("serve.untenanted_step_p50_ms")
      .num(untenanted.empty() ? 0 : median(untenanted.front().step_s) * 1e3);
  j.key("serve.task_s").arr(u.task_s);
  // telemetry / trace
  j.key("telemetry.trace_overhead_frac").num(median(tw) / median(uw) - 1.0);
  j.key("telemetry.attrib_sum_violations").num(static_cast<double>(t.counts.attrib_violations));
  j.key("trace.dropped").num(static_cast<double>(t.tr.dropped));
  j.emit();
}

} // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload W --seed N "
                 "[--mode timed|layers|audit] [--seconds S]\n");
    return 2;
  }
  auto w = make_workload(args.workload, args.seed);
  if (!w) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // A fixed mmap threshold turns off glibc's dynamic one, which rises
  // after the first large free and lets later reps keep freed arenas on
  // the heap: every rep then allocates its tier arenas as a fresh
  // process would, and VmHWM does not depend on the number of reps.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  std::vector<double> host;
  for (int i = 0; i < 5; ++i) host.push_back(host_ref_ms());

  const int steps =
      args.mode == Mode::Audit ? std::max(1, w->steps_per_rep() / 4)
                               : w->steps_per_rep();
  {
    Json j;
    j.key("rec").str("plan").key("steps_per_rep").num(steps);
    j.emit();
  }

  RepOpts base;
  base.steps = steps;
  int index = 0;
  if (args.mode == Mode::Timed) {
    const double t0 = now_s();
    while (index < kMinReps || now_s() - t0 < args.seconds) {
      emit_rep(index++, "timed", run_rep(*w, base));
    }
  } else if (args.mode == Mode::Audit) {
    RepOpts o = base;
    o.audit = true;
    const RepResult r = run_rep(*w, o);
    emit_rep(index++, "audit", r);
    Json j;
    j.key("rec").str("audit").key("audit_runs").num(
        static_cast<double>(r.audit_runs));
    j.emit();
  } else {
    RepOpts traced = base;
    traced.trace = true;
    std::vector<RepResult> plain, tr, untenanted;
    for (int k = 0; k < 2; ++k) {
      plain.push_back(run_rep(*w, base));
      emit_rep(index++, "untraced", plain.back());
      tr.push_back(run_rep(*w, traced));
      emit_rep(index++, "traced", tr.back());
    }
    if (w->serve_config().enabled()) {
      RepOpts o = base;
      o.tenants = false;
      untenanted.push_back(run_rep(*w, o));
      emit_rep(index++, "untenanted", untenanted.back());
    }
    emit_layers(*w, plain, tr, untenanted);
  }

  for (int i = 0; i < 5; ++i) host.push_back(host_ref_ms());
  Json j;
  j.key("rec").str("end").key("host_ref_ms").arr(host);
  j.key("vmhwm").str(vmhwm_line());
  j.emit();
  return 0;
}
