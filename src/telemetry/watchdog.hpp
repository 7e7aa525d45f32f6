#pragma once
// Watchdog: stall detection for the threaded runtime.
//
// The quiescence protocol makes a wedge silent: if a fetch is lost or
// the policy deadlocks, wait_idle() blocks forever with every thread
// parked on a condition variable — no CPU burn, no output, nothing to
// attach a profiler to.  The watchdog turns that into a diagnosis:
//
//   * the runtime's PE and IO loops stamp per-thread Heartbeats
//     (padded relaxed atomics: an iteration count and a timestamp) on
//     every wakeup, and retirement counters tick on every message /
//     migration completion;
//   * a monitor thread samples a caller-supplied progress counter.
//     Outstanding work with frozen progress for longer than
//     `stall_seconds` is a trip ("no progress under load"), as is an
//     in-flight fetch older than `fetch_factor` x the observed fetch
//     p99 ("fetch stuck");
//   * on trip it escalates per policy: Warn logs one line to stderr,
//     Dump also writes the owner's diagnostic bundle (flight recorder
//     + metrics snapshot + trace tail) to stderr or `dump_path`,
//     Abort dumps and calls abort() so CI gets a core.
//
// A trip re-arms only after progress resumes, so a persistent stall
// produces one report, not one per tick.  The watchdog never touches
// runtime internals directly — everything arrives through Hooks — so
// it is unit-testable with synthetic callbacks (tests/test_introspect).

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>

namespace hmr::telemetry {

/// One thread's liveness stamp.  beat() is two relaxed stores on a
/// thread-private cache line — cheap enough for every loop iteration.
struct alignas(64) Heartbeat {
  std::atomic<std::uint64_t> beats{0};
  std::atomic<std::uint64_t> last_ns{0}; // steady-clock ns at last beat

  void beat(std::uint64_t now_ns) {
    beats.store(beats.load(std::memory_order_relaxed) + 1,
                std::memory_order_relaxed);
    last_ns.store(now_ns, std::memory_order_relaxed);
  }
};

class Watchdog {
public:
  enum class Escalation { Warn, Dump, Abort };

  struct Config {
    std::chrono::milliseconds interval{250};
    /// Outstanding work with no progress for this long trips.
    double stall_seconds = 2.0;
    /// An in-flight fetch older than this many times the observed
    /// fetch p99 trips (with a floor of stall_seconds, so a cold p99
    /// cannot make the check hair-triggered).
    double fetch_factor = 8.0;
    Escalation escalation = Escalation::Dump;
    /// Dump destination; empty = stderr.  Appended, not truncated.
    std::string dump_path;
    /// Rate-anomaly (storm) thresholds in events/second, measured as
    /// counter deltas between monitor ticks; 0 disables each check.
    /// A trace-drop storm means the trace rings are overrunning (the
    /// evidence for any later diagnosis is being discarded); a
    /// remote-fetch storm means the placement is thrashing blocks
    /// across the network (hmr_remote_* counters climbing faster than
    /// any sane working-set migration).
    double trace_drop_storm_per_s = 0;
    double remote_fetch_storm_per_s = 0;
  };

  /// Everything the monitor reads, supplied by the owner.  All
  /// callbacks must be thread-safe; they run on the monitor thread.
  struct Hooks {
    /// Is there outstanding work (messages or migrations)?
    std::function<bool()> under_load;
    /// Monotonic progress counter: retirements + engine events.
    std::function<std::uint64_t()> progress;
    /// Seconds since fetch-channel activity while fetches are in
    /// flight; < 0 = nothing in flight.
    std::function<double()> fetch_age;
    /// Observed fetch-latency p99 in seconds; <= 0 = unknown.
    std::function<double()> fetch_p99;
    /// Cumulative trace-ring drop count (storm check; may be empty).
    std::function<std::uint64_t()> trace_drops;
    /// Cumulative remote-tier fetch count (storm check; may be empty).
    std::function<std::uint64_t()> remote_fetches;
    /// Writes the diagnostic bundle (may be empty).
    std::function<void(std::ostream&)> dump;
  };

  Watchdog(Config cfg, Hooks hooks);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void start(); // idempotent
  void stop();  // idempotent; joins the monitor thread

  /// Total trips since construction.
  std::uint64_t trips() const {
    return trips_.load(std::memory_order_relaxed);
  }
  /// True while the current stall episode persists (set on trip,
  /// cleared when progress resumes) — /healthz turns 503 on this.
  bool stalled() const { return stalled_.load(std::memory_order_relaxed); }
  /// One-line description of the last trip ("" = never tripped).
  std::string last_reason() const;

  /// One monitor evaluation against explicit inputs — the tick logic
  /// without the thread, for deterministic tests.
  void evaluate(double now_seconds);

private:
  void loop();
  void trip(double now_seconds, const std::string& reason);
  /// Report + escalate without latching stalled() (storm trips).
  void alert(double now_seconds, const std::string& reason);

  Config cfg_;
  Hooks hooks_;

  std::atomic<std::uint64_t> trips_{0};
  std::atomic<bool> stalled_{false};

  // Monitor-thread state (evaluate() is called from one thread).
  std::uint64_t last_progress_ = 0;
  double stall_since_ = -1; // first tick of the current frozen window
  bool fired_ = false;      // this episode already reported
  // Storm-check state: previous tick's counter values and timestamp
  // (rates are per-tick deltas), plus per-check episode latches so a
  // sustained storm reports once, not once per tick.
  double last_eval_s_ = -1;
  std::uint64_t last_trace_drops_ = 0;
  std::uint64_t last_remote_fetches_ = 0;
  bool storm_seen_baseline_ = false;
  bool trace_storm_fired_ = false;
  bool remote_storm_fired_ = false;

  mutable std::mutex mu_; // guards reason_ and the cv below
  std::string reason_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_ = false;
};

} // namespace hmr::telemetry
