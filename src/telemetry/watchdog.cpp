#include "telemetry/watchdog.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace hmr::telemetry {

Watchdog::Watchdog(Config cfg, Hooks hooks)
    : cfg_(std::move(cfg)), hooks_(std::move(hooks)) {}

Watchdog::~Watchdog() { stop(); }

void Watchdog::start() {
  std::lock_guard lk(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void Watchdog::stop() {
  {
    std::lock_guard lk(mu_);
    if (!running_) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard lk(mu_);
  running_ = false;
}

std::string Watchdog::last_reason() const {
  std::lock_guard lk(mu_);
  return reason_;
}

void Watchdog::loop() {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    {
      std::unique_lock lk(mu_);
      if (cv_.wait_for(lk, cfg_.interval, [&] { return stop_; })) return;
    }
    evaluate(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count());
  }
}

void Watchdog::evaluate(double now_seconds) {
  const std::uint64_t progress = hooks_.progress ? hooks_.progress() : 0;
  const bool loaded = hooks_.under_load && hooks_.under_load();

  if (progress != last_progress_ || !loaded) {
    // Forward motion (or nothing outstanding): reset the window and
    // re-arm the trip for the next episode.
    last_progress_ = progress;
    stall_since_ = -1;
    fired_ = false;
    stalled_.store(false, std::memory_order_relaxed);
  } else {
    if (stall_since_ < 0) stall_since_ = now_seconds;
    if (!fired_ && now_seconds - stall_since_ >= cfg_.stall_seconds) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "no progress under load for %.2f s (progress counter "
                    "frozen at %llu with work outstanding)",
                    now_seconds - stall_since_,
                    static_cast<unsigned long long>(progress));
      trip(now_seconds, buf);
    }
  }

  // Rate anomalies: counter deltas per tick against the storm
  // thresholds.  The first tick only records baselines (no elapsed
  // window yet); a sustained storm reports once per episode, re-armed
  // when the rate falls back under the threshold.
  const double dt = last_eval_s_ >= 0 ? now_seconds - last_eval_s_ : 0;
  if (hooks_.trace_drops && cfg_.trace_drop_storm_per_s > 0) {
    const std::uint64_t drops = hooks_.trace_drops();
    if (storm_seen_baseline_ && dt > 0) {
      const double rate =
          static_cast<double>(drops - last_trace_drops_) / dt;
      if (rate > cfg_.trace_drop_storm_per_s) {
        if (!trace_storm_fired_) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "trace-drop storm: %.0f events/s discarded "
                        "(threshold %.0f/s) — ring evidence is being lost",
                        rate, cfg_.trace_drop_storm_per_s);
          trace_storm_fired_ = true;
          alert(now_seconds, buf);
        }
      } else {
        trace_storm_fired_ = false;
      }
    }
    last_trace_drops_ = drops;
  }
  if (hooks_.remote_fetches && cfg_.remote_fetch_storm_per_s > 0) {
    const std::uint64_t rf = hooks_.remote_fetches();
    if (storm_seen_baseline_ && dt > 0) {
      const double rate =
          static_cast<double>(rf - last_remote_fetches_) / dt;
      if (rate > cfg_.remote_fetch_storm_per_s) {
        if (!remote_storm_fired_) {
          char buf[160];
          std::snprintf(buf, sizeof buf,
                        "remote-fetch storm: %.0f promotions/s over the "
                        "network (threshold %.0f/s) — placement thrashing",
                        rate, cfg_.remote_fetch_storm_per_s);
          remote_storm_fired_ = true;
          alert(now_seconds, buf);
        }
      } else {
        remote_storm_fired_ = false;
      }
    }
    last_remote_fetches_ = rf;
  }
  storm_seen_baseline_ = true;
  last_eval_s_ = now_seconds;

  // Independent check: a single stuck fetch stalls its waiters long
  // before the global counters freeze.
  const double age = hooks_.fetch_age ? hooks_.fetch_age() : -1;
  if (!fired_ && age >= 0) {
    const double p99 = hooks_.fetch_p99 ? hooks_.fetch_p99() : 0;
    const double limit =
        std::max(cfg_.stall_seconds,
                 p99 > 0 ? cfg_.fetch_factor * p99 : cfg_.stall_seconds);
    if (age > limit) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "fetch in flight for %.2f s (limit %.2f s = max(stall "
                    "window, %.0fx observed p99))",
                    age, limit, cfg_.fetch_factor);
      trip(now_seconds, buf);
    }
  }
}

void Watchdog::trip(double now_seconds, const std::string& reason) {
  fired_ = true;
  stalled_.store(true, std::memory_order_relaxed);
  alert(now_seconds, reason);
}

// Report + escalate without latching the stall state: storm trips are
// anomalies (the runtime is making progress, too fast in the wrong
// direction), so /healthz must not turn 503 on them.
void Watchdog::alert(double now_seconds, const std::string& reason) {
  trips_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard lk(mu_);
    reason_ = reason;
  }
  std::fprintf(stderr, "hmr: WATCHDOG at t=%.2f s: %s\n", now_seconds,
               reason.c_str());
  if (cfg_.escalation == Escalation::Warn) return;

  if (hooks_.dump) {
    if (cfg_.dump_path.empty()) {
      std::ostringstream os;
      hooks_.dump(os);
      std::fputs(os.str().c_str(), stderr);
    } else {
      std::ofstream f(cfg_.dump_path, std::ios::app);
      if (f) {
        f << "==== watchdog trip at t=" << now_seconds << " s: " << reason
          << " ====\n";
        hooks_.dump(f);
      } else {
        std::fprintf(stderr, "hmr: watchdog cannot open dump file %s\n",
                     cfg_.dump_path.c_str());
      }
    }
  }
  if (cfg_.escalation == Escalation::Abort) {
    std::fprintf(stderr, "hmr: watchdog escalation=abort\n");
    std::abort();
  }
}

} // namespace hmr::telemetry
