#include "serve/tenant_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/stats.hpp"

namespace hmr::serve {

namespace {

double steady_seconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point t0 = clock::now();
  return std::chrono::duration<double>(clock::now() - t0).count();
}

} // namespace

/// Quota-aware demotion preference: blocks whose owner borrows beyond
/// its top-level reservation are marked demote-first and sent straight
/// to the bottom level, so reclaim preys on over-quota tenants before
/// touching anyone's guaranteed share.  Called by the inner serial
/// engine from within TenantEngine's critical section — it reads the
/// ledger without locking (and must not try to lock mu_).
class TenantEngine::Advisor : public ooc::AdviceProvider {
public:
  explicit Advisor(const TenantEngine& te) : te_(te) {}

  ooc::BlockAdvice advise(ooc::BlockId b,
                          std::uint64_t /*bytes*/) const override {
    ooc::BlockAdvice adv;
    const auto it = te_.blocks_.find(b);
    if (it == te_.blocks_.end()) return adv;
    const TenantId owner = it->second.owner;
    if (owner == QuotaLedger::kUnowned) return adv;
    if (te_.ledger_.over_reserve(owner, 0)) {
      adv.demote_first = true;
      adv.demote_level = ooc::kLevelFar;
    }
    return adv;
  }

  bool may_bypass() const override { return false; }

private:
  const TenantEngine& te_;
};

TenantEngine::TenantEngine(ooc::Engine& inner, ServeConfig cfg,
                           double now)
    : inner_(inner),
      reg_([&] {
        TenantRegistry r;
        for (auto& d : cfg.tenants) r.add(std::move(d));
        return r;
      }()),
      clock_(steady_seconds),
      ledger_(reg_, inner.tiers()),
      adm_(reg_, cfg.admission, now),
      tenants_(reg_.size()) {
  burn_window_s_ = cfg.burn_window_s;
  HMR_CHECK_MSG(!reg_.empty(),
                "TenantEngine needs at least one tenant");
  const auto& tiers = inner_.tiers();
  for (std::size_t l = 0; l < tiers.size(); ++l) {
    tier_level_[tiers[l].id] = static_cast<std::int32_t>(l);
  }
  if (reg_.size() >= 2) advisor_ = std::make_unique<Advisor>(*this);
}

TenantEngine::~TenantEngine() = default;

void TenantEngine::set_clock(std::function<double()> clock) {
  std::lock_guard<std::mutex> lk(mu_);
  clock_ = std::move(clock);
}

ooc::AdviceProvider* TenantEngine::advisor() { return advisor_.get(); }

std::int32_t TenantEngine::level_of(ooc::TierId tid) const {
  const auto it = tier_level_.find(tid);
  HMR_CHECK_MSG(it != tier_level_.end(),
                "command names a tier id outside the hierarchy");
  return it->second;
}

// ---- block registry ----

ooc::TierId TenantEngine::add_block(ooc::BlockId b,
                                    std::uint64_t bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  const ooc::TierId tid = inner_.add_block(b, bytes);
  blocks_[b] = BlockInfo{bytes, QuotaLedger::kUnowned};
  ledger_.charge(QuotaLedger::kUnowned, level_of(tid), bytes);
  return tid;
}

void TenantEngine::remove_block(ooc::BlockId b) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = blocks_.find(b);
  HMR_CHECK_MSG(it != blocks_.end(), "remove of unregistered block");
  ledger_.release(it->second.owner, inner_.block_level(b),
                  it->second.bytes);
  blocks_.erase(it);
  fetch_inflight_.erase(b);
  inner_.remove_block(b);
}

// ---- admission ----

Verdict TenantEngine::submit(const ooc::TaskDesc& task,
                             std::vector<ooc::Command>& cmds) {
  std::lock_guard<std::mutex> lk(mu_);
  return submit_locked(task, /*degrade_reject=*/false, cmds);
}

std::vector<ooc::Command> TenantEngine::on_task_arrived(
    const ooc::TaskDesc& task) {
  std::vector<ooc::Command> cmds;
  std::lock_guard<std::mutex> lk(mu_);
  submit_locked(task, /*degrade_reject=*/true, cmds);
  return cmds;
}

Verdict TenantEngine::submit_locked(const ooc::TaskDesc& task,
                                    bool degrade_reject,
                                    std::vector<ooc::Command>& cmds) {
  const TenantId t = task.tenant;
  HMR_CHECK_MSG(t < reg_.size(), "task names an unregistered tenant");
  TenantState& st = tenants_[t];
  ++st.submitted;

  const double now = now_locked();
  const bool would_borrow = ledger_.over_reserve(t, 0);
  const bool contended = adm_.underreserve_waiter(
      [&](TenantId u) { return ledger_.over_reserve(u, 0); });
  const Verdict v = adm_.decide(t, now, would_borrow, contended,
                                inner_live_ == 0);
  switch (v) {
    case Verdict::Admit:
      ++st.admitted;
      admit_locked(task, cmds);
      break;
    case Verdict::Defer:
      ++st.deferred;
      adm_.push(t, task);
      break;
    case Verdict::Reject:
      ++st.rejected;
      if (degrade_reject) {
        ++st.deferred;
        adm_.push(t, task);
      }
      break;
  }
  return v;
}

void TenantEngine::admit_locked(const ooc::TaskDesc& task,
                                std::vector<ooc::Command>& cmds) {
  task_tenant_[task.id] = task.tenant;
  ++inner_live_;
  const std::vector<ooc::Command> inner = inner_.on_task_arrived(task);
  observe_locked(inner);
  cmds.insert(cmds.end(), inner.begin(), inner.end());
}

void TenantEngine::pump_locked(std::vector<ooc::Command>& cmds) {
  ooc::TaskDesc task;
  bool forced = false;
  while (adm_.pop(now_locked(), inner_live_ == 0, task, forced)) {
    TenantState& st = tenants_[task.tenant];
    ++st.admitted;
    if (forced) ++st.forced;
    admit_locked(task, cmds);
  }
}

// ---- engine events ----

std::vector<ooc::Command> TenantEngine::on_fetch_complete(
    ooc::BlockId b) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = fetch_inflight_.find(b);
  if (it != fetch_inflight_.end()) {
    TenantState& st = tenants_[it->second.tenant];
    const double now = now_locked();
    const double s = now - it->second.issued_s;
    ++st.fetch_samples;
    if (st.samples.size() < kMaxSamples) st.samples.push_back(s);
    st.fetch_max_s = std::max(st.fetch_max_s, s);
    if (burn_window_s_ > 0) {
      st.window_samples.emplace_back(now, s);
      const double cutoff = now - burn_window_s_;
      while (!st.window_samples.empty() &&
             st.window_samples.front().first < cutoff) {
        st.window_samples.pop_front();
      }
    }
    fetch_inflight_.erase(it);
  }
  std::vector<ooc::Command> cmds = inner_.on_fetch_complete(b);
  observe_locked(cmds);
  pump_locked(cmds);
  return cmds;
}

std::vector<ooc::Command> TenantEngine::on_evict_complete(
    ooc::BlockId b) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ooc::Command> cmds = inner_.on_evict_complete(b);
  observe_locked(cmds);
  pump_locked(cmds);
  return cmds;
}

std::vector<ooc::Command> TenantEngine::on_task_complete(
    ooc::TaskId t, std::int32_t pe) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = task_tenant_.find(t);
  HMR_CHECK_MSG(it != task_tenant_.end(),
                "completion for a task tenancy never admitted");
  TenantState& st = tenants_[it->second];
  ++st.completed;
  const double now = now_locked();
  if (st.completed == 1) st.first_completion_s = now;
  st.last_completion_s = now;
  task_tenant_.erase(it);
  HMR_CHECK_MSG(inner_live_ > 0, "completion with no live task");
  --inner_live_;

  std::vector<ooc::Command> cmds = inner_.on_task_complete(t, pe);
  observe_locked(cmds);
  pump_locked(cmds);
  return cmds;
}

void TenantEngine::observe_locked(
    const std::vector<ooc::Command>& cmds) {
  for (const auto& c : cmds) {
    if (c.kind == ooc::Command::Kind::Run) continue;
    const auto bit = blocks_.find(c.block);
    HMR_CHECK_MSG(bit != blocks_.end(),
                  "command on a block tenancy never saw");
    BlockInfo& bi = bit->second;
    const std::int32_t from = level_of(c.src_tier);
    const std::int32_t to = level_of(c.dst_tier);
    if (c.kind == ooc::Command::Kind::Fetch) {
      // The fetch's first requester names the owning tenant.
      const auto tit = task_tenant_.find(c.task);
      const TenantId t =
          tit != task_tenant_.end() ? tit->second : TenantId{0};
      TenantState& st = tenants_[t];
      ++st.fetches;
      st.fetch_bytes += bi.bytes;
      if (ledger_.transfer(bi.owner, t, from, to, bi.bytes)) {
        ++st.borrows;
      }
      bi.owner = t;
      fetch_inflight_[c.block] = FetchInFlight{now_locked(), t};
    } else { // Evict
      ledger_.move(bi.owner, from, to, bi.bytes);
      if (bi.owner != QuotaLedger::kUnowned) {
        TenantState& st = tenants_[bi.owner];
        ++st.evicts;
        st.evict_bytes += bi.bytes;
      }
    }
  }
}

// ---- forwarding introspection ----

ooc::EngineStats TenantEngine::engine_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.engine_stats();
}

bool TenantEngine::quiescent() const {
  std::lock_guard<std::mutex> lk(mu_);
  return adm_.total_queued() == 0 && inner_.quiescent();
}

std::size_t TenantEngine::total_waiting() const {
  std::lock_guard<std::mutex> lk(mu_);
  return adm_.total_queued() + inner_.total_waiting();
}

const std::vector<ooc::TierDesc>& TenantEngine::tiers() const {
  return inner_.tiers(); // immutable after construction
}

std::uint64_t TenantEngine::tier_used(std::int32_t level) const {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.tier_used(level);
}

ooc::BlockState TenantEngine::block_state(ooc::BlockId b) const {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.block_state(b);
}

std::int32_t TenantEngine::block_level(ooc::BlockId b) const {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.block_level(b);
}

std::uint32_t TenantEngine::refcount(ooc::BlockId b) const {
  std::lock_guard<std::mutex> lk(mu_);
  return inner_.refcount(b);
}

std::vector<std::string> TenantEngine::audit_invariants(
    bool at_quiescence) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out =
      inner_.audit_invariants(at_quiescence);
  for (auto& line : ledger_.audit(inner_, at_quiescence)) {
    out.push_back(std::move(line));
  }
  std::uint64_t admitted = 0, completed = 0;
  for (const auto& st : tenants_) {
    admitted += st.admitted;
    completed += st.completed;
  }
  char buf[160];
  if (admitted - completed != inner_live_ ||
      task_tenant_.size() != inner_live_) {
    std::snprintf(buf, sizeof(buf),
                  "tenancy live mismatch: admitted %" PRIu64
                  " - completed %" PRIu64 " vs live %zu (tracked %zu)",
                  admitted, completed, inner_live_,
                  task_tenant_.size());
    out.emplace_back(buf);
  }
  return out;
}

// ---- priority dispatch ----

int TenantEngine::dispatch_rank_locked(const ooc::Command& c) const {
  if (c.kind == ooc::Command::Kind::Evict) return -1;
  if (c.kind != ooc::Command::Kind::Fetch) return 0;
  const auto it = fetch_inflight_.find(c.block);
  if (it == fetch_inflight_.end()) return 0;
  return qos_rank(reg_.desc(it->second.tenant).qos);
}

TenantId TenantEngine::command_tenant_locked(const ooc::Command& c) const {
  if (c.kind == ooc::Command::Kind::Fetch) {
    const auto it = fetch_inflight_.find(c.block);
    if (it != fetch_inflight_.end()) return it->second.tenant;
  }
  return QuotaLedger::kUnowned;
}

void TenantEngine::note_displacement_locked(TenantId winner,
                                            TenantId loser) {
  if (winner < tenants_.size()) ++tenants_[winner].displaced;
  if (loser < tenants_.size()) ++tenants_[loser].displaced_by;
}

// ---- observability ----

std::vector<TenantSnapshot> TenantEngine::snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<TenantSnapshot> out;
  out.reserve(reg_.size());
  for (TenantId t = 0; t < reg_.size(); ++t) {
    const TenantState& st = tenants_[t];
    TenantSnapshot s;
    s.desc = reg_.desc(t);
    s.submitted = st.submitted;
    s.admitted = st.admitted;
    s.deferred = st.deferred;
    s.rejected = st.rejected;
    s.forced = st.forced;
    s.completed = st.completed;
    s.queued_now = adm_.queued(t);
    s.fetches = st.fetches;
    s.fetch_bytes = st.fetch_bytes;
    s.evicts = st.evicts;
    s.evict_bytes = st.evict_bytes;
    s.displaced = st.displaced;
    s.displaced_by = st.displaced_by;
    s.borrows = st.borrows;
    const std::int32_t levels = ledger_.num_levels();
    for (std::int32_t l = 0; l < levels; ++l) {
      s.quota_used.push_back(ledger_.used(t, l));
      s.quota_reserved.push_back(ledger_.reserved(t, l));
    }
    s.fetch_samples = st.fetch_samples;
    if (!st.samples.empty()) {
      s.fetch_p50_s = hmr::percentile(st.samples, 0.50);
      s.fetch_p99_s = hmr::percentile(st.samples, 0.99);
    }
    s.fetch_max_s = st.fetch_max_s;
    if (burn_window_s_ > 0 && !st.window_samples.empty()) {
      // Re-filter against *now* (trimming happens on completions, so
      // an idle tenant's stale samples age out here too).
      const double cutoff = now_locked() - burn_window_s_;
      std::vector<double> w;
      w.reserve(st.window_samples.size());
      for (const auto& [at, lat] : st.window_samples) {
        if (at >= cutoff) w.push_back(lat);
      }
      if (!w.empty()) s.window_p99_s = hmr::percentile(w, 0.99);
    }
    if (s.desc.slo_p99_fetch_s > 0 && s.window_p99_s > 0) {
      s.slo_burn = s.window_p99_s / s.desc.slo_p99_fetch_s;
    }
    s.first_completion_s = st.first_completion_s;
    s.last_completion_s = st.last_completion_s;
    out.push_back(std::move(s));
  }
  return out;
}

void TenantEngine::write_json(std::ostream& os) const {
  const std::vector<TenantSnapshot> snaps = snapshots();
  os << "{\"tenants\":[";
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    const TenantSnapshot& s = snaps[i];
    if (i) os << ",";
    os << "{\"id\":" << s.desc.id << ",\"name\":\"" << s.desc.name
       << "\",\"qos\":\"" << qos_class_name(s.desc.qos)
       << "\",\"slo_p99_fetch_s\":" << s.desc.slo_p99_fetch_s
       << ",\"submitted\":" << s.submitted
       << ",\"admitted\":" << s.admitted
       << ",\"deferred\":" << s.deferred
       << ",\"rejected\":" << s.rejected << ",\"forced\":" << s.forced
       << ",\"completed\":" << s.completed
       << ",\"queued_now\":" << s.queued_now
       << ",\"fetches\":" << s.fetches
       << ",\"fetch_bytes\":" << s.fetch_bytes
       << ",\"evicts\":" << s.evicts
       << ",\"evict_bytes\":" << s.evict_bytes
       << ",\"displaced\":" << s.displaced
       << ",\"displaced_by\":" << s.displaced_by
       << ",\"borrows\":" << s.borrows << ",\"quota_used\":[";
    for (std::size_t l = 0; l < s.quota_used.size(); ++l) {
      if (l) os << ",";
      os << s.quota_used[l];
    }
    os << "],\"quota_reserved\":[";
    for (std::size_t l = 0; l < s.quota_reserved.size(); ++l) {
      if (l) os << ",";
      os << s.quota_reserved[l];
    }
    os << "],\"fetch_samples\":" << s.fetch_samples
       << ",\"fetch_p50_s\":" << s.fetch_p50_s
       << ",\"fetch_p99_s\":" << s.fetch_p99_s
       << ",\"fetch_max_s\":" << s.fetch_max_s
       << ",\"window_p99_s\":" << s.window_p99_s
       << ",\"slo_burn\":" << s.slo_burn << "}";
  }
  os << "]}";
}

void TenantEngine::export_metrics(telemetry::MetricsRegistry& reg) const {
  const std::vector<TenantSnapshot> snaps = snapshots();
  for (const TenantSnapshot& s : snaps) {
    const std::string labels = "tenant=\"" + s.desc.name + "\"";
    reg.counter("hmr_tenant_submitted_total", labels).set(s.submitted);
    reg.counter("hmr_tenant_admitted_total", labels).set(s.admitted);
    reg.counter("hmr_tenant_deferred_total", labels).set(s.deferred);
    reg.counter("hmr_tenant_rejected_total", labels).set(s.rejected);
    reg.counter("hmr_tenant_forced_total", labels).set(s.forced);
    reg.counter("hmr_tenant_completed_total", labels).set(s.completed);
    reg.counter("hmr_tenant_fetches_total", labels).set(s.fetches);
    reg.counter("hmr_tenant_fetch_bytes_total", labels)
        .set(s.fetch_bytes);
    reg.counter("hmr_tenant_evict_bytes_total", labels)
        .set(s.evict_bytes);
    reg.counter("hmr_tenant_borrows_total", labels).set(s.borrows);
    reg.counter("hmr_tenant_displaced_total", labels).set(s.displaced);
    reg.gauge("hmr_tenant_queued", labels).set(
        static_cast<double>(s.queued_now));
    reg.gauge("hmr_tenant_fetch_p99_seconds", labels)
        .set(s.fetch_p99_s);
    reg.gauge("hmr_tenant_window_p99_seconds", labels,
              "Attained fetch p99 over the rolling burn window")
        .set(s.window_p99_s);
    reg.gauge("hmr_tenant_slo_burn", labels,
              "Window p99 over SLO target (>1 = missing the SLO)")
        .set(s.slo_burn);
    for (std::size_t l = 0; l < s.quota_used.size(); ++l) {
      const std::string ll =
          labels + ",level=\"" + std::to_string(l) + "\"";
      reg.gauge("hmr_tenant_quota_used_bytes", ll)
          .set(static_cast<double>(s.quota_used[l]));
      reg.gauge("hmr_tenant_quota_reserved_bytes", ll)
          .set(static_cast<double>(s.quota_reserved[l]));
    }
  }
}

} // namespace hmr::serve
