#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>

#include "util/check.hpp"

namespace hmr::telemetry {

namespace {

std::string key_of(const std::string& name, const std::string& labels) {
  std::string k = name;
  k.push_back('\x01');
  k += labels;
  return k;
}

/// `name{labels}` or bare `name`.
std::string full_name(const MetricDesc& d) {
  if (d.labels.empty()) return d.name;
  return d.name + "{" + d.labels + "}";
}

/// HELP text escaping per the exposition format: only `\` and
/// newline are special (label *values* additionally escape `"`, done
/// in prom_label at construction time since labels are stored as
/// already-rendered `key="value"` text).
void prom_escape_help(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      default: os << c;
    }
  }
}

/// Series grouped by metric name: one family per name, in order of the
/// name's first appearance, each holding its series in registration
/// order.  The registry may interleave names (node-wide series and
/// their per-shard copies are registered apart), but the exposition
/// format wants every family as one contiguous group.
template <class Val>
std::vector<std::vector<const Val*>> families(const std::vector<Val>& vals) {
  std::vector<std::vector<const Val*>> out;
  std::unordered_map<std::string_view, std::size_t> at;
  for (const Val& v : vals) {
    const auto [it, fresh] = at.try_emplace(v.desc.name, out.size());
    if (fresh) out.emplace_back();
    out[it->second].push_back(&v);
  }
  return out;
}

/// HELP/TYPE preamble, once per family; HELP is the first non-empty
/// help text among the family's series.
template <class Val>
void prometheus_preamble(std::ostream& os,
                         const std::vector<const Val*>& family,
                         const char* type) {
  const std::string& name = family.front()->desc.name;
  for (const Val* v : family) {
    if (v->desc.help.empty()) continue;
    os << "# HELP " << name << " ";
    prom_escape_help(os, v->desc.help);
    os << "\n";
    break;
  }
  os << "# TYPE " << name << " " << type << "\n";
}

/// A raw newline inside a stored label string would break the
/// line-oriented exposition format no matter how values were escaped.
void validate_desc(const std::string& name, const std::string& labels) {
  HMR_CHECK_MSG(valid_metric_name(name),
                "invalid metric name (want [a-zA-Z_:][a-zA-Z0-9_:]*)");
  HMR_CHECK_MSG(labels.find('\n') == std::string::npos,
                "raw newline in label string (use prom_label)");
}

} // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
        c == ':';
    if (!(alpha || (i > 0 && c >= '0' && c <= '9'))) return false;
  }
  return true;
}

std::string prom_label(std::string_view key, std::string_view value) {
  HMR_CHECK_MSG(valid_metric_name(key) &&
                    key.find(':') == std::string_view::npos,
                "invalid label key");
  std::string out(key);
  out += "=\"";
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  out += "\"";
  return out;
}

void json_escape(std::ostream& os, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

const MetricsSnapshot::CounterVal* MetricsSnapshot::counter(
    const std::string& name, const std::string& labels) const {
  for (const auto& c : counters) {
    if (c.desc.name == name && c.desc.labels == labels) return &c;
  }
  return nullptr;
}

const MetricsSnapshot::GaugeVal* MetricsSnapshot::gauge(
    const std::string& name, const std::string& labels) const {
  for (const auto& g : gauges) {
    if (g.desc.name == name && g.desc.labels == labels) return &g;
  }
  return nullptr;
}

const MetricsSnapshot::HistogramVal* MetricsSnapshot::histogram(
    const std::string& name, const std::string& labels) const {
  for (const auto& h : histograms) {
    if (h.desc.name == name && h.desc.labels == labels) return &h;
  }
  return nullptr;
}

MetricsRegistry::MetricsRegistry()
    : t0_(std::chrono::steady_clock::now()) {}

double MetricsRegistry::uptime() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0_)
      .count();
}

const MetricsRegistry::Registered* MetricsRegistry::find_locked(
    const std::string& key) const {
  for (const auto& [k, r] : index_) {
    if (k == key) return &r;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& labels,
                                  const std::string& help) {
  validate_desc(name, labels);
  std::lock_guard lk(mu_);
  const std::string key = key_of(name, labels);
  if (const Registered* r = find_locked(key)) {
    HMR_CHECK_MSG(r->type == Type::Counter,
                  "metric registered under two instrument types");
    return counters_[r->index].second;
  }
  counters_.emplace_back(); // instruments hold atomics: construct in
  counters_.back().first = MetricDesc{name, labels, help}; // place
  index_.emplace_back(key, Registered{Type::Counter, counters_.size() - 1});
  return counters_.back().second;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& labels,
                              const std::string& help) {
  validate_desc(name, labels);
  std::lock_guard lk(mu_);
  const std::string key = key_of(name, labels);
  if (const Registered* r = find_locked(key)) {
    HMR_CHECK_MSG(r->type == Type::Gauge,
                  "metric registered under two instrument types");
    return gauges_[r->index].second;
  }
  gauges_.emplace_back();
  gauges_.back().first = MetricDesc{name, labels, help};
  index_.emplace_back(key, Registered{Type::Gauge, gauges_.size() - 1});
  return gauges_.back().second;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& labels,
                                      const std::string& help) {
  validate_desc(name, labels);
  std::lock_guard lk(mu_);
  const std::string key = key_of(name, labels);
  if (const Registered* r = find_locked(key)) {
    HMR_CHECK_MSG(r->type == Type::Histogram,
                  "metric registered under two instrument types");
    return histograms_[r->index].second;
  }
  histograms_.emplace_back();
  histograms_.back().first = MetricDesc{name, labels, help};
  index_.emplace_back(key,
                      Registered{Type::Histogram, histograms_.size() - 1});
  return histograms_.back().second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  s.time = uptime();
  std::lock_guard lk(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [d, c] : counters_) {
    s.counters.push_back({d, c.value()});
  }
  s.gauges.reserve(gauges_.size());
  for (const auto& [d, g] : gauges_) {
    s.gauges.push_back({d, g.value()});
  }
  s.histograms.reserve(histograms_.size());
  for (const auto& [d, h] : histograms_) {
    MetricsSnapshot::HistogramVal hv;
    hv.desc = d;
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      hv.buckets[static_cast<std::size_t>(i)] = h.bucket_count(i);
    }
    hv.count = h.count();
    hv.sum = h.sum();
    s.histograms.push_back(std::move(hv));
  }
  return s;
}

void MetricsRegistry::write_prometheus(std::ostream& os,
                                       const MetricsSnapshot& s) {
  for (const auto& family : families(s.counters)) {
    prometheus_preamble(os, family, "counter");
    for (const auto* c : family) {
      os << full_name(c->desc) << " " << c->value << "\n";
    }
  }
  for (const auto& family : families(s.gauges)) {
    prometheus_preamble(os, family, "gauge");
    for (const auto* g : family) {
      os << full_name(g->desc) << " " << g->value << "\n";
    }
  }
  for (const auto& family : families(s.histograms)) {
    prometheus_preamble(os, family, "histogram");
    for (const auto* h : family) {
      const std::string sep = h->desc.labels.empty() ? "" : ",";
      // Cumulative buckets; trailing empty buckets are elided (the
      // +Inf line always carries the full count).
      int top = Histogram::kBuckets - 1;
      while (top > 0 && h->buckets[static_cast<std::size_t>(top)] == 0) {
        --top;
      }
      std::uint64_t cum = 0;
      for (int i = 0; i <= top; ++i) {
        cum += h->buckets[static_cast<std::size_t>(i)];
        os << h->desc.name << "_bucket{" << h->desc.labels << sep
           << "le=\"" << Histogram::bucket_upper(i) << "\"} " << cum
           << "\n";
      }
      os << h->desc.name << "_bucket{" << h->desc.labels << sep
         << "le=\"+Inf\"} " << h->count << "\n";
      os << h->desc.name << "_sum";
      if (!h->desc.labels.empty()) os << "{" << h->desc.labels << "}";
      os << " " << h->sum << "\n";
      os << h->desc.name << "_count";
      if (!h->desc.labels.empty()) os << "{" << h->desc.labels << "}";
      os << " " << h->count << "\n";
    }
  }
}

void MetricsRegistry::write_json(std::ostream& os,
                                 const MetricsSnapshot& s) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", s.time);
  os << "{\"time\":" << buf << ",\"counters\":[";
  bool first = true;
  for (const auto& c : s.counters) {
    os << (first ? "" : ",") << "\n{\"name\":\"";
    json_escape(os, c.desc.name);
    os << "\",\"labels\":\"";
    json_escape(os, c.desc.labels);
    os << "\",\"value\":" << c.value << "}";
    first = false;
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& g : s.gauges) {
    std::snprintf(buf, sizeof buf, "%.17g", g.value);
    os << (first ? "" : ",") << "\n{\"name\":\"";
    json_escape(os, g.desc.name);
    os << "\",\"labels\":\"";
    json_escape(os, g.desc.labels);
    os << "\",\"value\":" << buf << "}";
    first = false;
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& h : s.histograms) {
    os << (first ? "" : ",") << "\n{\"name\":\"";
    json_escape(os, h.desc.name);
    os << "\",\"labels\":\"";
    json_escape(os, h.desc.labels);
    os << "\",\"count\":" << h.count << ",\"sum\":" << h.sum
       << ",\"buckets\":[";
    int top = Histogram::kBuckets - 1;
    while (top > 0 && h.buckets[static_cast<std::size_t>(top)] == 0) {
      --top;
    }
    for (int i = 0; i <= top; ++i) {
      if (i > 0) os << ",";
      os << "{\"le\":" << Histogram::bucket_upper(i)
         << ",\"count\":" << h.buckets[static_cast<std::size_t>(i)] << "}";
    }
    os << "]}";
    first = false;
  }
  os << "]}\n";
}

SnapshotSampler::SnapshotSampler(MetricsRegistry& reg,
                                 std::chrono::milliseconds interval,
                                 PreSample pre_sample, std::size_t keep)
    : reg_(reg),
      interval_(interval),
      pre_(std::move(pre_sample)),
      keep_(std::max<std::size_t>(1, keep)) {}

SnapshotSampler::~SnapshotSampler() { stop(); }

void SnapshotSampler::start() {
  std::lock_guard lk(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] { loop(); });
}

void SnapshotSampler::stop() {
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

void SnapshotSampler::loop() {
  for (;;) {
    {
      std::unique_lock lk(mu_);
      if (cv_.wait_for(lk, interval_, [&] { return stop_; })) return;
    }
    if (pre_) pre_();
    append(reg_.snapshot());
  }
}

MetricsSnapshot SnapshotSampler::sample_now() {
  if (pre_) pre_();
  MetricsSnapshot s = reg_.snapshot();
  append(s);
  return s;
}

void SnapshotSampler::append(MetricsSnapshot s) {
  std::lock_guard lk(mu_);
  hist_.push_back(std::move(s));
  while (hist_.size() > keep_) hist_.pop_front();
}

std::vector<MetricsSnapshot> SnapshotSampler::history() const {
  std::lock_guard lk(mu_);
  return {hist_.begin(), hist_.end()};
}

} // namespace hmr::telemetry
