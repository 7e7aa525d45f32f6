#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/check.hpp"
#include "util/parse.hpp"

namespace hmr::telemetry {

std::size_t flight_depth_from_env(std::size_t fallback) {
  const char* env = std::getenv("HMR_FLIGHT_DEPTH");
  if (env == nullptr || *env == '\0') return fallback;
  const auto v = parse_u64(env);
  if (!v) return fallback; // not a plain unsigned number
  return static_cast<std::size_t>(std::min<std::uint64_t>(*v, 1024));
}

BlockFlightRecorder::BlockFlightRecorder(std::size_t depth)
    : depth_(depth) {
  HMR_CHECK(depth_ > 0);
}

void BlockFlightRecorder::record(ooc::BlockId b, const Transition& t) {
  Stripe& st = stripe(b);
  std::lock_guard lk(st.mu);
  Ring& r = st.blocks[b];
  if (r.slots.size() < depth_) {
    if (r.slots.empty()) r.slots.reserve(depth_); // the only allocation
    r.slots.push_back(t);
  } else {
    r.slots[r.n % depth_] = t;
  }
  ++r.n;
}

void BlockFlightRecorder::forget(ooc::BlockId b) {
  Stripe& st = stripe(b);
  std::lock_guard lk(st.mu);
  st.blocks.erase(b);
}

std::size_t BlockFlightRecorder::tracked_blocks() const {
  std::size_t n = 0;
  for (const Stripe& st : stripes_) {
    std::lock_guard lk(st.mu);
    n += st.blocks.size();
  }
  return n;
}

std::vector<BlockFlightRecorder::Transition> BlockFlightRecorder::history(
    ooc::BlockId b) const {
  const Stripe& st = stripe(b);
  std::lock_guard lk(st.mu);
  const auto it = st.blocks.find(b);
  if (it == st.blocks.end()) return {};
  const Ring& r = it->second;
  std::vector<Transition> out;
  out.reserve(r.slots.size());
  if (r.n <= r.slots.size()) {
    out = r.slots;
  } else {
    // The ring wrapped: oldest entry sits at the next write position.
    const std::size_t head = r.n % depth_;
    for (std::size_t i = 0; i < r.slots.size(); ++i) {
      out.push_back(r.slots[(head + i) % depth_]);
    }
  }
  return out;
}

std::uint64_t BlockFlightRecorder::total_recorded(ooc::BlockId b) const {
  const Stripe& st = stripe(b);
  std::lock_guard lk(st.mu);
  const auto it = st.blocks.find(b);
  return it == st.blocks.end() ? 0 : it->second.n;
}

void BlockFlightRecorder::dump_block(std::ostream& os,
                                     ooc::BlockId b) const {
  const auto hist = history(b);
  os << "block " << b << " (" << total_recorded(b)
     << " transitions, last " << hist.size() << "):\n";
  for (const auto& t : hist) {
    os << "  t=" << t.time << " " << (t.fetch ? "fetch" : "evict") << " "
       << t.src_tier << "->" << t.dst_tier << " bytes=" << t.bytes;
    if (t.task != 0) os << " task=" << t.task;
    os << "\n";
  }
}

void BlockFlightRecorder::dump(std::ostream& os) const {
  std::vector<ooc::BlockId> ids;
  for (const Stripe& st : stripes_) {
    std::lock_guard lk(st.mu);
    for (const auto& [b, r] : st.blocks) ids.push_back(b);
  }
  std::sort(ids.begin(), ids.end());
  for (const ooc::BlockId b : ids) dump_block(os, b);
}

} // namespace hmr::telemetry
