#include "ooc/protocol.hpp"

#include <unordered_map>

namespace hmr::ooc {

std::vector<std::string> audit_protocol(const ProtocolSnapshot& s,
                                        bool at_quiescence) {
  std::vector<std::string> v;
  const auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };
  const auto levels = static_cast<std::size_t>(s.num_levels);

  // Task-side ground truth: admitted tasks hold one refcount per
  // dependence (when they claimed them), one slow claim per bypassed
  // dependence, and their fresh claim bytes make up the per-PE ledger.
  std::unordered_map<TaskId, const ProtocolSnapshot::Task*> by_id;
  std::unordered_map<BlockId, std::uint32_t> want_ref;
  std::unordered_map<BlockId, std::uint32_t> want_slow;
  std::vector<std::uint64_t> want_claims(s.pe_claims.size(), 0);
  for (const auto& t : s.tasks) {
    by_id.emplace(t.id, &t);
    if (t.waiting) continue;
    want_claims[static_cast<std::size_t>(t.pe)] += t.claim_bytes;
    if (!t.holds_deps) continue;
    for (const Dep& d : *t.deps) ++want_ref[d.block];
    if (t.bypassed != nullptr) {
      for (const BlockId b : *t.bypassed) ++want_slow[b];
    }
  }
  std::size_t queued = 0;
  for (std::size_t pe = 0; pe < s.wait_queues.size(); ++pe) {
    for (const TaskId t : *s.wait_queues[pe]) {
      ++queued;
      const auto it = by_id.find(t);
      if (it == by_id.end() || !it->second->waiting) {
        fail("queued task " + std::to_string(t) + " on pe " +
             std::to_string(pe) + " has no waiting record");
      }
    }
  }

  // Block-side ground truth.  A migrating block holds budget on both
  // ends: its bytes were claimed on the destination at schedule time
  // and are released from the source only when the copy lands
  // (mirrors when numa_free returns the bytes).
  std::vector<std::uint64_t> want_used(levels, 0);
  std::vector<std::uint64_t> want_outbound(levels, 0);
  std::size_t want_fetch = 0, want_evict = 0;
  std::unordered_map<TaskId, std::uint32_t> waits; // waiter entries per task
  for (const auto& br : s.blocks) {
    const std::string tag = "block " + std::to_string(br.id) + ": ";
    if (br.level < 0 || br.level >= s.num_levels || br.from_level < -1 ||
        br.from_level >= s.num_levels || br.from_level == br.level) {
      fail(tag + "bad level pair " + std::to_string(br.level) + " <- " +
           std::to_string(br.from_level));
      continue;
    }
    want_used[static_cast<std::size_t>(br.level)] += br.bytes;
    if (br.from_level >= 0) {
      want_used[static_cast<std::size_t>(br.from_level)] += br.bytes;
      want_outbound[static_cast<std::size_t>(br.from_level)] += br.bytes;
      ++(br.level == 0 ? want_fetch : want_evict);
    }
    if (!br.waiters.empty() &&
        state_of(br.level, br.from_level) != BlockState::FetchInFlight) {
      fail(tag + "has fetch waiters but no fetch in flight");
    }
    for (const TaskId w : br.waiters) {
      ++waits[w];
      const auto it = by_id.find(w);
      if (it == by_id.end() || it->second->waiting ||
          it->second->missing == 0) {
        fail(tag + "waiter task " + std::to_string(w) +
             " is not an admitted task with missing deps");
      }
    }
    const auto ref = want_ref.find(br.id);
    const std::uint32_t wr = ref == want_ref.end() ? 0 : ref->second;
    if (br.refcount != wr) {
      fail(tag + "refcount " + std::to_string(br.refcount) +
           " but admitted tasks reference it " + std::to_string(wr) + "x");
    }
    const auto slow = want_slow.find(br.id);
    const std::uint32_t ws = slow == want_slow.end() ? 0 : slow->second;
    if (br.slow_claims != ws) {
      fail(tag + "slow_claims " + std::to_string(br.slow_claims) + " != " +
           std::to_string(ws) + " bypassed live deps");
    }
    if (at_quiescence) {
      if (br.refcount != 0) {
        fail(tag + "refcount " + std::to_string(br.refcount) +
             " at quiescence (no task can be holding it)");
      }
      if (br.slow_claims != 0) fail(tag + "slow claims at quiescence");
      if (br.from_level >= 0) fail(tag + "still migrating at quiescence");
      if (!br.waiters.empty()) fail(tag + "waiters at quiescence");
    }
  }
  for (const auto& t : s.tasks) {
    if (t.waiting) continue;
    const auto it = waits.find(t.id);
    const std::uint32_t seen = it == waits.end() ? 0 : it->second;
    if (t.missing != seen) {
      fail("task " + std::to_string(t.id) + ": missing " +
           std::to_string(t.missing) + " != " + std::to_string(seen) +
           " waiter entries");
    }
  }

  // The engine's counters and ledgers vs the recomputation.
  for (std::size_t k = 0; k < s.used.size() && k < levels; ++k) {
    if (s.used[k] != want_used[k]) {
      fail("level " + std::to_string(k) + ": used " +
           std::to_string(s.used[k]) + " != " +
           std::to_string(want_used[k]) + " summed over block records");
    }
  }
  for (std::size_t k = 0; k < s.outbound.size() && k < levels; ++k) {
    if (s.outbound[k] != want_outbound[k]) {
      fail("level " + std::to_string(k) + ": outbound " +
           std::to_string(s.outbound[k]) + " != " +
           std::to_string(want_outbound[k]));
    }
  }
  if (queued != s.n_waiting) {
    fail("n_waiting " + std::to_string(s.n_waiting) + " != " +
         std::to_string(queued) + " queued tasks");
  }
  // Every record is either queued or live: a completed task's record
  // must be gone.
  if (s.tasks.size() != queued + s.n_live) {
    fail("n_live " + std::to_string(s.n_live) + " + " +
         std::to_string(queued) + " queued != " +
         std::to_string(s.tasks.size()) + " task records");
  }
  if (want_fetch != s.n_inflight_fetch || want_evict != s.n_inflight_evict) {
    fail("in-flight counters fetch=" + std::to_string(s.n_inflight_fetch) +
         "/evict=" + std::to_string(s.n_inflight_evict) +
         " != block records fetch=" + std::to_string(want_fetch) +
         "/evict=" + std::to_string(want_evict));
  }
  for (std::size_t pe = 0; pe < s.pe_claims.size(); ++pe) {
    if (s.pe_claims[pe] != want_claims[pe]) {
      fail("pe " + std::to_string(pe) + ": claim ledger " +
           std::to_string(s.pe_claims[pe]) + " != " +
           std::to_string(want_claims[pe]) + " over admitted tasks");
    }
  }
  if (at_quiescence) {
    if (!s.quiescent) fail("quiescent() false at claimed quiescence");
    if (queued != 0) fail("wait queues not empty at quiescence");
  }
  return v;
}

} // namespace hmr::ooc
