#pragma once
// ShardedEngine: a concurrent, sharded implementation of the
// PolicyEngine protocol for the threaded runtime's hot path.
//
// The single ooc::PolicyEngine is a serial state machine: the runtime
// wraps every event (task arrival, fetch/evict completion, task
// completion) in one global mutex, so with many PEs the scheduler
// itself becomes the bottleneck — exactly the overhead the paper's
// runtime is supposed to avoid.  This engine de-serializes it:
//
//   * every PE is its own shard, which owns the PE's wait queue and
//     task records behind its own mutex, so admission and completion
//     on different PEs never contend;
//   * block records live in a global table behind *striped* mutexes
//     (stripe = block id mod 64); an admission locks only the stripes
//     of its dependences, in sorted order, making the all-or-nothing
//     claim atomic without any global lock;
//   * every bounded hierarchy level has its own ooc::TierBudget:
//     per-shard sub-budgets with atomic claim/release and a
//     work-stealing slow path, so a claim fails only when the node
//     genuinely lacks the bytes;
//   * idle/quiescence counters and per-PE fairness claims are padded
//     atomics.
//
// N-tier placement: fetches promote from any level to level 0;
// evictions probe the middle levels' budgets in speed order
// (try_claim = an exact, concurrent fit check) and land on the first
// with room, overflowing to the unbounded bottom.  Unlike the serial
// engine there is no watermark trim of middle levels — a middle tier
// fills, then overflows; it drains when its blocks are promoted back.
// The trade keeps every eviction a single-stripe operation (a trim
// would lock victim stripes from a completion context).  Two-level
// configs behave exactly like the PR 2 engine.
//
// Scope: the MultiIo strategy with eager eviction (the paper's best
// configuration and the runtime's default); covers() says which
// configurations that is.  SingleIo's round-robin, SyncNoIo, lazy
// eviction's shared LRU and the adaptive advisor are inherently global
// and stay on the serial engine; the Runtime picks per configuration.
//
// The two engines share one Config and one set of protocol steps
// (ooc/protocol.hpp): tier resolution, the block-state view, arrival
// validation, the fair-share gate, the Run/Fetch/Evict builders with
// their counters, and the invariant audit.  What is left here is what
// is really this engine's own: shards, stripe locks, TierBudgets and
// atomics — all-or-nothing admission as a two-pass claim under the
// dependences' stripes, fetch dedup via waiter lists, refcount-guarded
// eviction, and capacity released only when an eviction has finished.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "ooc/engine.hpp"
#include "ooc/policy_engine.hpp"
#include "ooc/tier_budget.hpp"
#include "ooc/types.hpp"
#include "trace/contention.hpp"

namespace hmr::rt {

class ShardedEngine : public ooc::Engine {
public:
  /// The serial engine's Config; resolved (tiers filled in) at
  /// construction, and it must be one covers() accepts.
  using Config = ooc::PolicyEngine::Config;

  /// True for the configurations this engine implements: MultiIo,
  /// eager eviction, no advisor and no parked-LRU watermark.
  static bool covers(const Config& cfg) {
    return cfg.strategy == ooc::Strategy::MultiIo && cfg.eager_evict &&
           cfg.advisor == nullptr && cfg.lru_watermark >= 1.0;
  }

  explicit ShardedEngine(Config cfg,
                         trace::ContentionStats* lock_stats = nullptr);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  const Config& config() const { return cfg_; }
  std::int32_t num_shards() const {
    return static_cast<std::int32_t>(shards_.size());
  }

  // ---- block registry ----
  // Registration/removal may race with events on *other* blocks but
  // callers serialize add/remove themselves (the Runtime allocates
  // under one small mutex to keep id spaces aligned with the
  // MemoryManager).  Movement strategies always place fresh blocks on
  // the bottom level; the returned tier id says which one that is.

  ooc::TierId add_block(ooc::BlockId b, std::uint64_t bytes) override;
  void remove_block(ooc::BlockId b) override;

  // ---- events (thread-safe; each returns commands to execute) ----

  std::vector<ooc::Command> on_task_arrived(
      const ooc::TaskDesc& task) override;
  std::vector<ooc::Command> on_fetch_complete(ooc::BlockId b) override;
  std::vector<ooc::Command> on_evict_complete(ooc::BlockId b) override;
  /// `pe` is the PE the task ran on (the executor always knows it; it
  /// routes the completion to the right shard without a global map).
  std::vector<ooc::Command> on_task_complete(ooc::TaskId t,
                                             std::int32_t pe) override;

  // ---- introspection ----

  ooc::EngineStats stats() const; // summed over shards
  ooc::EngineStats engine_stats() const override { return stats(); }
  /// One shard's counters (telemetry export labels them shard="s").
  ooc::EngineStats shard_stats(std::int32_t s) const;
  bool quiescent() const override;
  std::uint64_t fast_used() const { return budgets_[0]->used(); }
  std::uint64_t fast_capacity() const { return cfg_.fast_capacity; }
  std::uint64_t budget_steals() const { return budgets_[0]->steals(); }
  std::size_t total_waiting() const override {
    return n_waiting_.load(std::memory_order_acquire);
  }
  const std::vector<ooc::TierDesc>& tiers() const override {
    return cfg_.tiers;
  }
  std::int32_t num_levels() const {
    return static_cast<std::int32_t>(cfg_.tiers.size());
  }
  /// Bytes claimed on a bounded level; on the unbounded bottom level,
  /// registered bytes minus what the bounded levels hold.  Approximate
  /// under concurrency (like TierBudget::used), exact at quiescence.
  std::uint64_t tier_used(std::int32_t level) const override;
  ooc::BlockState block_state(ooc::BlockId b) const override;
  std::int32_t block_level(ooc::BlockId b) const override;
  std::uint32_t refcount(ooc::BlockId b) const override;

  /// Engine events processed since construction (any kind).  The stall
  /// watchdog reads this as a progress signal: outstanding work with
  /// this counter frozen means the protocol is wedged, not slow.
  std::uint64_t events_processed() const {
    return events_.load(std::memory_order_relaxed);
  }

  /// The shared protocol audit (ooc/protocol.hpp) over a snapshot of
  /// the shard and block records, with each bounded level's
  /// TierBudget::used() as its byte count (and, at quiescence, the
  /// bottom level's derived count too).  Returns one line per
  /// violation (empty = clean).  Takes every shard, registry and
  /// stripe lock; exact only at quiescence (budget releases commit
  /// outside the stripe critical sections), which is when the Runtime
  /// calls it — from wait_idle with `at_quiescence = true`.
  std::vector<std::string> audit_invariants(
      bool at_quiescence) const override;

private:
  static constexpr std::size_t kStripes = 64;
  static constexpr std::size_t kChunkShift = 9; // 512 blocks per chunk
  static constexpr std::size_t kChunkSize = 1u << kChunkShift;
  static constexpr std::size_t kMaxChunks = 1u << 15; // 16M blocks

  struct TaskRec {
    ooc::TaskDesc desc;
    std::uint64_t claim_bytes = 0;
    std::atomic<std::uint32_t> missing{0};
  };

  struct BlockRec {
    std::uint64_t bytes = 0;
    /// Hierarchy level the block occupies; while migrating, the
    /// destination (same encoding as the serial engine's BlockRec).
    std::int32_t level = 0;
    std::int32_t from_level = -1; // migration source, -1 = resident
    std::uint32_t refcount = 0;
    /// Sub-budget shard charged for the block's `level` claim.
    std::int32_t claim_shard = 0;
    /// Sub-budget shard charged for the `from_level` claim, released
    /// when the migration lands (valid while from_level >= 0).
    std::int32_t src_claim_shard = 0;
    bool live = false;
    std::vector<TaskRec*> waiters; // admitted tasks awaiting the fetch
  };

  /// One PE's engine state; shards_[pe].
  struct alignas(64) Shard {
    std::mutex mu;
    std::deque<ooc::TaskId> wait_q;
    std::unordered_map<ooc::TaskId, std::unique_ptr<TaskRec>> tasks;
    ooc::EngineStats stats;
  };

  struct alignas(64) Stripe {
    std::mutex mu;
  };

  struct alignas(64) PeClaim {
    std::atomic<std::uint64_t> bytes{0};
  };

  /// The record slot of block id `b` (live or freed; a never-used
  /// slot reads not live), or nullptr when its chunk was never
  /// allocated.
  BlockRec* find_block(ooc::BlockId b) const;
  BlockRec& block(ooc::BlockId b) const;
  Stripe& stripe(ooc::BlockId b) const {
    return stripes_[static_cast<std::size_t>(b) % kStripes];
  }

  /// Lock the stripes of every dependence of `t`, in sorted order.
  class StripeLockSet;

  /// Attempt to admit `tr` (FIFO head or arrival fast path).  With
  /// `only_if_free`, admits only when no fresh fast-tier bytes are
  /// needed (the paper's arrival fast path, which skips the queue and
  /// the fairness gate).  Caller holds tr's shard mutex.
  bool try_admit(Shard& sh, TaskRec& tr, bool only_if_free,
                 std::vector<ooc::Command>& cmds);

  /// Admit admissible FIFO heads of `sh`'s wait queue.  Caller holds
  /// sh.mu.
  void drain_locked(Shard& sh, std::vector<ooc::Command>& cmds);

  /// Lock shard `s` (counted) and drain it.
  void drain_shard(std::size_t s, std::vector<ooc::Command>& cmds);

  void lock_shard(std::size_t s) {
    trace::lock_counted(shards_[s].mu, lock_stats_, s);
  }

  std::int32_t bottom() const {
    return static_cast<std::int32_t>(cfg_.tiers.size()) - 1;
  }

  Config cfg_; // resolved: cfg_.tiers is the hierarchy
  /// One budget per bounded level (index = level); nullptr for the
  /// unbounded bottom level.
  std::vector<std::unique_ptr<ooc::TierBudget>> budgets_;
  trace::ContentionStats* lock_stats_;

  std::vector<Shard> shards_;
  mutable std::array<Stripe, kStripes> stripes_;
  std::vector<PeClaim> pe_claims_;

  // Block table: chunked stable storage so readers index without a
  // registry lock while add_block appends.
  std::mutex registry_mu_;
  std::vector<std::atomic<BlockRec*>> chunks_;
  std::atomic<std::uint64_t> n_blocks_{0};
  /// Bytes of every registered block (the bottom level's tier_used).
  alignas(64) std::atomic<std::uint64_t> registered_bytes_{0};

  alignas(64) std::atomic<std::uint64_t> events_{0};
  alignas(64) std::atomic<std::size_t> n_waiting_{0};
  alignas(64) std::atomic<std::size_t> n_live_{0};
  alignas(64) std::atomic<std::size_t> n_inflight_fetch_{0};
  alignas(64) std::atomic<std::size_t> n_inflight_evict_{0};
};

} // namespace hmr::rt
