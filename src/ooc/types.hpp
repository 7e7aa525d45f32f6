#pragma once
// Core vocabulary of the memory-heterogeneity-aware runtime layer:
// access modes, data-dependence declarations, task descriptors, the
// scheduling strategies of the paper, and the command protocol between
// the policy engine and an executor.

#include <cstdint>
#include <string>
#include <vector>

#include "mem/memory_manager.hpp" // for mem::BlockId

namespace hmr::ooc {

using mem::BlockId;
using mem::TierId;
using TaskId = std::uint64_t;
inline constexpr TaskId kInvalidTask = ~0ull;

/// Access modes of the paper's .ci data-dependence annotations
/// (`[readwrite: A, writeonly: B]` on a `[prefetch]` entry method).
enum class AccessMode : std::uint8_t { ReadOnly, ReadWrite, WriteOnly };

const char* access_mode_name(AccessMode m);

/// One declared data dependence of a task.
struct Dep {
  BlockId block = mem::kInvalidBlock;
  AccessMode mode = AccessMode::ReadWrite;
};

/// A unit of schedulable work: one entry-method invocation of one chare
/// (the paper's OOCTask).  `pe` is the chare's home PE — tasks never
/// migrate, matching Charm++ semantics outside load balancing.
struct TaskDesc {
  TaskId id = kInvalidTask;
  std::int32_t pe = 0;
  std::vector<Dep> deps;

  /// Kernel intensity: how many times the kernel streams over its
  /// dependence bytes (tiling-style repeated passes raise this).
  double work_factor = 1.0;

  /// False for entry methods without the [prefetch] attribute: the
  /// converse scheduler delivers them directly, no interception.
  bool prefetch = true;

  /// Message dependences: this task's message is only *sent* (arrives
  /// at the converse scheduler) after these tasks completed — how
  /// Charm++ applications express per-chare iteration order without a
  /// global barrier.  Enforced by the executor (delivery order), not
  /// the PolicyEngine (which, like the paper's runtime, only sees
  /// messages that have arrived).
  std::vector<TaskId> predecessors;

  /// Owning tenant for multi-tenant serving (src/serve).  Ignored by
  /// the core engines; the serve::TenantEngine decorator keys
  /// admission, quotas and per-tenant stats on it.  0 is the default
  /// tenant, so single-tenant callers never have to set it.
  std::uint32_t tenant = 0;
};

/// Scheduling strategies evaluated in the paper (§IV-B / §V).
enum class Strategy : std::uint8_t {
  /// HBM-preferred static allocation, overflow to DDR4, no movement.
  Naive,
  /// Everything on DDR4 (the DDR4only bar of Fig 9).
  DdrOnly,
  /// Everything on HBM; only valid when the working set fits (Fig 2).
  HbmOnly,
  /// Multiple wait queues (one per PE), a single IO thread fetching
  /// and evicting for everyone, asynchronously.
  SingleIo,
  /// Multiple wait queues, no IO thread: each worker fetches/evicts
  /// its own data synchronously in the pre/post-processing steps.
  SyncNoIo,
  /// Multiple wait queues, one IO thread per PE, asynchronous.
  MultiIo,
};

const char* strategy_name(Strategy s);

/// True for the strategies that move data (prefetch/evict protocol).
bool strategy_moves_data(Strategy s);

/// Where a block's storage should be placed at registration time.
/// How a hierarchy level's bytes are physically realized.  The engine
/// treats every backend identically for placement (capacity, cascade,
/// watermark); the distinction is what a migration touching the level
/// *costs* — executors charge a Remote level's transfers against a
/// network channel (latency + bandwidth + message rate) instead of a
/// local copy channel, and engines count the traffic separately
/// (EngineStats::remote_*).
enum class TierBackendKind : std::uint8_t {
  LocalArena, // node-local memory pool (the classic tier)
  Remote,     // disaggregated pool reached over the interconnect
};

const char* tier_backend_name(TierBackendKind k);

/// Cost parameters of the network path behind a Remote tier backend.
/// Plain numbers (no sim dependency): sim::NetworkModel::tier_params
/// produces them, and the DES reconstructs message timing from them.
/// A transfer of B bytes is segmented into ceil(B / max_msg_bytes)
/// messages and costs
///   latency + max(B / bandwidth, messages / msg_rate)
/// — the message-rate term dominates in the small-message regime.
struct RemoteTierParams {
  double latency = 2e-6;     // per transfer, seconds (message chain setup)
  double bandwidth = 10.0e9; // serialization bytes/s (link/injection min)
  double msg_rate = 2.5e7;   // messages/s the NIC can issue
  std::uint64_t max_msg_bytes = 64ull << 10; // segmentation unit

  std::uint64_t messages(std::uint64_t bytes) const {
    if (max_msg_bytes == 0) return 1;
    const std::uint64_t n = (bytes + max_msg_bytes - 1) / max_msg_bytes;
    return n > 0 ? n : 1;
  }
  double serialize_seconds(std::uint64_t bytes) const {
    const double bw_term = static_cast<double>(bytes) / bandwidth;
    const double msg_term =
        static_cast<double>(messages(bytes)) / msg_rate;
    return bw_term > msg_term ? bw_term : msg_term;
  }
  double transfer_seconds(std::uint64_t bytes) const {
    return latency + serialize_seconds(bytes);
  }
};

/// One level of the engine's placement hierarchy, ordered fastest
/// first.  `id` is the executor-facing tier id (the hw/mem tier
/// index); the engine itself reasons in hierarchy levels (vector
/// positions) and only uses `id` to label commands.  `capacity == 0`
/// means unbounded and is required on the last (bottom) level, which
/// backs the paper's assumption that data always fits the far tier.
/// `watermark` is the fraction of `capacity` the level is trimmed
/// back to: on level 0 it bounds the parked (refcount-0) LRU bytes
/// exactly like the old `lru_watermark`; on intermediate levels it is
/// the demotion-cascade trigger (resident bytes above it are demoted
/// onward, coldest first).
struct TierDesc {
  TierId id = 0;
  std::uint64_t capacity = 0;
  double watermark = 1.0;
  /// Pluggable backend: LocalArena behaves exactly as before (the
  /// default keeps every existing hierarchy byte-identical); Remote
  /// marks the level as a disaggregated pool and `remote` carries its
  /// network cost parameters.
  TierBackendKind backend = TierBackendKind::LocalArena;
  RemoteTierParams remote; // read only when backend == Remote

  TierDesc() = default;
  TierDesc(TierId id_, std::uint64_t capacity_ = 0, double watermark_ = 1.0)
      : id(id_), capacity(capacity_), watermark(watermark_) {}
};

/// Placement hierarchy for a machine model: every memory tier, local
/// tiers first sorted by read bandwidth descending, then remote tiers
/// (a disaggregated pool is always below every local pool, whatever
/// its nominal bandwidth), capacities taken from the model and the
/// slowest tier left unbounded.  Tiers flagged hw::MemoryTier::remote
/// become Remote backends with bandwidth/latency from the model tier
/// (sim::tiers_with_remote refines the message-rate parameters from a
/// full NetworkModel).  This is how executors hand an N-tier node to
/// the engine with zero application changes.
std::vector<TierDesc> tiers_from_model(const hw::MachineModel& m);

/// Counters every engine implementation maintains (one struct so the
/// serial and sharded engines — and decorators over either — report
/// through the same telemetry plumbing).  Historically nested as
/// PolicyEngine::Stats; that name remains as an alias.
struct EngineStats {
  std::uint64_t tasks_run = 0;
  std::uint64_t fetches = 0;
  std::uint64_t fetch_bytes = 0;
  std::uint64_t evicts = 0;
  std::uint64_t evict_bytes = 0;
  std::uint64_t fetch_dedup_hits = 0; // dep already in/inbound to HBM
  std::uint64_t lru_reclaims = 0;     // lazy mode: warm block reused
  std::uint64_t advised_pins = 0;      // eager evict skipped on advice
  std::uint64_t advised_bypasses = 0;  // dep claimed in the slow tier
  std::uint64_t advised_demotions = 0; // demote-advised reclaim victim
  std::uint64_t cascade_demotions = 0; // evictions caught by a middle level
  std::uint64_t tier_trims = 0;        // watermark demotions off middle levels
  // Remote tier backend traffic (zero on all-local hierarchies).
  std::uint64_t remote_fetches = 0;     // promotions sourced from a Remote level
  std::uint64_t remote_fetch_bytes = 0; // bytes pulled over the network
  std::uint64_t remote_evicts = 0;      // demotions landing on a Remote level
  std::uint64_t remote_evict_bytes = 0; // bytes spilled over the network

  /// Field-wise sum (the sharded engine totals its shards with it).
  EngineStats& operator+=(const EngineStats& o) {
    tasks_run += o.tasks_run;
    fetches += o.fetches;
    fetch_bytes += o.fetch_bytes;
    evicts += o.evicts;
    evict_bytes += o.evict_bytes;
    fetch_dedup_hits += o.fetch_dedup_hits;
    lru_reclaims += o.lru_reclaims;
    advised_pins += o.advised_pins;
    advised_bypasses += o.advised_bypasses;
    advised_demotions += o.advised_demotions;
    cascade_demotions += o.cascade_demotions;
    tier_trims += o.tier_trims;
    remote_fetches += o.remote_fetches;
    remote_fetch_bytes += o.remote_fetch_bytes;
    remote_evicts += o.remote_evicts;
    remote_evict_bytes += o.remote_evict_bytes;
    return *this;
  }
  bool operator==(const EngineStats&) const = default;
};

/// Logical block residency, the paper's INHBM / INDDR states plus the
/// two in-flight states of the asynchronous protocol.
enum class BlockState : std::uint8_t {
  InSlow,        // INDDR
  InFast,        // INHBM
  FetchInFlight, // slow -> fast migration running
  EvictInFlight, // fast -> slow migration running
};

const char* block_state_name(BlockState s);

/// The executor-facing command protocol.  The policy engine never
/// blocks, sleeps, or touches real memory; it returns a list of
/// commands the executor performs (really, with threads and memcpy, or
/// virtually, in the DES).
struct Command {
  enum class Kind : std::uint8_t {
    /// Migrate `block` src_tier -> dst_tier, a promotion to the top
    /// level.  `agent` is the IO thread that must perform it
    /// (kWorkerInline = the worker in whose event context this
    /// command was returned, i.e. a synchronous fetch).  Executor
    /// must call PolicyEngine::on_fetch_complete when done.
    Fetch,
    /// Migrate `block` src_tier -> dst_tier, a demotion to a lower
    /// level (top -> middle, middle -> bottom, or straight to the
    /// bottom); report via on_evict_complete.
    Evict,
    /// `task` has all dependences resident: append it to PE `pe`'s run
    /// queue.  Executor must call on_task_complete after it runs.
    Run,
  };

  Kind kind = Kind::Run;
  BlockId block = mem::kInvalidBlock; // Fetch / Evict
  TaskId task = kInvalidTask;         // Run; for Fetch: first requester
  std::int32_t agent = 0;             // IO agent id, or kWorkerInline
  std::int32_t pe = 0;                // Run: target PE
  /// Fetch only: destination buffer need not receive the old contents
  /// (write-only dependence with the writeonly_nocopy optimization).
  bool nocopy = false;
  /// Fetch / Evict: the migration endpoints as executor-facing tier
  /// ids (TierDesc::id values of the source and destination levels).
  TierId src_tier = 0;
  TierId dst_tier = 0;
};

/// Agent id meaning "the worker thread handling the current event".
inline constexpr std::int32_t kWorkerInline = -1;

/// Per-block guidance the PolicyEngine consults at admission and
/// eviction time when an AdviceProvider is installed (the adaptive
/// subsystem's adapt::PlacementAdvisor is the real producer; the
/// engine only sees this interface so ooc stays executor- and
/// profiler-agnostic).
/// BlockAdvice::demote_level: let the engine's demotion cascade pick
/// the landing level (first lower level with room, else bottom).
inline constexpr std::int32_t kLevelAuto = -1;
/// BlockAdvice::demote_level: send the block straight to the bottom
/// level, skipping intermediate tiers (cold / streaming data whose
/// re-fetch savings never pay for occupying middle-tier capacity).
inline constexpr std::int32_t kLevelFar = 1 << 30;

struct BlockAdvice {
  /// Keep the block resident when its refcount drops to zero, even
  /// under eager eviction: park it warm in the LRU instead.
  bool pin = false;
  /// Preferred reclaim victim: evict ahead of plain LRU order.
  bool demote_first = false;
  /// Do not migrate: the task runs reading the slow-tier copy (the
  /// block's measured reuse never amortises the migration cost).
  bool bypass_fetch = false;
  /// Preferred demotion landing level (hierarchy level index, not
  /// tier id): kLevelAuto defers to the cascade, kLevelFar forces the
  /// bottom, any other value starts the cascade's fit search at that
  /// level.  Ignored on two-level hierarchies, where the only
  /// destination is the bottom — which is what keeps two-tier
  /// command streams bit-identical to the pre-tier engine.
  std::int32_t demote_level = kLevelAuto;
};

class AdviceProvider {
public:
  virtual ~AdviceProvider() = default;
  /// Must be deterministic between engine events: the engine may ask
  /// several times while deciding one admission and assumes the
  /// answers agree.
  virtual BlockAdvice advise(BlockId b, std::uint64_t bytes) const = 0;
  /// Cheap gate the engine checks before consulting advise() on the
  /// admission scan path (which runs for every queued head on every
  /// wakeup): when no block could possibly receive bypass_fetch
  /// advice, return false and the scans skip the per-block lookup
  /// entirely.  Pin / demote advice is unaffected.
  virtual bool may_bypass() const { return true; }
};

} // namespace hmr::ooc
