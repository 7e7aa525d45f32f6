#pragma once
// Engine: the common interface of the prefetch/evict protocol
// implementations, and the one interception point every [prefetch]
// event goes through (paper §IV-B).
//
// Two engines implement the paper's protocol: the serial
// ooc::PolicyEngine (every strategy, advice, lazy eviction, watermark
// trims; callers serialize) and the concurrent rt::ShardedEngine
// (MultiIo + eager only; thread-safe).  serve::TenantEngine decorates
// either.  Code that only *drives* an engine is written once against
// this interface: rt::Runtime holds one Engine* (decorator, else
// sharded, else serial) and sends every block registration, event,
// quiescence check, stats read and audit through it; hmr::sim does
// the same over the serial engine.  The two engines share one Config
// and one set of protocol steps (ooc/protocol.hpp: tier resolution,
// block states, arrival checks, the fair-share gate, the command
// builders and their counters, the invariant audit) instead of
// mirroring them; the serial and sharded paths differ only in how
// they hold their state and lock it.
//
// The interface is deliberately the intersection, not the union:
//   * on_task_complete carries the PE the task ran on.  The sharded
//     engine needs it to route the completion to the owning shard
//     without a global map; the serial engine ignores it (the task
//     record knows its PE).  Executors always know the PE, so the
//     wider signature costs them nothing.
//   * stats are returned by value as engine_stats() — the sharded
//     engine must sum over shards, so a reference is not available.
//     (The concrete classes keep their historical stats() accessors.)
//   * introspection is the subset both sides answer exactly enough
//     for decorators and telemetry: residency, per-level usage,
//     refcounts, waiting depth, quiescence, invariant audits.
//
// Thread safety follows the concrete engine: PolicyEngine callers
// serialize, ShardedEngine entry points are thread-safe.  Decorators
// must preserve the contract of whatever they wrap.

#include <cstdint>
#include <string>
#include <vector>

#include "ooc/types.hpp"

namespace hmr::ooc {

class Engine {
public:
  virtual ~Engine() = default;

  // ---- block registry ----

  /// Register a data block; returns the tier id its storage must be
  /// placed on.  Callers serialize registration against itself (both
  /// engines require it).
  virtual TierId add_block(BlockId b, std::uint64_t bytes) = 0;

  /// Forget a block.  Must be unreferenced and not in flight.
  virtual void remove_block(BlockId b) = 0;

  // ---- events (each returns the commands to execute) ----

  virtual std::vector<Command> on_task_arrived(const TaskDesc& task) = 0;
  virtual std::vector<Command> on_fetch_complete(BlockId b) = 0;
  virtual std::vector<Command> on_evict_complete(BlockId b) = 0;
  /// `pe` is the PE the task ran on (executors always know it; the
  /// sharded engine routes the completion by it).
  virtual std::vector<Command> on_task_complete(TaskId t,
                                                std::int32_t pe) = 0;

  // ---- introspection ----

  /// Aggregate counters (summed over shards where applicable).
  virtual EngineStats engine_stats() const = 0;

  /// True when every arrived task has completed and nothing is queued
  /// or in flight.
  virtual bool quiescent() const = 0;

  /// Tasks sitting in wait queues (admission not yet granted).
  virtual std::size_t total_waiting() const = 0;

  /// The placement hierarchy (levels, fastest first).
  virtual const std::vector<TierDesc>& tiers() const = 0;

  /// Bytes resident on (or in flight to) a hierarchy level.
  virtual std::uint64_t tier_used(std::int32_t level) const = 0;

  virtual BlockState block_state(BlockId b) const = 0;
  virtual std::int32_t block_level(BlockId b) const = 0;
  virtual std::uint32_t refcount(BlockId b) const = 0;

  /// Cross-check bookkeeping against ground truth; one human-readable
  /// line per violation (empty = clean).  Exactness caveats follow the
  /// concrete engine (the sharded audit is exact only at quiescence).
  virtual std::vector<std::string> audit_invariants(
      bool at_quiescence) const = 0;
};

} // namespace hmr::ooc
