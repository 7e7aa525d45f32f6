#pragma once
// PlacementCoordinator: the cluster's metadata/policy role — an
// object -> node map with per-node capacity ledgers, deciding for
// every data object whether it lives on its node's local memory or on
// the disaggregated remote pool (DOLMA-style object-level placement;
// architecture exemplar: the EOS mgm, a metadata manager directing
// many storage servers).  The coordinator never moves bytes itself:
// per-node BlockStores execute, and the coordinator's flow accounting
// (promotions pulled over the network, spills pushed out) must
// byte-conserve against each engine's ground-truth residency — the
// audit/reconcile pair below is the cluster analogue of the engine's
// invariant auditor.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "ooc/types.hpp"

namespace hmr::cluster {

using ObjectId = std::uint64_t;
using NodeId = std::int32_t;

/// place(): let the coordinator pick the least-loaded node.
inline constexpr NodeId kAnyNode = -1;

/// Per-node capacity ledger.  Placement-time bytes are split into
/// local (homed on the node's local pools) and remote (homed on the
/// disaggregated pool, owned by this node); runtime flows move bytes
/// between the two sides.  Current residency is derived, never
/// stored, so the ledger cannot drift from its own flows:
///   local_now  = placed_local  + promoted_bytes - spilled_bytes
///   remote_now = placed_remote - promoted_bytes + spilled_bytes
struct NodeLedger {
  std::uint64_t capacity = 0;     // local home budget (0 = unbounded)
  std::uint64_t objects = 0;      // objects homed on this node
  std::uint64_t placed_local = 0; // bytes homed local at placement
  std::uint64_t placed_remote = 0;
  std::uint64_t promotions = 0;   // remote -> local transfers
  std::uint64_t promoted_bytes = 0;
  std::uint64_t spills = 0;       // local -> remote transfers
  std::uint64_t spilled_bytes = 0;

  std::int64_t local_now() const {
    return static_cast<std::int64_t>(placed_local) +
           static_cast<std::int64_t>(promoted_bytes) -
           static_cast<std::int64_t>(spilled_bytes);
  }
  std::int64_t remote_now() const {
    return static_cast<std::int64_t>(placed_remote) -
           static_cast<std::int64_t>(promoted_bytes) +
           static_cast<std::int64_t>(spilled_bytes);
  }
};

class PlacementCoordinator {
public:
  struct Config {
    int nodes = 1;
    /// Local home budget per node in bytes (0 = unbounded: everything
    /// homes locally, the degenerate no-remote cluster).
    std::uint64_t node_capacity = 0;
    /// Objects that exceed a node's free local budget start on the
    /// disaggregated pool.  When false, placement over budget aborts
    /// (a no-remote cluster must fit locally).
    bool allow_remote = true;
    /// Ablation policy: home every object on the remote pool (the
    /// naive all-remote baseline the cascade must beat).
    bool all_remote = false;
  };

  struct Placement {
    NodeId node = 0;
    bool remote = false; // homed on the disaggregated pool
  };

  explicit PlacementCoordinator(const Config& cfg);

  /// Place one object.  `preferred >= 0` pins ownership to that node
  /// (sub-domain affinity: a stencil block belongs to its node);
  /// kAnyNode picks the node with the most free local budget
  /// (least-loaded, ties to the lowest id for determinism).
  Placement place(ObjectId object, std::uint64_t bytes,
                  NodeId preferred = kAnyNode);

  /// The object -> node map.  Aborts on unknown objects.
  Placement placement_of(ObjectId object) const;
  bool knows(ObjectId object) const;

  /// Flow accounting from a node engine's remote-traffic counters
  /// (EngineStats::remote_fetches / remote_evicts after a run).
  void record_promotions(NodeId n, std::uint64_t count,
                         std::uint64_t bytes);
  void record_spills(NodeId n, std::uint64_t count, std::uint64_t bytes);

  int nodes() const { return static_cast<int>(ledgers_.size()); }
  const NodeLedger& node(NodeId n) const;
  std::uint64_t total_objects() const { return map_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  /// Bytes currently on the disaggregated pool across all owners.
  std::int64_t pool_bytes() const;

  /// Internal ledger-conservation audit: every node's derived
  /// residency non-negative, local+remote == placed bytes, totals
  /// match the object map.  Empty = conserved.
  std::vector<std::string> audit() const;

  /// Byte-conservation cross-check against one node engine's ground
  /// truth: the ledger's derived local residency must equal the bytes
  /// the engine actually holds on local levels at quiescence.  This
  /// ties two independent ledgers together — placement + network
  /// flow accounting here, per-command byte accounting in the engine.
  std::vector<std::string> reconcile(NodeId n,
                                     std::uint64_t engine_local_bytes,
                                     std::uint64_t engine_remote_bytes) const;

  /// JSON snapshot of every node ledger (part of ClusterSim::to_json).
  std::string to_json() const;

private:
  Config cfg_;
  std::vector<NodeLedger> ledgers_;
  std::unordered_map<ObjectId, Placement> map_;
  std::uint64_t total_bytes_ = 0;
};

} // namespace hmr::cluster
