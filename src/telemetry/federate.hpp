#pragma once
// Federation: aggregate per-node MetricsRegistry snapshots into one
// cluster view.
//
// PR 8's ClusterSim gave every node a ground-truth DES but the
// telemetry surface stayed single-node: /metrics, /history and
// hmr_top all read one registry.  A Federation holds one snapshot per
// node (share-grouped nodes carry a weight — ClusterSim runs one DES
// per byte-share group and the group's metrics stand for every node
// in it) and folds them into an aggregate snapshot: counters,
// histogram buckets and gauges sum (weighted), snapshot time is the
// max.  ClusterSim::metrics_json()/attrib_json() write it out, and
// hmr_top --cluster-file renders the per-node pane from that file.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"

namespace hmr::telemetry {

class Federation {
 public:
  struct Node {
    std::string name;
    std::uint64_t weight = 1; // nodes this snapshot stands for
    MetricsSnapshot snap;
  };

  void add(std::string name, MetricsSnapshot snap, std::uint64_t weight = 1);

  std::size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  const std::vector<Node>& nodes() const { return nodes_; }
  /// Total node count (sum of weights).
  std::uint64_t total_nodes() const;

  /// Weighted element-wise sum of every node snapshot.  Instruments
  /// are matched by (name, labels); gauges sum (they are bytes/depths
  /// here — a mean would hide imbalance), counters and histograms sum,
  /// time is the max.  Instrument order follows first appearance.
  MetricsSnapshot aggregate() const;

  /// {"nodes":[{"node":..,"weight":..,"metrics":{..}}],
  ///  "aggregate":{..},"total_nodes":N}
  void write_json(std::ostream& os) const;

 private:
  std::vector<Node> nodes_;
};

} // namespace hmr::telemetry
