// Cluster: the topology builder and owner of a simulated Colony deployment.
//
// Mirrors Figure 1: a small core of DCs in a full mesh (each with its shard
// servers), border nodes (peer-group parents on PoPs), and far-edge client
// nodes hanging off DCs or groups. All actors, links, and the scheduler are
// owned here; experiments drive the scheduler and inspect the nodes.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "dc/dc_node.hpp"
#include "dc/shard.hpp"
#include "edge/edge_node.hpp"
#include "group/peer_group.hpp"
#include "sim/network.hpp"
#include "sim/scheduler.hpp"
#include "storage/durable_node.hpp"
#include "storage/wal.hpp"

namespace colony {

struct ClusterConfig {
  std::size_t num_dcs = 1;
  std::size_t shards_per_dc = 4;
  std::size_t k_stability = 1;
  std::uint64_t seed = 42;
  /// Latency classes (defaults are the paper's constants, section 7.2).
  /// The DC-to-shard fabric and peer-group links use sim::latency::kIntraDc
  /// and kPeerLink.
  sim::LatencyModel inter_dc = sim::latency::kInterDc;
  sim::LatencyModel edge_uplink = sim::latency::kCellular;
  sim::LatencyModel pop_uplink = sim::latency::kCarrierEthernet;
  /// Forwarded into every DcConfig.
  SimTime dc_gossip_interval = 100 * kMillisecond;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  // Non-copyable, non-movable: actors hold references into the cluster.
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // --- topology construction ----------------------------------------------

  /// Create an edge client attached to DC `dc` (link wired to every DC so
  /// migration is possible). Returns a stable reference.
  EdgeNode& add_edge(ClientMode mode, DcId dc, UserId user,
                     std::size_t cache_capacity = 0);

  /// Create a peer-group parent on a border PoP attached to DC `dc`.
  PeerGroupParent& add_group_parent(DcId dc);

  /// Wire peer links among a set of nodes (group members and parent).
  void wire_peer_links(const std::vector<NodeId>& nodes);

  // --- access ---------------------------------------------------------------

  [[nodiscard]] std::size_t num_dcs() const { return config_.num_dcs; }
  DcNode& dc(DcId id) { return *dcs_.at(id); }
  [[nodiscard]] const DcNode& dc(DcId id) const { return *dcs_.at(id); }
  [[nodiscard]] NodeId dc_node_id(DcId id) const;
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  EdgeNode& edge(std::size_t i) { return *edges_.at(i); }
  [[nodiscard]] const EdgeNode& edge(std::size_t i) const {
    return *edges_.at(i);
  }
  [[nodiscard]] std::vector<NodeId> dc_node_ids() const;
  [[nodiscard]] std::vector<NodeId> edge_node_ids() const;
  /// Every WAL-backed node (the DCs, then the edges), in node-id order.
  [[nodiscard]] std::vector<const storage::DurableNode*> durable_nodes() const;
  sim::Scheduler& scheduler() { return sched_; }
  sim::Network& network() { return net_; }
  [[nodiscard]] const sim::Network& network() const { return net_; }
  [[nodiscard]] const ClusterConfig& config() const { return config_; }

  // --- execution -------------------------------------------------------------

  void run_for(SimTime duration) { sched_.run_until(sched_.now() + duration); }
  void run_until(SimTime deadline) { sched_.run_until(deadline); }
  [[nodiscard]] SimTime now() const { return sched_.now(); }

  // --- failure injection -----------------------------------------------------

  /// Cut / restore the uplink between a node and a DC (figures 5 & 6).
  void set_uplink(NodeId node, DcId dc, bool up);
  /// Cut / restore the links between a node and a set of peers.
  void set_peer_links(NodeId node, const std::vector<NodeId>& peers, bool up);

  /// Crash a DC or edge node: wipe its volatile state and drop everything in
  /// flight. No-op for node ids that are not durable nodes (shards, group
  /// parents) — the fault degrades to whatever link faults accompany it.
  void crash_node(NodeId node);
  /// Restart a previously crashed node from its WAL. No-op if the node is
  /// unknown or not crashed.
  void restart_node(NodeId node);

  /// The WAL backing a node, or nullptr (tests inspect / corrupt it).
  [[nodiscard]] storage::Wal* disk(NodeId node) {
    auto it = disks_.find(node);
    return it == disks_.end() ? nullptr : it->second.get();
  }

  // --- quiescence (chaos harness audit points) -------------------------------

  /// Restore every link and node after arbitrary fault injection.
  void heal_all() { net_.heal(); }

  /// Structurally idle: all DC state vectors agree, no visibility engine
  /// has pending transactions, and no edge holds unacknowledged commits.
  [[nodiscard]] bool idle() const;

  /// Run in `poll`-sized steps until idle() holds at two consecutive polls
  /// (in-flight pushes land in between) or `max_wait` elapses. Returns
  /// whether the cluster reached quiescence — a liveness check in itself.
  bool quiesce(SimTime max_wait, SimTime poll = 500 * kMillisecond);

 private:
  ClusterConfig config_;
  sim::Scheduler sched_;
  sim::Network net_;

  std::vector<std::unique_ptr<ShardServer>> shards_;
  std::vector<std::unique_ptr<DcNode>> dcs_;
  std::vector<std::unique_ptr<EdgeNode>> edges_;
  std::vector<std::unique_ptr<PeerGroupParent>> parents_;
  /// One durable log per DC / edge node, keyed by node id. Owned here so a
  /// "process" (the node object) can lose everything while its disk survives.
  std::map<NodeId, std::unique_ptr<storage::Wal>> disks_;
  /// The node each of those disks backs.
  std::map<NodeId, storage::DurableNode*> durable_;
  NodeId next_node_id_ = 10'000;
};

}  // namespace colony
