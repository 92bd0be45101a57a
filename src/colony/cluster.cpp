#include "colony/cluster.hpp"

#include "util/assert.hpp"

namespace colony {

namespace {
// Node-id layout: DCs at 1..N, their shards at 100*dc + 101.., everything
// else allocated from 10'000 upwards.
constexpr NodeId kDcBase = 1;
constexpr NodeId kShardBase = 100;
}  // namespace

NodeId Cluster::dc_node_id(DcId id) const { return kDcBase + id; }

Cluster::Cluster(ClusterConfig config)
    : config_(config), net_(sched_, config.seed) {
  COLONY_ASSERT(config_.num_dcs >= 1 && config_.num_dcs <= 16,
                "supported core sizes: 1..16 DCs");
  COLONY_ASSERT(config_.k_stability >= 1 &&
                    config_.k_stability <= config_.num_dcs,
                "K out of range");

  // Shard servers first (DC constructors expect them linked).
  std::vector<std::vector<NodeId>> shard_ids(config_.num_dcs);
  for (DcId d = 0; d < config_.num_dcs; ++d) {
    for (std::size_t s = 0; s < config_.shards_per_dc; ++s) {
      const NodeId sid = kShardBase * (d + 1) + 1 + s;
      shards_.push_back(std::make_unique<ShardServer>(net_, sid));
      shard_ids[d].push_back(sid);
      net_.connect(dc_node_id(d), sid, sim::latency::kIntraDc);
    }
  }

  for (DcId d = 0; d < config_.num_dcs; ++d) {
    std::vector<NodeId> peers;
    for (DcId other = 0; other < config_.num_dcs; ++other) {
      if (other != d) peers.push_back(dc_node_id(other));
    }
    DcConfig dc_config;
    dc_config.dc_id = d;
    dc_config.num_dcs = config_.num_dcs;
    dc_config.k_stability = config_.k_stability;
    dc_config.gossip_interval = config_.dc_gossip_interval;
    auto& disk = disks_[dc_node_id(d)];
    disk = std::make_unique<storage::Wal>();
    dc_config.disk = disk.get();
    dcs_.push_back(std::make_unique<DcNode>(net_, dc_node_id(d), dc_config,
                                            std::move(peers), shard_ids[d]));
    durable_[dc_node_id(d)] = dcs_.back().get();
  }

  // Full DC mesh.
  for (DcId a = 0; a < config_.num_dcs; ++a) {
    for (DcId b = a + 1; b < config_.num_dcs; ++b) {
      net_.connect(dc_node_id(a), dc_node_id(b), config_.inter_dc);
    }
  }
}

EdgeNode& Cluster::add_edge(ClientMode mode, DcId dc, UserId user,
                            std::size_t cache_capacity) {
  const NodeId id = next_node_id_++;
  EdgeConfig cfg;
  cfg.mode = mode;
  cfg.dc = dc_node_id(dc);
  cfg.user = user;
  cfg.num_dcs = config_.num_dcs;
  cfg.cache_capacity = cache_capacity;
  auto& disk = disks_[id];
  disk = std::make_unique<storage::Wal>();
  cfg.disk = disk.get();
  edges_.push_back(std::make_unique<EdgeNode>(net_, id, cfg));
  durable_[id] = edges_.back().get();
  for (DcId d = 0; d < config_.num_dcs; ++d) {
    net_.connect(id, dc_node_id(d), config_.edge_uplink);
  }
  return *edges_.back();
}

PeerGroupParent& Cluster::add_group_parent(DcId dc) {
  const NodeId id = next_node_id_++;
  GroupParentConfig cfg;
  cfg.dc = dc_node_id(dc);
  cfg.num_dcs = config_.num_dcs;
  parents_.push_back(std::make_unique<PeerGroupParent>(net_, id, cfg));
  for (DcId d = 0; d < config_.num_dcs; ++d) {
    net_.connect(id, dc_node_id(d), config_.pop_uplink);
  }
  return *parents_.back();
}

void Cluster::wire_peer_links(const std::vector<NodeId>& nodes) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      if (!net_.link_exists(nodes[i], nodes[j])) {
        net_.connect(nodes[i], nodes[j], sim::latency::kPeerLink);
      }
    }
  }
}

void Cluster::set_uplink(NodeId node, DcId dc, bool up) {
  net_.set_link_up(node, dc_node_id(dc), up);
}

void Cluster::set_peer_links(NodeId node, const std::vector<NodeId>& peers,
                             bool up) {
  for (const NodeId peer : peers) {
    if (peer != node) net_.set_link_up(node, peer, up);
  }
}

void Cluster::crash_node(NodeId node) {
  const auto it = durable_.find(node);
  if (it == durable_.end()) return;  // not durable: plain outage
  if (!it->second->crashed()) it->second->crash();
}

void Cluster::restart_node(NodeId node) {
  const auto it = durable_.find(node);
  if (it != durable_.end() && it->second->crashed()) it->second->recover();
}

std::vector<NodeId> Cluster::dc_node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(config_.num_dcs);
  for (DcId d = 0; d < config_.num_dcs; ++d) ids.push_back(dc_node_id(d));
  return ids;
}

std::vector<const storage::DurableNode*> Cluster::durable_nodes() const {
  std::vector<const storage::DurableNode*> nodes;
  nodes.reserve(durable_.size());
  for (const auto& [id, node] : durable_) nodes.push_back(node);
  return nodes;
}

std::vector<NodeId> Cluster::edge_node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(edges_.size());
  for (const auto& e : edges_) ids.push_back(e->id());
  return ids;
}

bool Cluster::idle() const {
  const VersionVector& reference = dcs_.front()->state_vector();
  for (const auto& dc : dcs_) {
    if (!(dc->state_vector() == reference)) return false;
    if (dc->engine().pending_count() != 0) return false;
  }
  for (const auto& edge : edges_) {
    if (edge->unacked_count() != 0) return false;
    if (edge->engine().pending_count() != 0) return false;
  }
  return true;
}

bool Cluster::quiesce(SimTime max_wait, SimTime poll) {
  const SimTime deadline = sched_.now() + max_wait;
  bool was_idle = false;
  while (sched_.now() < deadline) {
    run_for(poll);
    if (idle()) {
      // Idle twice in a row: anything in flight at the first poll (a last
      // session push, a commit acknowledgement) has landed by the second.
      if (was_idle) return true;
      was_idle = true;
    } else {
      was_idle = false;
    }
  }
  return false;
}

}  // namespace colony
