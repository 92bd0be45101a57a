// Peer-group parent: membership manager, collaborative-cache hub, and sync
// point (paper sections 5.1-5.2).
//
// The parent seeds and manages membership (5.1.1), maintains the union of
// the members' interest sets and subscribes to the DC on their behalf
// (5.1.2-5.1.3), participates in EPaxos as an ordinary member (a node "may
// serve as a member and a parent at the same time"), and acts as the
// group's sync point: it forwards transactions to the connected DC in the
// EPaxos visibility order, and relays the DC's commit acknowledgements and
// pushes back to the members.
//
// Placement: a PoP server (border) or any well-connected node; the topology
// builder wires its uplink with the corresponding latency class.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/epaxos.hpp"
#include "core/txn.hpp"
#include "core/visibility.hpp"
#include "dc/messages.hpp"
#include "group/si_order.hpp"
#include "security/crypto_sim.hpp"
#include "sim/rpc.hpp"
#include "storage/journal_store.hpp"

namespace colony {

struct GroupParentConfig {
  NodeId dc = 0;  // connected DC
  std::size_t num_dcs = 1;
};

class PeerGroupParent final : public sim::RpcActor {
 public:
  PeerGroupParent(sim::Network& net, NodeId id, GroupParentConfig config);

  /// Migrate the whole subtree — this parent and, implicitly, all its
  /// members — to a different DC (section 3.8: "a subtree may detach
  /// itself from its parent and migrate to a different tree"). Requires
  /// causal compatibility at the new DC; unacknowledged forwards are
  /// re-sent there and deduplicated by dot.
  using DoneCb = std::function<void(Result<void>)>;
  void migrate_to_dc(NodeId new_dc, DoneCb done);

  // --- introspection -------------------------------------------------------
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] NodeId connected_dc() const { return config_.dc; }
  [[nodiscard]] std::vector<NodeId> members() const;
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] const VersionVector& state_vector() const {
    return engine_.state_vector();
  }
  /// Transactions not yet acknowledged by the DC (queued + in flight).
  [[nodiscard]] std::size_t forward_backlog() const {
    return forward_queue_.size() + in_flight_.size();
  }
  [[nodiscard]] const JournalStore& store() const { return store_; }
  [[nodiscard]] const consensus::Epaxos* epaxos() const {
    return epaxos_.get();
  }

 protected:
  void on_message(NodeId from, std::uint32_t kind,
                  ByteView body) override;
  void on_request(NodeId from, std::uint32_t method,
                  ByteView payload, ReplyFn reply) override;

 private:
  void handle_join(const proto::GroupJoinReq& req, ReplyFn reply);
  void handle_leave(const proto::GroupLeaveReq& req);
  void handle_member_subscribe(NodeId from, const proto::SubscribeReq& req,
                               ReplyFn reply);
  void handle_peer_fetch(NodeId from, const proto::PeerFetchReq& req,
                         ReplyFn reply);

  void broadcast_membership();
  void rebuild_epaxos();
  void heartbeat_tick();
  void on_group_deliver(const consensus::Command& cmd);

  // Sync point: forward group transactions to the DC in visibility order,
  // skipping over entries whose dependencies are not yet resolved.
  void pump_forward();

  // DC-side session.
  void ensure_dc_interest(const ObjectKey& key);
  /// Seed a K-stable cut from the DC session and apply what it unblocks.
  void seed_cut(const VersionVector& cut);
  void relay_push(const proto::PushTxn& msg);

  GroupParentConfig config_;
  std::uint64_t epoch_ = 0;
  std::set<NodeId> members_;
  std::map<NodeId, std::set<ObjectKey>> member_interest_;
  security::KeyService keys_;

  TxnStore txns_;
  JournalStore store_;
  VisibilityEngine engine_;
  /// Receive state of the acknowledged session channel, per sending DC: a
  /// migration opens a new channel whose sequence starts again at 1.
  std::map<NodeId, proto::PushChannelRecv> dc_recv_;

  std::unique_ptr<consensus::Epaxos> epaxos_;
  /// The group's SI order, as every member derives it.
  SiOrder si_order_;

  std::deque<Dot> forward_queue_;
  std::set<Dot> in_flight_;  // forwards awaiting their DC ack
  std::map<Dot, std::uint64_t> forward_order_;  // original visibility order
  std::uint64_t next_forward_order_ = 0;
  std::set<Dot> forwarded_;  // dots already acknowledged by the DC
  bool retry_scheduled_ = false;

  std::set<ObjectKey> dc_interest_;  // keys subscribed at the DC
  std::map<NodeId, std::size_t> missed_heartbeats_;
};

}  // namespace colony
