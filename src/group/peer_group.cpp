#include "group/peer_group.hpp"

#include <algorithm>

#include "security/acl.hpp"
#include "util/assert.hpp"

namespace colony {

namespace {
/// Pause before retrying a failed DC forward or interest registration.
constexpr SimTime kRetryInterval = 500 * kMillisecond;
/// Member liveness probing: a member that misses kHeartbeatMisses probes in
/// a row is removed from the membership (epoch change) so consensus
/// regains its quorum; the member rejoins when it comes back (section
/// 5.1.1).
constexpr SimTime kHeartbeatInterval = 1 * kSecond;
constexpr std::size_t kHeartbeatMisses = 2;
/// Seed of the parent's session-key service.
constexpr std::uint64_t kSessionKeySeed = 0x5eed;
}  // namespace

PeerGroupParent::PeerGroupParent(sim::Network& net, NodeId id,
                                 GroupParentConfig config)
    : RpcActor(net, id),
      config_(config),
      keys_(kSessionKeySeed),
      engine_(txns_, store_, config.num_dcs) {
  security::register_acl_crdt();
  security::install_policy(engine_, store_);
  rebuild_epaxos();
  net.scheduler().after(kHeartbeatInterval,
                        [this] { heartbeat_tick(); });
  // Open the DC session eagerly (empty interest): the DC then announces
  // K-stable cut advances, so the parent's state vector tracks the world
  // and joiners' causal-compatibility checks (section 5.2) pass without a
  // first cache miss having to create the session as a side effect.
  // Deferred one tick: the topology builder wires the uplink right after
  // this constructor returns.
  net.scheduler().after(10 * kMillisecond, [this] {
    call(config_.dc, proto::kSubscribe, proto::SubscribeReq{{}, 0},
         [this](Result<Bytes> r) {
           if (!r.ok()) return;
           const auto resp =
               codec::from_bytes<proto::SubscribeResp>(r.value());
           engine_.seed_state(resp.cut);
           engine_.drain();
         });
  });
}

void PeerGroupParent::heartbeat_tick() {
  for (const NodeId m : std::vector<NodeId>(members_.begin(),
                                            members_.end())) {
    call(m, proto::kGroupPing, Bytes{},
         [this, m](Result<Bytes> r) {
           if (r.ok()) {
             missed_heartbeats_[m] = 0;
             return;
           }
           if (++missed_heartbeats_[m] >= kHeartbeatMisses) {
             // The member is unreachable: reconfigure so the group's
             // consensus regains a full quorum (section 5.1.1).
             missed_heartbeats_.erase(m);
             handle_leave(proto::GroupLeaveReq{m});
           }
         },
         /*timeout=*/kHeartbeatInterval / 2);
  }
  net_.scheduler().after(kHeartbeatInterval,
                         [this] { heartbeat_tick(); });
}

std::vector<NodeId> PeerGroupParent::members() const {
  std::vector<NodeId> out{id()};
  out.insert(out.end(), members_.begin(), members_.end());
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// Membership.
// ---------------------------------------------------------------------------

void PeerGroupParent::broadcast_membership() {
  const proto::MembershipMsg msg{epoch_, members()};
  for (const NodeId m : members_) {
    tell(m, proto::kGroupMembership, msg);
  }
}

void PeerGroupParent::handle_join(const proto::GroupJoinReq& req,
                                  ReplyFn reply) {
  proto::GroupJoinResp resp;
  // Causal compatibility (section 5.2): the group must be able to satisfy
  // the joiner's dependencies. If the joiner is ahead of the parent the
  // join is refused; the client may retry once the parent catches up.
  if (!req.state.leq(engine_.state_vector())) {
    resp.accepted = false;
    reply(codec::to_bytes(resp));
    return;
  }
  members_.insert(req.node);
  missed_heartbeats_.erase(req.node);  // fresh start for a rejoiner
  auto& interest = member_interest_[req.node];
  for (const ObjectKey& key : req.interest) {
    interest.insert(key);
    ensure_dc_interest(key);
  }
  ++epoch_;
  resp.accepted = true;
  resp.epoch = epoch_;
  resp.members = members();
  keys_.authorize("_group", req.user);
  resp.session_key = keys_.key_for("_group", req.user).value_or(0);
  reply(codec::to_bytes(resp));
  broadcast_membership();
  rebuild_epaxos();
}

void PeerGroupParent::handle_leave(const proto::GroupLeaveReq& req) {
  if (members_.erase(req.node) == 0) return;
  member_interest_.erase(req.node);
  ++epoch_;
  broadcast_membership();
  rebuild_epaxos();
}

// ---------------------------------------------------------------------------
// Consensus (the parent is a full EPaxos member).
// ---------------------------------------------------------------------------

void PeerGroupParent::rebuild_epaxos() {
  epaxos_ = std::make_unique<consensus::Epaxos>(
      id(), members(),
      [this](NodeId to, const consensus::EpaxosMsg& msg) {
        tell(to, proto::kEpaxos, proto::EpaxosEnvelope{epoch_, msg});
      },
      [this](const consensus::Command& cmd) { on_group_deliver(cmd); });
}

void PeerGroupParent::on_group_deliver(const consensus::Command& cmd) {
  const auto gc = codec::from_bytes<proto::GroupCommand>(cmd.payload);
  const Dot dot = gc.txn.meta.dot;
  // A conflicting command is deterministically aborted at every member.
  if (!si_order_.deliver(gc, cmd.keys)) return;
  si_order_.apply(gc.txn, engine_);

  if (!forwarded_.contains(dot)) {
    // A dot re-delivered across an epoch change may already be queued or
    // in flight: enqueue at most once.
    if (!forward_order_.contains(dot)) {
      forward_order_.emplace(dot, next_forward_order_++);
      forward_queue_.push_back(dot);
      pump_forward();
    }
  } else {
    // Re-proposed after an epoch change, but the DC already sequenced it
    // in a previous epoch: relay the known commit info so the origin's
    // unacked queue can drain.
    const Transaction* txn = txns_.find(dot);
    if (txn != nullptr && txn->meta.concrete) {
      const DcId dc = txn->meta.first_accepted();
      const proto::ResolutionMsg relay{dot, dc, txn->meta.commit.at(dc),
                                       txn->meta.snapshot};
      for (const NodeId m : members_) {
        tell(m, proto::kResolutionRelay, relay);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sync point: hand the group's visibility order to the DC (section 5.1.3).
// ---------------------------------------------------------------------------

void PeerGroupParent::pump_forward() {
  // Pipelined, strictly in the EPaxos visibility order (section 5.1.3):
  // that is the only order the DC may observe, because a later entry can
  // causally depend on an earlier one in ways the vectors cannot express
  // while commits are symbolic. Up to a window of forwards ride the FIFO
  // uplink concurrently — the DC still receives and sequences them in
  // order. The per-origin interference key guarantees an entry's symbolic
  // deps are always *earlier* entries, so a dep is either resolved or in
  // flight ahead of us.
  constexpr std::size_t kForwardWindow = 16;

  while (in_flight_.size() < kForwardWindow && !forward_queue_.empty()) {
    const Dot dot = forward_queue_.front();
    const Transaction* txn = txns_.find(dot);
    COLONY_ASSERT(txn != nullptr, "forward queue references unknown txn");
    // Forward optimistically: a symbolic dependency is normally in flight
    // just ahead of us on the FIFO uplink, and an unknown one may have
    // reached the DC directly (the origin committed it outside the group,
    // e.g. while removed from the membership). If the DC truly lacks a
    // dependency it answers kIncompatible, which requeues this entry in
    // order and retries — self-healing even when epoch changes reordered
    // deliveries.
    forward_queue_.pop_front();
    in_flight_.insert(dot);
    call(config_.dc, proto::kEdgeCommit, proto::EdgeCommitReq{*txn},
         [this, dot](Result<Bytes> r) {
           in_flight_.erase(dot);
           if (r.ok()) {
             const auto resp =
                 codec::from_bytes<proto::ResolutionMsg>(r.value());
             engine_.resolve_full(dot, resp.dc, resp.ts,
                                  resp.resolved_snapshot);
             forwarded_.insert(dot);
             forward_order_.erase(dot);
             si_order_.drain(engine_);
             for (const NodeId m : members_) {
               tell(m, proto::kResolutionRelay, resp);
             }
             pump_forward();
             return;
           }
           // Offline (Figure 5) or transiently incompatible: requeue in
           // the original visibility order and retry later; the DC
           // deduplicates by dot.
           const auto pos = std::find_if(
               forward_queue_.begin(), forward_queue_.end(),
               [&](const Dot& other) {
                 return forward_order_.at(other) > forward_order_.at(dot);
               });
           forward_queue_.insert(pos, dot);
           if (!retry_scheduled_) {
             retry_scheduled_ = true;
             net_.scheduler().after(kRetryInterval, [this] {
               retry_scheduled_ = false;
               pump_forward();
             });
           }
         });
  }
}

void PeerGroupParent::migrate_to_dc(NodeId new_dc, DoneCb done) {
  const NodeId old_dc = config_.dc;
  config_.dc = new_dc;
  std::vector<ObjectKey> interest(dc_interest_.begin(), dc_interest_.end());
  call(new_dc, proto::kMigrate,
       proto::MigrateReq{engine_.state_vector(), std::move(interest), 0,
                         engine_.seeded_cut()},
       [this, old_dc, done = std::move(done)](Result<Bytes> r) {
         if (!r.ok()) {
           config_.dc = old_dc;
           done(r.error());
           return;
         }
         const auto resp = codec::from_bytes<proto::MigrateResp>(r.value());
         if (!resp.compatible) {
           // The new DC lacks our causal past (section 3.8); stay put and
           // let the caller retry once replication catches up.
           config_.dc = old_dc;
           done(Error{Error::Code::kIncompatible,
                      "new DC lacks the group's causal dependencies"});
           return;
         }
         seed_cut(resp.cut);
         // Anything the old DC never acknowledged goes again to the new
         // one; dots filter duplicates (section 3.8).
         pump_forward();
         done(Result<void>{});
       });
}

// ---------------------------------------------------------------------------
// DC-side session: union interest set, push relay.
// ---------------------------------------------------------------------------

void PeerGroupParent::ensure_dc_interest(const ObjectKey& key) {
  if (dc_interest_.contains(key)) return;
  dc_interest_.insert(key);
  call(config_.dc, proto::kFetchObject, proto::FetchReq{key, true, 0},
       [this, key](Result<Bytes> r) {
         if (!r.ok()) {
           if (r.error().code == Error::Code::kUnavailable) {
             // Offline: forget the registration so the next miss (or the
             // scheduled retry) re-subscribes once the uplink is back.
             dc_interest_.erase(key);
             net_.scheduler().after(kRetryInterval, [this, key] {
               ensure_dc_interest(key);
             });
           }
           return;  // kNotFound: a fresh object, nothing to seed
         }
         const auto resp = codec::from_bytes<proto::FetchResp>(r.value());
         store_.import_snapshot(resp.snapshot);
         engine_.reapply_missing(resp.snapshot.key, resp.snapshot);
         seed_cut(resp.cut);
       });
}

void PeerGroupParent::seed_cut(const VersionVector& cut) {
  engine_.seed_state(cut);
  engine_.drain();
  si_order_.drain(engine_);
}

void PeerGroupParent::relay_push(const proto::PushTxn& msg) {
  // Relayed with a cleared watermark: the member's channel to the parent
  // has its own (unacked) sequence space, and the parent has already
  // verified coverage. A carried cut rides the relayed push; members the
  // push skips get it alone, so every member sees every cut the parent
  // seeds, in the parent's order.
  for (const NodeId m : members_) {
    const auto it = member_interest_.find(m);
    const bool interesting =
        it != member_interest_.end() &&
        std::any_of(msg.txn.ops.begin(), msg.txn.ops.end(),
                    [&](const OpRecord& op) {
                      return it->second.contains(op.key) ||
                             op.key == security::acl_object_key();
                    });
    if (interesting) {
      tell(m, proto::kPushTxn, proto::PushTxn{msg.txn, 0, msg.cut});
    } else if (msg.cut) {
      tell(m, proto::kStateUpdate, proto::StateUpdate{*msg.cut, 0});
    }
  }
}

// ---------------------------------------------------------------------------
// Member-facing requests.
// ---------------------------------------------------------------------------

void PeerGroupParent::handle_member_subscribe(NodeId from,
                                              const proto::SubscribeReq& req,
                                              ReplyFn reply) {
  auto& interest = member_interest_[from];
  // Serve what the parent caches now; subscribe to the DC for the rest so
  // later reads become collaborative-cache hits.
  proto::SubscribeResp resp;
  resp.cut = engine_.state_vector();
  for (const ObjectKey& key : req.keys) {
    interest.insert(key);
    ensure_dc_interest(key);
    if (auto snap = store_.export_snapshot(key)) {
      resp.snapshots.push_back(std::move(*snap));
    }
  }
  reply(codec::to_bytes(resp));
}

void PeerGroupParent::handle_peer_fetch(NodeId from,
                                        const proto::PeerFetchReq& req,
                                        ReplyFn reply) {
  proto::PeerFetchResp resp;
  if (auto snap = store_.export_snapshot(req.key)) {
    resp.found = true;
    resp.snapshot = std::move(*snap);
  }
  if (req.subscribe) {
    member_interest_[req.member == 0 ? from : req.member].insert(req.key);
    ensure_dc_interest(req.key);  // background fill on a miss
  }
  reply(codec::to_bytes(resp));
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void PeerGroupParent::on_message(NodeId from, std::uint32_t kind,
                                 ByteView body) {
  switch (kind) {
    case proto::kEpaxos: {
      const auto env = codec::from_bytes<proto::EpaxosEnvelope>(body);
      if (env.epoch != epoch_) break;
      epaxos_->on_message(from, env.msg);
      break;
    }
    case proto::kPushTxn: {
      const auto msg = codec::from_bytes<proto::PushTxn>(body);
      const auto push = dc_recv_[from].on_push(msg.session_seq);
      if (push.ack != 0) {
        tell(from, proto::kPushAck, proto::PushAck{push.ack});
      }
      if (!push.deliver) break;  // after-gap: await the sender's rewind
      engine_.ingest(msg.txn);
      si_order_.drain(engine_);
      if (msg.cut) seed_cut(*msg.cut);
      relay_push(msg);
      if (msg.cut) pump_forward();
      break;
    }
    case proto::kStateUpdate: {
      const auto msg = codec::from_bytes<proto::StateUpdate>(body);
      if (!dc_recv_[from].covers(msg.seq_watermark)) break;  // lost-push window
      seed_cut(msg.cut);
      for (const NodeId m : members_) {  // cleared watermark: see relay_push
        tell(m, proto::kStateUpdate, proto::StateUpdate{msg.cut, 0});
      }
      pump_forward();
      break;
    }
    case proto::kUnsubscribe: {
      const auto msg = codec::from_bytes<proto::UnsubscribeMsg>(body);
      const auto it = member_interest_.find(from);
      if (it != member_interest_.end()) {
        for (const ObjectKey& key : msg.keys) it->second.erase(key);
      }
      break;
    }
    default:
      break;
  }
}

void PeerGroupParent::on_request(NodeId from, std::uint32_t method,
                                 ByteView payload, ReplyFn reply) {
  switch (method) {
    case proto::kGroupJoin:
      handle_join(codec::from_bytes<proto::GroupJoinReq>(payload),
                  std::move(reply));
      break;
    case proto::kGroupLeave:
      handle_leave(codec::from_bytes<proto::GroupLeaveReq>(payload));
      reply(codec::to_bytes(true));
      break;
    case proto::kSubscribe:
      handle_member_subscribe(
          from, codec::from_bytes<proto::SubscribeReq>(payload),
          std::move(reply));
      break;
    case proto::kPeerFetch:
      handle_peer_fetch(from,
                        codec::from_bytes<proto::PeerFetchReq>(payload),
                        std::move(reply));
      break;
    default:
      reply(Error{Error::Code::kInvalidArgument, "unknown parent method"});
  }
}

}  // namespace colony
