#include "edge/edge_node.hpp"

#include <algorithm>

#include "security/sealed.hpp"
#include "util/assert.hpp"

namespace colony {

namespace {
/// Pause before the commit pump re-sends after a failed DC commit.
constexpr SimTime kRetryInterval = 500 * kMillisecond;
}  // namespace

const char* to_string(ClientMode m) {
  switch (m) {
    case ClientMode::kCloudOnly: return "cloud-only";
    case ClientMode::kClientCache: return "client-cache";
    case ClientMode::kPeerGroup: return "peer-group";
  }
  return "unknown";
}

const char* to_string(ReadSource s) {
  switch (s) {
    case ReadSource::kLocal: return "local";
    case ReadSource::kPeer: return "peer";
    case ReadSource::kDc: return "dc";
  }
  return "unknown";
}

EdgeNode::EdgeNode(sim::Network& net, NodeId id, EdgeConfig config)
    : DurableNode(net, id, config.disk, config.checkpoint_interval),
      config_(config),
      engine_(txns_, store_, config.num_dcs),
      interest_(config.cache_capacity),
      initial_dc_(config.dc) {
  security::register_acl_crdt();
  security::register_sealed_crdt();
  security::install_policy(engine_, store_);
  engine_.set_key_filter([this](const ObjectKey& key) {
    return key == security::acl_object_key() || interest_.contains(key) ||
           store_.has(key);
  });
  engine_.set_visible_hook(
      [this](const Transaction& txn) { notify_watchers(txn); });
  start();
}

void EdgeNode::notify_watchers(const Transaction& txn) {
  if (watchers_.empty()) return;
  // Collect first: a callback may watch/unwatch re-entrantly.
  std::vector<std::pair<WatchCb, ObjectKey>> to_call;
  for (const auto& [_, watcher] : watchers_) {
    for (const OpRecord& op : txn.ops) {
      if (op.key == watcher.key) {
        to_call.emplace_back(watcher.cb, op.key);
        break;
      }
    }
  }
  for (auto& [cb, key] : to_call) cb(key);
}

std::uint64_t EdgeNode::watch(const ObjectKey& key, WatchCb cb) {
  const std::uint64_t handle = next_watcher_++;
  watchers_.emplace(handle, Watcher{key, std::move(cb)});
  return handle;
}

void EdgeNode::unwatch(std::uint64_t handle) { watchers_.erase(handle); }

void EdgeNode::migrate_transaction(std::vector<ObjectKey> reads,
                                   std::vector<OpRecord> updates,
                                   CloudCb cb) {
  auto run = [this, reads = std::move(reads), updates = std::move(updates),
              cb = std::move(cb)]() mutable {
    execute_at_dc(std::move(reads), std::move(updates),
                  engine_.state_vector(), std::move(cb));
  };
  if (unacked_.empty()) {
    run();
  } else {
    // The DC must first receive the transactions this one depends upon
    // (section 3.9); the commit pump flushes them, then we fire.
    pending_migrated_.push_back(std::move(run));
  }
}

Arb EdgeNode::make_arb(Timestamp overwrites) {
  // local_now (not now) so injected clock skew flows into arbitration
  // timestamps — the HLC absorbs it, which is exactly what chaos verifies.
  // The step depends on the wall clock, which replay cannot reproduce; the
  // record carries the resulting HLC state instead.
  const Timestamp ts = HybridLogicalClock{hlc_}.witness(
      net_.local_now(id()), overwrites);
  log_record(kEdgeHlc, ts);
  apply_hlc(ts);
  return Arb{ts, fresh_dot()};
}

Dot EdgeNode::fresh_dot() {
  const std::uint64_t counter = dot_counter_ + 1;
  log_record(kEdgeDot, counter);
  apply_dot(counter);
  return Dot{id(), counter};
}

std::unique_ptr<Crdt> EdgeNode::read_at(const ObjectKey& key,
                                        const VersionVector& cut) const {
  if (!store_.has(key)) return nullptr;
  return store_.materialize(key, [this, &cut](const Dot& dot) {
    return engine_.is_applied(dot) && !engine_.is_masked(dot) &&
           txns_.visible_at(dot, cut);
  });
}

// ---------------------------------------------------------------------------
// Cache admission / eviction.
// ---------------------------------------------------------------------------

void EdgeNode::admit(const ObjectKey& key) {
  const auto victim = interest_.add(key);
  if (!victim.has_value()) return;
  store_.erase(*victim);
  if (recovering()) return;  // eviction notice is live traffic only
  const NodeId target = group_ ? group_->parent : config_.dc;
  tell(target, proto::kUnsubscribe, proto::UnsubscribeMsg{{*victim}});
}

void EdgeNode::invalidate_cache() {
  log_record(kEdgeInvalidate);
  apply_invalidate();
}

// ---------------------------------------------------------------------------
// Transactions.
// ---------------------------------------------------------------------------

EdgeNode::Txn EdgeNode::begin() {
  Txn txn;
  txn.id = ++txn_counter_;
  return txn;
}

void EdgeNode::update(Txn& txn, OpRecord op) {
  txn.ops.push_back(std::move(op));
}

void EdgeNode::finish_read(const Txn& txn, const ObjectKey& key,
                           CrdtType type, ReadCb cb, ReadSource source) {
  store_.ensure(key, type);
  interest_.touch(key);
  std::shared_ptr<Crdt> value = store_.current(key)->clone();
  for (const OpRecord& op : txn.ops) {
    if (op.key == key) value->apply(op.payload);
  }
  cb(std::move(value), source);
}

void EdgeNode::read(Txn& txn, const ObjectKey& key, CrdtType type,
                    ReadCb cb) {
  COLONY_ASSERT(config_.mode != ClientMode::kCloudOnly,
                "cloud-only clients use cloud_execute");
  if (store_.has(key)) {
    finish_read(txn, key, type, std::move(cb), ReadSource::kLocal);
    return;
  }
  if (group_) {
    // Collaborative cache first (section 5.1.2): the parent holds the
    // union of the members' interest sets.
    call(group_->parent, proto::kPeerFetch,
         proto::PeerFetchReq{key, true, id()},
         [this, &txn, key, type, cb = std::move(cb)](Result<Bytes> r) {
           if (r.ok()) {
             auto resp = codec::from_bytes<proto::PeerFetchResp>(r.value());
             if (resp.found) {
               // A DC fetch with an empty cut: the peer import is an
               // ordinary durable-state mutation.
               on_fetched(key, type,
                          proto::FetchResp{std::move(resp.snapshot), {}});
               finish_read(txn, key, type, std::move(cb), ReadSource::kPeer);
               return;
             }
           }
           fetch_from_dc(txn, key, type, std::move(cb));
         });
    return;
  }
  fetch_from_dc(txn, key, type, std::move(cb));
}

void EdgeNode::fetch_from_dc(const Txn& txn, const ObjectKey& key,
                             CrdtType type, ReadCb cb) {
  call(config_.dc, proto::kFetchObject,
       proto::FetchReq{key, true, config_.user},
       [this, &txn, key, type, cb = std::move(cb)](Result<Bytes> r) {
         if (r.ok()) {
           on_fetched(key, type,
                      codec::from_bytes<proto::FetchResp>(r.value()));
           finish_read(txn, key, type, std::move(cb), ReadSource::kDc);
           return;
         }
         if (r.error().code == Error::Code::kNotFound) {
           // Nobody has created the object yet: start from the initial
           // (empty) state locally.
           on_fetched(key, type, std::nullopt);
           finish_read(txn, key, type, std::move(cb), ReadSource::kDc);
           return;
         }
         // Disconnected and not cached: the transaction cannot proceed
         // (inherent edge limitation, section 4.2).
         cb(Error{Error::Code::kUnavailable,
                  "object not retrievable: " + key.full()},
            ReadSource::kDc);
       });
}

void EdgeNode::on_fetched(const ObjectKey& key, CrdtType type,
                          const std::optional<proto::FetchResp>& fetched) {
  log_record(kEdgeFetch, key, type, fetched);
  apply_fetch(key, type, fetched);
  drain_group_queue();
}

std::vector<ObjectKey> EdgeNode::command_keys(
    const Transaction& record) const {
  std::vector<ObjectKey> keys;
  for (const OpRecord& op : record.ops) keys.push_back(op.key);
  // Synthetic per-origin key: all commands from one node interfere, so
  // EPaxos delivers them in proposal order. Without it, a node's later
  // transaction (which causally depends on its earlier one via the
  // symbolic-commit chain) could be delivered and forwarded first.
  keys.push_back(ObjectKey{"_origin", std::to_string(id())});
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

Transaction EdgeNode::make_transaction(Txn&& txn) {
  Transaction out;
  out.meta.dot = fresh_dot();
  out.meta.origin = id();
  out.meta.user = config_.user;
  out.meta.snapshot = engine_.state_vector();
  if (last_local_unresolved_.has_value()) {
    out.meta.pending_deps.push_back(*last_local_unresolved_);
  }
  out.ops = std::move(txn.ops);
  return out;
}

Result<Dot> EdgeNode::commit(Txn&& txn) {
  if (crashed()) {
    return Error{Error::Code::kUnavailable, "node is crashed"};
  }
  if (config_.mode == ClientMode::kCloudOnly) {
    return Error{Error::Code::kInvalidArgument,
                 "cloud-only clients use cloud_execute"};
  }
  if (txn.ops.empty()) return Dot{};  // read-only: no side effects
  if (unacked_.size() >= kMaxUnacked) {
    return Error{Error::Code::kUnavailable,
                 "commit backlog full (out of storage)"};
  }

  Transaction record = make_transaction(std::move(txn));
  const Dot dot = record.meta.dot;
  const auto keys = command_keys(record);

  log_record(kEdgeCommit, record);
  apply_commit(record);

  if (group_) {
    // Variant 2 (section 5.1.4): commit is local; EPaxos ordering and the
    // sync point's DC handoff happen in the background.
    propose_in_group(proto::GroupCommand{false, record, {}}, keys);
  } else {
    pump_commits();
  }
  return dot;
}

void EdgeNode::commit_write_through(Txn&& txn, CommitCb cb) {
  const Result<Dot> local = commit(std::move(txn));
  if (!local.ok()) {
    cb(local.error());
    return;
  }
  const Dot dot = local.value();
  if (!dot.valid()) {  // read-only
    cb(dot);
    return;
  }
  ack_waiters_.emplace(dot, std::move(cb));
}

void EdgeNode::commit_ordered(Txn&& txn, CommitCb cb) {
  if (!group_) {
    cb(Error{Error::Code::kInvalidArgument,
             "ordered commit requires a peer group"});
    return;
  }
  if (txn.ops.empty()) {
    cb(Dot{});
    return;
  }
  Transaction record = make_transaction(std::move(txn));
  const Dot dot = record.meta.dot;
  const auto keys = command_keys(record);

  const auto expected =
      group_->si_order.expected(keys, group_->own_pending_per_key);
  for (const OpRecord& op : record.ops) admit(op.key);
  // Stored but not applied until consensus orders it (variant 1); going
  // through the engine lets pending dependants see the record arrive.
  // Unlogged (group state is volatile): flag the node for verification.
  group_tainted_ = true;
  engine_.admit(record);
  group_->ordered_waiting.emplace(dot, std::move(cb));
  propose_in_group(proto::GroupCommand{true, std::move(record), expected},
                   keys);
}

void EdgeNode::propose_in_group(const proto::GroupCommand& gc,
                                const std::vector<ObjectKey>& keys) {
  const Dot dot = gc.txn.meta.dot;
  consensus::Command cmd{dot, keys, codec::to_bytes(gc)};
  group_->pending_cmds.emplace(dot, cmd);
  for (const ObjectKey& key : keys) ++group_->own_pending_per_key[key];
  const auto inst = group_->epaxos->propose(std::move(cmd));
  schedule_nudge(inst, group_->epoch);
}

void EdgeNode::cloud_execute(std::vector<ObjectKey> reads,
                             std::vector<OpRecord> updates, CloudCb cb) {
  execute_at_dc(std::move(reads), std::move(updates), VersionVector{},
                std::move(cb));
}

void EdgeNode::execute_at_dc(std::vector<ObjectKey> reads,
                             std::vector<OpRecord> updates,
                             VersionVector min_snapshot, CloudCb cb) {
  call(config_.dc, proto::kDcExecute,
       proto::DcExecuteReq{std::move(reads), std::move(updates),
                           config_.user, std::move(min_snapshot)},
       [cb = std::move(cb)](Result<Bytes> r) {
         if (!r.ok()) {
           cb(r.error());
           return;
         }
         cb(codec::from_bytes<proto::DcExecuteResp>(r.value()));
       });
}

// ---------------------------------------------------------------------------
// Commit pump (direct DC attachment).
// ---------------------------------------------------------------------------

void EdgeNode::pump_commits() {
  if (crashed() || group_ || pump_in_flight_ || unacked_.empty()) return;
  pump_in_flight_ = true;
  const Dot dot = unacked_.front();
  const Transaction* txn = txns_.find(dot);
  COLONY_ASSERT(txn != nullptr, "unacked dot without record");
  call(config_.dc, proto::kEdgeCommit, proto::EdgeCommitReq{*txn},
       [this](Result<Bytes> r) {
         pump_in_flight_ = false;
         if (r.ok()) {
           on_resolution(codec::from_bytes<proto::ResolutionMsg>(r.value()));
           pump_commits();
           return;
         }
         // Offline or incompatible: retry later; duplicates are filtered
         // by dot at the DC (section 3.8). The retry chain dies with its
         // incarnation (the restarted pump starts its own).
         after<&EdgeNode::pump_commits>(kRetryInterval);
       });
}

void EdgeNode::on_resolution(const proto::ResolutionMsg& msg) {
  log_record(kEdgeAck, msg);
  apply_resolution(msg);
  drain_group_queue();
  if (const auto wit = ack_waiters_.find(msg.dot); wit != ack_waiters_.end()) {
    CommitCb cb = std::move(wit->second);
    ack_waiters_.erase(wit);
    cb(msg.dot);
  }
  if (unacked_.empty() && !pending_migrated_.empty()) {
    // The chain flushed: launch deferred migrated transactions (§3.9).
    std::vector<std::function<void()>> ready;
    ready.swap(pending_migrated_);
    for (auto& run : ready) run();
  }
}

// ---------------------------------------------------------------------------
// Session management.
// ---------------------------------------------------------------------------

void EdgeNode::subscribe(std::vector<ObjectKey> keys, DoneCb done) {
  const NodeId target = group_ ? group_->parent : config_.dc;
  call(target, proto::kSubscribe, proto::SubscribeReq{keys, config_.user},
       [this, keys, done = std::move(done)](Result<Bytes> r) {
         if (!r.ok()) {
           done(r.error());
           return;
         }
         const auto resp = codec::from_bytes<proto::SubscribeResp>(r.value());
         log_record(kEdgeSubscribe, keys, resp);
         apply_subscribe(keys, resp);
         drain_group_queue();
         done(Result<void>{});
       });
}

void EdgeNode::open_session(std::vector<std::string> buckets, DoneCb done) {
  call(config_.dc, proto::kOpenSession,
       proto::OpenSessionReq{config_.user, std::move(buckets)},
       [this, done = std::move(done)](Result<Bytes> r) {
         if (!r.ok()) {
           done(r.error());
           return;
         }
         const auto resp =
             codec::from_bytes<proto::OpenSessionResp>(r.value());
         if (!resp.keys.empty()) {
           // Keys stay valid across disconnection (section 5.3), so they
           // must also survive a crash.
           log_record(kEdgeSessionKey, resp.keys);
         }
         apply_session_keys(resp.keys);
         done(Result<void>{});
       });
}

std::optional<security::SessionKey> EdgeNode::session_key(
    const std::string& bucket) const {
  const auto it = session_keys_.find(bucket);
  if (it == session_keys_.end()) return std::nullopt;
  return it->second;
}

void EdgeNode::migrate_to_dc(NodeId new_dc, DoneCb done) {
  log_record(kEdgeMigrate, new_dc);
  apply_migrate(new_dc);
  call(new_dc, proto::kMigrate,
       proto::MigrateReq{engine_.state_vector(), interest_.keys(),
                         config_.user, engine_.seeded_cut()},
       [this, done = std::move(done)](Result<Bytes> r) {
         if (!r.ok()) {
           done(r.error());
           return;
         }
         const auto resp = codec::from_bytes<proto::MigrateResp>(r.value());
         if (!resp.compatible) {
           // The new DC is missing our dependencies (section 3.8); the
           // caller may retry once the DC catches up.
           done(Error{Error::Code::kIncompatible,
                      "new DC lacks causal dependencies"});
           return;
         }
         // Do NOT seed resp.cut here: the cut can cover transactions
         // still in flight (or lost) on the old DC's channel, and seeding
         // past them would let their successors become visible first. The
         // new DC backfills everything between our state and its cut over
         // the session channel and then announces the cut with a receive
         // watermark — the safe seeding point.
         // Re-send unacknowledged transactions; the dot filter at the DCs
         // drops duplicates.
         pump_commits();
         done(Result<void>{});
       });
}

// ---------------------------------------------------------------------------
// Peer group.
// ---------------------------------------------------------------------------

void EdgeNode::join_group(NodeId parent, DoneCb done) {
  call(parent, proto::kGroupJoin,
       proto::GroupJoinReq{id(), config_.user, engine_.state_vector(),
                           interest_.keys()},
       [this, parent, done = std::move(done)](Result<Bytes> r) {
         if (!r.ok()) {
           done(r.error());
           return;
         }
         const auto resp = codec::from_bytes<proto::GroupJoinResp>(r.value());
         if (!resp.accepted) {
           done(Error{Error::Code::kIncompatible,
                      "group parent rejected join (causal incompatibility)"});
           return;
         }
         Group g;
         g.parent = parent;
         g.epoch = resp.epoch;
         g.members = resp.members;
         if (group_) {
           // Rejoin after a disconnection: carry over commands that were
           // proposed into the old (dead) epoch so they get re-ordered.
           g.pending_cmds = std::move(group_->pending_cmds);
           g.ordered_waiting = std::move(group_->ordered_waiting);
         }
         // Locally committed but never group-delivered transactions from a
         // fully offline phase also need (re-)proposal.
         for (const Dot& dot : unacked_) {
           const Transaction* txn = txns_.find(dot);
           if (txn != nullptr && !g.pending_cmds.contains(dot)) {
             const proto::GroupCommand gc{false, *txn, {}};
             g.pending_cmds.emplace(
                 dot, consensus::Command{dot, command_keys(*txn),
                                         codec::to_bytes(gc)});
           }
         }
         group_.emplace(std::move(g));
         rebuild_epaxos();
         // Repopulate the cache through the group's content-sharing
         // network (section 6.3): relays missed while disconnected are
         // recovered from the parent's snapshots.
         const auto interest = interest_.keys();
         if (!interest.empty()) {
           subscribe(interest, [](Result<void>) {});
         }
         done(Result<void>{});
       });
}

void EdgeNode::leave_group(DoneCb done) {
  if (!group_) {
    done(Result<void>{});
    return;
  }
  call(group_->parent, proto::kGroupLeave, proto::GroupLeaveReq{id()},
       [done = std::move(done)](Result<Bytes> /*r*/) {
         done(Result<void>{});
       });
  exit_group();
}

void EdgeNode::exit_group() {
  // PSI commits still awaiting their slot: other members may already have
  // ordered them, so their records stay, but this node will never learn
  // the verdict.
  const auto waiting = std::move(group_->ordered_waiting);
  group_.reset();
  // Fall back to direct DC attachment for any unacknowledged commits.
  pump_commits();
  for (const auto& [dot, cb] : waiting) {
    cb(Error{Error::Code::kUnavailable,
             "left the group before ordering; outcome unknown"});
  }
}

void EdgeNode::schedule_nudge(consensus::InstanceId inst,
                              std::uint64_t epoch) {
  net_.scheduler().after(300 * kMillisecond, [this, inst, epoch] {
    if (!group_ || group_->epoch != epoch) return;  // reconfigured
    const auto status = group_->epaxos->status(inst);
    if (status >= consensus::InstanceStatus::kCommitted ||
        status == consensus::InstanceStatus::kNone) {
      return;
    }
    group_->epaxos->nudge(inst);
    schedule_nudge(inst, epoch);  // keep trying until it commits
  });
}

void EdgeNode::rebuild_epaxos() {
  COLONY_ASSERT(group_.has_value(), "no group to rebuild");
  group_->epaxos = std::make_unique<consensus::Epaxos>(
      id(), group_->members,
      [this](NodeId to, const consensus::EpaxosMsg& msg) {
        tell(to, proto::kEpaxos, proto::EpaxosEnvelope{group_->epoch, msg});
      },
      [this](const consensus::Command& cmd) { on_group_deliver(cmd); });
  // Re-propose own undelivered commands in the new epoch.
  for (const auto& [dot, cmd] : group_->pending_cmds) {
    const auto inst = group_->epaxos->propose(cmd);
    schedule_nudge(inst, group_->epoch);
  }
}

void EdgeNode::on_group_deliver(const consensus::Command& cmd) {
  COLONY_ASSERT(group_.has_value(), "delivery without group");
  const auto gc = codec::from_bytes<proto::GroupCommand>(cmd.payload);
  const Dot dot = gc.txn.meta.dot;
  const bool commits = group_->si_order.deliver(gc, cmd.keys);

  // Group deliveries mutate local state without WAL records (group state
  // is volatile by design; §9 of DESIGN.md): mark the node so in-place
  // recovery verification is skipped until the next crash resets it.
  group_tainted_ = true;

  if (gc.txn.meta.origin == id()) {
    group_->pending_cmds.erase(dot);
    for (const ObjectKey& key : cmd.keys) {
      auto it = group_->own_pending_per_key.find(key);
      if (it != group_->own_pending_per_key.end() && it->second > 0) {
        --it->second;
      }
    }
    const auto wit = group_->ordered_waiting.find(dot);
    if (wit != group_->ordered_waiting.end()) {
      CommitCb cb = std::move(wit->second);
      group_->ordered_waiting.erase(wit);
      if (!commits) {
        txns_.erase(dot);  // PSI write-write conflict: abort (section 5.1.4)
        cb(Error{Error::Code::kAborted, "PSI write-write conflict"});
        return;
      }
      engine_.apply_local(dot);
      last_local_unresolved_ = dot;
      unacked_.push_back(dot);
      cb(dot);
    }
    return;  // variant-2 own transactions were applied at commit
  }

  // A conflicting command is deterministically aborted everywhere.
  if (commits) group_->si_order.apply(gc.txn, engine_);
}

void EdgeNode::drain_group_queue() {
  if (group_) group_->si_order.drain(engine_);
}

// ---------------------------------------------------------------------------
// Message handling.
// ---------------------------------------------------------------------------

void EdgeNode::on_message(NodeId from, std::uint32_t kind,
                          ByteView body) {
  if (crashed()) return;  // dead process: frames fall on the floor
  switch (kind) {
    case proto::kPushTxn: {
      const auto msg = codec::from_bytes<proto::PushTxn>(body);
      // The receive-state transition belongs to the logged effect
      // (apply_push); preview it on a copy to ack and filter first.
      const auto push =
          proto::PushChannelRecv{push_recv_[from]}.on_push(msg.session_seq);
      if (push.ack != 0) {
        tell(from, proto::kPushAck, proto::PushAck{push.ack});
      }
      if (!push.deliver) break;  // after-gap: await the sender's rewind
      // Delivered pushes (duplicates included — they re-drive the same
      // receive-state transition) are the channel's durable history:
      // replaying them restores both the engine AND push_recv_, so the
      // restarted node acks from the exact prefix it had confirmed.
      log_record(kEdgePush, from, msg);
      apply_push(from, msg);
      drain_group_queue();
      break;
    }
    case proto::kStateUpdate: {
      const auto msg = codec::from_bytes<proto::StateUpdate>(body);
      if (!push_recv_[from].covers(msg.seq_watermark)) {
        // The cut assumes session pushes we have not received (they were
        // lost in a crash window); seeding it would make successors of the
        // lost push visible first. The DC's stall detection rewinds the
        // channel and re-announces the cut.
        break;
      }
      log_record(kEdgeSeed, msg.cut);
      apply_seed(msg.cut);
      drain_group_queue();
      break;
    }
    case proto::kResolutionRelay: {
      const auto msg = codec::from_bytes<proto::ResolutionMsg>(body);
      on_resolution(msg);
      break;
    }
    case proto::kGroupMembership: {
      const auto msg = codec::from_bytes<proto::MembershipMsg>(body);
      if (!group_) break;
      if (std::find(msg.members.begin(), msg.members.end(), id()) ==
          msg.members.end()) {
        exit_group();  // removed from the group
        break;
      }
      group_->epoch = msg.epoch;
      group_->members = msg.members;
      rebuild_epaxos();
      break;
    }
    case proto::kEpaxos: {
      const auto env = codec::from_bytes<proto::EpaxosEnvelope>(body);
      if (!group_ || env.epoch != group_->epoch) break;  // stale epoch
      group_->epaxos->on_message(from, env.msg);
      break;
    }
    default:
      break;
  }
}

void EdgeNode::on_request(NodeId /*from*/, std::uint32_t method,
                          ByteView payload, ReplyFn reply) {
  if (crashed()) return;  // dead process: the caller's RPC times out
  switch (method) {
    case proto::kPeerFetch: {
      // Collaborative cache: serve a neighbour from the local cache.
      const auto req = codec::from_bytes<proto::PeerFetchReq>(payload);
      proto::PeerFetchResp resp;
      if (auto snap = store_.export_snapshot(req.key)) {
        resp.found = true;
        resp.snapshot = std::move(*snap);
      }
      reply(codec::to_bytes(resp));
      break;
    }
    case proto::kGroupPing:
      reply(codec::to_bytes(true));
      break;
    default:
      reply(Error{Error::Code::kInvalidArgument, "unknown edge method"});
  }
}

// ---------------------------------------------------------------------------
// Durability: the edge's record vocabulary, checkpoint and durable projection.
// ---------------------------------------------------------------------------

// --- the durable effect of each record kind --------------------------------

void EdgeNode::apply_commit(const Transaction& record) {
  // Admit the written keys into the cache before applying, so the key
  // filter materialises them.
  for (const OpRecord& op : record.ops) admit(op.key);
  engine_.ingest(record);
  engine_.apply_local(record.meta.dot);  // read-my-writes (section 3.8)
  last_local_unresolved_ = record.meta.dot;
  unacked_.push_back(record.meta.dot);
  ++commits_;
}

void EdgeNode::apply_resolution(const proto::ResolutionMsg& msg) {
  engine_.resolve_full(msg.dot, msg.dc, msg.ts, msg.resolved_snapshot);
  const auto it = std::find(unacked_.begin(), unacked_.end(), msg.dot);
  if (it != unacked_.end()) unacked_.erase(it);
  if (last_local_unresolved_ == msg.dot) last_local_unresolved_.reset();
}

void EdgeNode::apply_push(NodeId from, const proto::PushTxn& msg) {
  // Only delivered pushes are logged, so the receive transition replays
  // verbatim.
  push_recv_[from].on_push(msg.session_seq);
  engine_.ingest(msg.txn);
  // A delivered push is inside the receive prefix, so the cut it carries
  // (watermark: its own session_seq) is covered.
  if (msg.cut) apply_seed(*msg.cut);
}

void EdgeNode::apply_seed(const VersionVector& cut) {
  engine_.seed_state(cut);
  engine_.drain();
}

void EdgeNode::apply_subscribe(const std::vector<ObjectKey>& keys,
                               const proto::SubscribeResp& resp) {
  for (const ObjectSnapshot& snap : resp.snapshots) {
    store_.import_snapshot(snap);
    engine_.reapply_missing(snap.key, snap);
  }
  for (const ObjectKey& key : keys) admit(key);
  apply_seed(resp.cut);
}

void EdgeNode::apply_fetch(const ObjectKey& key, CrdtType type,
                           const std::optional<proto::FetchResp>& fetched) {
  if (fetched) {
    store_.import_snapshot(fetched->snapshot);
    // The fetched (K-stable) version may be older than what this node had
    // already observed for the key: replay the locally-known suffix.
    engine_.reapply_missing(fetched->snapshot.key, fetched->snapshot);
    apply_seed(fetched->cut);
  }
  admit(key);
  // Also after an import, which skips an empty object.
  store_.ensure(key, type);
}

void EdgeNode::apply_dot(std::uint64_t counter) { dot_counter_ = counter; }

void EdgeNode::apply_hlc(Timestamp last) { hlc_.restore(last); }

void EdgeNode::apply_migrate(NodeId dc) { config_.dc = dc; }

void EdgeNode::apply_invalidate() {
  for (const ObjectKey& key : store_.keys()) {
    store_.erase(key);
    interest_.remove(key);
  }
}

void EdgeNode::apply_session_keys(const SessionKeys& keys) {
  for (const auto& [bucket, key] : keys) session_keys_[bucket] = key;
}

void EdgeNode::replay_record(std::uint32_t type, ByteView payload) {
  switch (type) {
    case kEdgeCommit: return replay(payload, &EdgeNode::apply_commit);
    case kEdgeAck: return replay(payload, &EdgeNode::apply_resolution);
    case kEdgePush: return replay(payload, &EdgeNode::apply_push);
    case kEdgeSeed: return replay(payload, &EdgeNode::apply_seed);
    case kEdgeSubscribe: return replay(payload, &EdgeNode::apply_subscribe);
    case kEdgeFetch: return replay(payload, &EdgeNode::apply_fetch);
    case kEdgeDot: return replay(payload, &EdgeNode::apply_dot);
    case kEdgeHlc: return replay(payload, &EdgeNode::apply_hlc);
    case kEdgeMigrate: return replay(payload, &EdgeNode::apply_migrate);
    case kEdgeInvalidate: return replay(payload, &EdgeNode::apply_invalidate);
    case kEdgeSessionKey:
      return replay(payload, &EdgeNode::apply_session_keys);
  }
  COLONY_ASSERT(false, "unknown edge WAL record type");
}

void EdgeNode::encode_checkpoint(Encoder& enc) const {
  // checkpoint() is non-const so decode can read into it; writing does not
  // mutate.
  codec::write(enc, const_cast<EdgeNode*>(this)->checkpoint());
}

void EdgeNode::decode_checkpoint(ByteView snapshot) {
  codec::from_bytes(snapshot, checkpoint());
}

void EdgeNode::wipe() {
  config_.dc = initial_dc_;  // migrations replay from zero
  interest_ = InterestSet(config_.cache_capacity);
  push_recv_.clear();
  dot_counter_ = 0;
  txn_counter_ = 0;
  commits_ = 0;
  unacked_.clear();
  pump_in_flight_ = false;
  last_local_unresolved_.reset();
  group_.reset();
  group_tainted_ = false;
  watchers_.clear();
  next_watcher_ = 1;
  pending_migrated_.clear();
  ack_waiters_.clear();
  session_keys_.clear();
  hlc_.restore(0);
  txns_.clear();
  store_.clear();
  engine_.reset();
}

void EdgeNode::on_start() { pump_commits(); }

std::unique_ptr<storage::DurableNode> EdgeNode::make_replica(
    sim::Network& net, storage::Wal& disk) const {
  EdgeConfig cfg = config_;
  cfg.dc = initial_dc_;  // replay rebuilds any migration
  cfg.disk = &disk;
  return std::make_unique<EdgeNode>(net, id(), cfg);
}

bool EdgeNode::verifiable() const {
  return !in_group() && !group_tainted_ && config_.cache_capacity == 0;
}

}  // namespace colony
