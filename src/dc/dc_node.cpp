#include "dc/dc_node.hpp"

#include <algorithm>
#include <utility>

#include "security/sealed.hpp"
#include "util/assert.hpp"

namespace colony {

namespace {
/// Bake K-stable journal prefixes into base versions every N gossips.
constexpr std::size_t kBaseAdvanceEvery = 50;
/// CPU cost of serving one client-facing RPC / one session push. Requests
/// queue behind a single logical CPU, which is what saturates throughput
/// in Figure 4.
constexpr SimTime kRpcServiceTime = 150 * kMicrosecond;
constexpr SimTime kPushServiceTime = 15 * kMicrosecond;
/// CPU cost of a cloud-mode transaction execution (kDcExecute): more than a
/// plain session RPC, since it fans out shard reads and runs 2PC.
constexpr SimTime kExecuteServiceTime = 225 * kMicrosecond;
/// Seed of the session-key service. All DCs of a deployment share it so a
/// client can open a session at any DC (the authentication service is
/// logically one, section 6.2).
constexpr std::uint64_t kKeySeed = 0xC010;
}  // namespace

DcNode::DcNode(sim::Network& net, NodeId id, DcConfig config,
               std::vector<NodeId> peers, std::vector<NodeId> shards)
    : DurableNode(net, id, config.disk, config.checkpoint_interval),
      config_(config),
      peers_(std::move(peers)),
      shard_nodes_(std::move(shards)),
      engine_(txns_, store_, config.num_dcs),
      keys_(kKeySeed),
      dc_states_(config.num_dcs, VersionVector(config.num_dcs)),
      k_cut_(config.num_dcs) {
  security::register_acl_crdt();
  security::register_sealed_crdt();
  COLONY_ASSERT(config_.k_stability >= 1 &&
                    config_.k_stability <= config_.num_dcs,
                "K must be in [1, num_dcs]");
  COLONY_ASSERT(!shard_nodes_.empty(), "a DC needs at least one shard");
  for (std::uint32_t s = 0; s < shard_nodes_.size(); ++s) ring_.add_shard(s);

  // A DC applies the full commit stream of every peer, so its state-vector
  // components advance contiguously (see VisibilityEngine).
  engine_.set_sequential_components(true);
  engine_.set_visible_hook(
      [this](const Transaction& txn) { on_txn_visible(txn); });
  security::install_policy(engine_, store_);
  start();
}

const security::AclObject* DcNode::acl() const {
  return security::current_policy(store_);
}

// ---------------------------------------------------------------------------
// Visibility hook: shard fan-out, geo-replication, session pushes.
// ---------------------------------------------------------------------------

void DcNode::on_txn_visible(const Transaction& txn) {
  fan_out_to_shards(txn);
  // Parked migrated transactions may now have their snapshot.
  if (!waiting_execs_.empty()) {
    std::vector<WaitingExec> ready;
    for (auto it = waiting_execs_.begin(); it != waiting_execs_.end();) {
      if (it->req.min_snapshot.leq(engine_.state_vector())) {
        ready.push_back(std::move(*it));
        it = waiting_execs_.erase(it);
      } else {
        ++it;
      }
    }
    for (WaitingExec& w : ready) {
      handle_dc_execute(w.from, w.req, std::move(w.reply));
    }
  }
  if (txn.meta.accepted_by(config_.dc_id) && !recovering()) {
    // This DC sequenced the transaction: replicate it over the mesh in
    // commit order (per-link FIFO preserves it). Suppressed during WAL
    // replay — the live run already replicated, and anti-entropy repairs
    // any peer that genuinely missed it.
    for (const NodeId peer : peers_) {
      tell(peer, proto::kReplicateTxn, proto::ReplicateTxn{txn});
    }
  }
  recompute_k_cut();
  push_sessions();
}

void DcNode::fan_out_to_shards(const Transaction& txn) {
  // WAL replay rebuilds only this node; shards keep (or separately rebuild)
  // their own state, and re-fanning the history out would double-apply.
  if (recovering()) return;
  const Timestamp seq = engine_.log().size();
  std::map<std::uint32_t, std::vector<OpRecord>> by_shard;
  for (const OpRecord& op : txn.ops) {
    by_shard[ring_.owner(op.key)].push_back(op);
  }
  for (std::uint32_t s = 0; s < shard_nodes_.size(); ++s) {
    proto::ShardApplyMsg msg;
    msg.seq = seq;
    msg.dot = txn.meta.dot;
    const auto it = by_shard.find(s);
    if (it != by_shard.end()) msg.ops = std::move(it->second);
    // Every shard gets the seq advance (even without ops) so ClockSI reads
    // at this snapshot do not stall on untouched shards.
    tell(shard_nodes_[s], proto::kShardApply, std::move(msg));
  }
}

void DcNode::recompute_k_cut() {
  dc_states_[config_.dc_id] = engine_.state_vector();
  k_cut_ = k_stable_cut(dc_states_, config_.k_stability);
  // Cap the cut by what this DC has itself applied: gossip can prove a
  // transaction K-replicated *elsewhere* while a partition still keeps it
  // from us. Announcing such a cut to a session would claim coverage of
  // values this DC never delivered — a subscriber would seed its state
  // past them and show their successors first. Our state components
  // advance contiguously (sequential mode), so a component-wise min is a
  // sound causal cut.
  const VersionVector& mine = engine_.state_vector();
  for (DcId dc = 0; dc < k_cut_.size(); ++dc) {
    k_cut_.set(dc, std::min(k_cut_.at(dc), mine.at(dc)));
  }
}

JournalStore::DotPredicate DcNode::k_stable_predicate() const {
  const VersionVector cut = k_cut_;
  return [this, cut](const Dot& dot) {
    return engine_.is_applied(dot) && !engine_.is_masked(dot) &&
           txns_.visible_at(dot, cut);
  };
}

std::optional<ObjectSnapshot> DcNode::export_k_stable(
    const ObjectKey& key) const {
  return store_.export_at(key, k_stable_predicate());
}

// ---------------------------------------------------------------------------
// Gossip / K-stability.
// ---------------------------------------------------------------------------

void DcNode::gossip_tick() {
  for (const NodeId peer : peers_) {
    tell(peer, proto::kDcGossip,
         proto::DcGossip{config_.dc_id, engine_.state_vector()});
  }
  recompute_k_cut();
  for (auto& [node, session] : sessions_) {
    // An outstanding push whose ack makes no progress for several ticks
    // means it (or its ack) was dropped in a crash window the liveness
    // poll never observed — the receiver withholds acks on a gap: resync.
    if (!session.outstanding.empty() &&
        session.acked_seq == session.acked_seq_last_tick) {
      if (++session.stall_ticks >= 5) resync_session(session);
    } else {
      session.stall_ticks = 0;
    }
    session.acked_seq_last_tick = session.acked_seq;
  }
  push_sessions(/*announce=*/true);

  if (++gossip_count_ % kBaseAdvanceEvery == 0) {
    // Baking bases folds K-stable journal prefixes into base versions —
    // a destructive, cut-dependent rewrite. Log it so replay re-bakes at
    // the same point with the same cut (gossip records restored it).
    log_record(kWalDcAdvanceBase);
    apply_advance_base();
  }
  schedule_gossip();
}

void DcNode::handle_gossip(NodeId from, const proto::DcGossip& msg) {
  // Gossip advances dc_states_, which apply_advance_base() bakes into
  // journal base versions — so the merged vectors must be reproducible at
  // each logged base advance. Log the message, not the merged result.
  log_record(kWalDcGossip, msg);
  apply_gossip(msg);

  // Anti-entropy: replication is fire-and-forget, so a mesh partition can
  // lose transactions. The gossiped state vector exposes the gap — re-send
  // the suffix of our commit stream the peer is missing.
  for (auto i = static_cast<std::size_t>(msg.state.at(config_.dc_id));
       i < my_commits_.size(); ++i) {
    const Transaction* txn = txns_.find(my_commits_[i]);
    COLONY_ASSERT(txn != nullptr, "commit stream references unknown txn");
    tell(from, proto::kReplicateTxn, proto::ReplicateTxn{*txn});
  }
  push_sessions();
}

// ---------------------------------------------------------------------------
// Session pushes.
// ---------------------------------------------------------------------------

void DcNode::push_sessions(bool announce) {
  // No pushes during WAL replay: the sequence stream must not advance past
  // what the live run handed to the network (sessions resync on restart).
  if (recovering()) return;
  const std::size_t from = frontier_;
  hand_out_stable();
  const std::uint64_t epoch = net_.topology_epoch();
  const bool check_links = sessions_changed_ || epoch != checked_epoch_;
  // Every connected session's cursor is at a log entry that is not
  // K-stable, no connection changed, and no cut is due: nothing to send.
  if (frontier_ == from && !announce && !check_links && !off_frontier_) {
    return;
  }
  // The cut of a session at the frontier, computed once for all of them.
  std::optional<VersionVector> frontier_cut;
  bool off_frontier = false;
  for (auto& [node, session] : sessions_) {
    std::optional<proto::PushTxn> last;
    if (session_live(node, session, check_links)) {
      if (session.cursor == from) {
        for (const std::size_t i : session.round_pushes) {
          queue_push(node, session, stable_[i].index, *stable_[i].txn, last);
        }
        session.cursor = frontier_;
      } else {
        walk_session(node, session, last);
      }
      off_frontier |= session.cursor != frontier_;
      // The cut goes out on the round's last push, or alone on the gossip
      // tick.
      if (last || announce) {
        if (session.cursor == frontier_ && !frontier_cut) {
          frontier_cut = session_cut(frontier_);
        }
        VersionVector cut = session.cursor == frontier_
                                ? *frontier_cut
                                : session_cut(session.cursor);
        const bool moved = !(cut == session.last_cut_sent);
        if (moved) session.last_cut_sent = cut;
        if (last) {
          if (moved) last->cut = std::move(cut);
          tell(node, proto::kPushTxn, std::move(*last));
        } else if (moved) {
          tell(node, proto::kStateUpdate,
               proto::StateUpdate{std::move(cut), session.seq});
        }
      }
    }
    session.round_pushes.clear();
  }
  checked_epoch_ = epoch;
  sessions_changed_ = false;
  off_frontier_ = off_frontier;
}

void DcNode::hand_out_stable() {
  const auto& log = engine_.log();
  stable_.clear();
  for (; frontier_ < log.size(); ++frontier_) {
    const Dot& dot = log[frontier_];
    if (!txns_.visible_at(dot, k_cut_)) break;  // not K-stable yet
    if (engine_.is_masked(dot)) continue;       // pushed to nobody
    const Transaction* txn = txns_.find(dot);
    COLONY_ASSERT(txn != nullptr, "log references unknown txn");
    const std::size_t entry = stable_.size();
    stable_.push_back(StableEntry{frontier_, txn});
    const auto hand = [entry](EdgeSession& session) {
      auto& pushes = session.round_pushes;
      if (pushes.empty() || pushes.back() != entry) pushes.push_back(entry);
    };
    for (const OpRecord& op : txn->ops) {
      if (op.key == security::acl_object_key()) {
        for (auto& [_, session] : sessions_) hand(session);
      } else if (const auto it = watchers_.find(op.key);
                 it != watchers_.end()) {
        for (EdgeSession* session : it->second) hand(*session);
      }
    }
  }
}

bool DcNode::session_live(NodeId node, EdgeSession& session,
                          bool check_links) {
  if (!check_links) return session.connected;
  // A down uplink — or a crashed endpoint — would silently swallow pushes
  // while the cursor advances, leaving the session permanently stale; pause
  // instead (TCP-like: the sender knows the connection is gone) and resume
  // on the next tick.
  if (!net_.link_up(id(), node) || !net_.node_up(node) ||
      !net_.node_up(id())) {
    session.connected = false;
    return false;
  }
  if (!session.connected) {
    // The connection is back. Anything in flight when it broke was lost
    // after the cursor had already advanced past it — resync from the last
    // acknowledged position.
    session.connected = true;
    resync_session(session);
  }
  return true;
}

void DcNode::walk_session(NodeId node, EdgeSession& session,
                          std::optional<proto::PushTxn>& last) {
  // Push the K-stable prefix of the visibility log from the cursor that
  // intersects the session's interest set, in log (causal) order.
  const auto& log = engine_.log();
  for (; session.cursor < log.size(); ++session.cursor) {
    const Dot& dot = log[session.cursor];
    if (!txns_.visible_at(dot, k_cut_)) break;  // not K-stable yet
    const Transaction* txn = txns_.find(dot);
    COLONY_ASSERT(txn != nullptr, "log references unknown txn");
    if (engine_.is_masked(dot)) continue;
    const bool interesting =
        std::any_of(txn->ops.begin(), txn->ops.end(), [&](const OpRecord& op) {
          return session.interest.contains(op.key) ||
                 op.key == security::acl_object_key();
        });
    if (interesting) queue_push(node, session, session.cursor, *txn, last);
  }
}

void DcNode::queue_push(NodeId node, EdgeSession& session, std::size_t index,
                        const Transaction& txn,
                        std::optional<proto::PushTxn>& last) {
  if (last) tell(node, proto::kPushTxn, std::move(*last));
  last = proto::PushTxn{txn, ++session.seq, std::nullopt};
  session.outstanding.emplace_back(session.seq, index + 1);
  // Pushes consume DC CPU; they delay later request processing.
  busy_until_ = std::max(busy_until_, net_.now()) + kPushServiceTime;
}

VersionVector DcNode::session_cut(std::size_t cursor) const {
  // A cut announced over a session asserts "everything interesting below
  // this has been delivered to you (or sits in the snapshots you were
  // given)". k_cut_ alone does not satisfy that premise: the push loop
  // stops at the first non-K-stable *log* entry, while later log entries
  // can already be K-stable (commit order differs from apply order across
  // sequencers) and hence inside k_cut_ — yet they were never pushed.
  // Cap each component so no log entry at or beyond the cursor is covered;
  // the subscriber would otherwise seed past values only a second channel
  // (after a migration) could show it first.
  VersionVector cut = k_cut_;
  const auto& log = engine_.log();
  for (std::size_t i = cursor; i < log.size(); ++i) {
    const Transaction* txn = txns_.find(log[i]);
    if (txn == nullptr) continue;
    for (DcId dc = 0; dc < cut.size(); ++dc) {
      if (!txn->meta.accepted_by(dc)) continue;
      const Timestamp ts = txn->meta.commit.at(dc);
      if (ts != 0 && ts <= cut.at(dc)) cut.set(dc, ts - 1);
    }
  }
  return cut;
}

void DcNode::watch(EdgeSession& session, const ObjectKey& key) {
  if (session.interest.insert(key).second) {
    watchers_[key].push_back(&session);
  }
}

void DcNode::unwatch(EdgeSession& session, const ObjectKey& key) {
  const auto it = watchers_.find(key);
  if (it == watchers_.end() || std::erase(it->second, &session) == 0) return;
  if (it->second.empty()) watchers_.erase(it);
  session.interest.erase(key);
}

void DcNode::index_watchers() {
  watchers_.clear();
  for (auto& [_, session] : sessions_) {
    for (const ObjectKey& key : session.interest) {
      watchers_[key].push_back(&session);
    }
  }
}

void DcNode::resync_session(EdgeSession& session) {
  session.cursor = std::min(session.cursor, session.acked);
  // Go-Back-N: restart the sequence stream at the acknowledged prefix so
  // re-pushed entries are contiguous with what the subscriber last
  // confirmed. Its dot filter drops anything it already had.
  session.seq = session.acked_seq;
  session.outstanding.clear();
  session.stall_ticks = 0;
  // Clear the cut memo so the cut is re-announced on the next push, or
  // alone on the next tick: a cut lost with the connection would otherwise
  // only be repaired by the *next* cut advance, which may never come.
  session.last_cut_sent = VersionVector{};
}

void DcNode::open_cursor(EdgeSession& session,
                         const VersionVector& cut) const {
  if (session.cursor != 0) return;  // already open
  const std::size_t boundary = stable_prefix(cut);
  session.cursor = boundary;
  session.acked = boundary;
}

std::size_t DcNode::stable_prefix(const VersionVector& cut) const {
  const auto& log = engine_.log();
  std::size_t boundary = 0;
  while (boundary < log.size() && txns_.visible_at(log[boundary], cut)) {
    ++boundary;
  }
  return boundary;
}

// ---------------------------------------------------------------------------
// Commit paths.
// ---------------------------------------------------------------------------

Timestamp DcNode::commit_here(Transaction txn) {
  const Timestamp ts = my_commits_.size() + 1;
  txn.meta.mark_accepted(config_.dc_id, ts);
  // Logged post-mark: the record carries the assigned timestamp.
  log_record(kWalDcCommit, txn);
  apply_commit(std::move(txn));
  return ts;
}

std::uint64_t DcNode::fresh_counter() {
  const std::uint64_t counter = local_dot_counter_ + 1;
  log_record(kWalDcDot, counter);
  apply_dot(counter);
  return counter;
}

void DcNode::handle_edge_commit(NodeId /*from*/,
                                const proto::EdgeCommitReq& req,
                                ReplyFn reply) {
  const Dot dot = req.txn.meta.dot;

  // Duplicate (e.g. re-sent after migration, section 3.8): answer with the
  // existing commit information instead of sequencing it twice.
  if (const Transaction* known = txns_.find(dot);
      known != nullptr && known->meta.concrete) {
    const DcId dc = known->meta.first_accepted();
    reply(codec::to_bytes(proto::ResolutionMsg{
        dot, dc, known->meta.commit.at(dc), known->meta.snapshot}));
    return;
  }

  // Resolve the symbolic snapshot: all same-origin pending deps must be
  // known and concrete here.
  Transaction txn = req.txn;
  VersionVector eff = txn.meta.snapshot;
  for (const Dot& dep : txn.meta.pending_deps) {
    const Transaction* d = txns_.find(dep);
    if (d == nullptr || !d->meta.concrete) {
      reply(Error{Error::Code::kIncompatible,
                  "missing dependency " + dep.to_string()});
      return;
    }
    eff.merge(d->meta.commit_lub());
  }
  if (!eff.leq(engine_.state_vector())) {
    // The edge depends on transactions this DC has not seen (causal
    // incompatibility after migration, section 3.8).
    reply(Error{Error::Code::kIncompatible, "snapshot ahead of DC state"});
    return;
  }
  txn.meta.snapshot = eff;
  txn.meta.pending_deps.clear();
  const Timestamp ts = commit_here(std::move(txn));
  reply(codec::to_bytes(proto::ResolutionMsg{dot, config_.dc_id, ts, eff}));
}

void DcNode::handle_dc_execute(NodeId from, const proto::DcExecuteReq& req,
                               ReplyFn reply) {
  // Migrated transaction (section 3.9): the client primed the snapshot
  // with its own state vector; wait until this DC's state covers it (the
  // client's own transactions arrive through the commit path first).
  if (!req.min_snapshot.leq(engine_.state_vector())) {
    waiting_execs_.push_back(WaitingExec{from, req, std::move(reply)});
    return;
  }
  // Cloud-mode / migrated transaction: read at the current snapshot via the
  // owning shards (ClockSI read rule), then commit updates with 2PC.
  struct Context {
    proto::DcExecuteResp resp;
    std::size_t awaited = 0;
    bool failed = false;
    ReplyFn reply;
    proto::DcExecuteReq req;
  };
  auto ctx = std::make_shared<Context>();
  ctx->reply = std::move(reply);
  ctx->req = req;
  ctx->resp.read_values.resize(req.reads.size());

  const Timestamp snapshot_seq = engine_.log().size();

  auto finish_reads = [this, ctx] {
    if (ctx->failed) {
      ctx->reply(Error{Error::Code::kUnavailable, "shard read failed"});
      return;
    }
    if (ctx->req.updates.empty()) {
      ctx->reply(codec::to_bytes(ctx->resp));
      return;
    }
    // Two-phase commit across the owning shards.
    std::map<std::uint32_t, std::vector<OpRecord>> by_shard;
    for (const OpRecord& op : ctx->req.updates) {
      by_shard[ring_.owner(op.key)].push_back(op);
    }
    const std::uint64_t txn_id = fresh_counter();
    auto votes = std::make_shared<std::size_t>(by_shard.size());
    auto ok = std::make_shared<bool>(true);
    for (const auto& [shard, ops] : by_shard) {
      call(shard_nodes_[shard], proto::kShardPrepare,
           proto::ShardPrepareReq{txn_id, ops},
           [this, ctx, votes, ok, txn_id, by_shard](Result<Bytes> r) {
             if (!r.ok() ||
                 !codec::from_bytes<proto::ShardPrepareResp>(r.value())
                      .vote_commit) {
               *ok = false;
             }
             if (--*votes != 0) return;
             if (!*ok) {
               for (const auto& [shard2, _] : by_shard) {
                 tell(shard_nodes_[shard2], proto::kShardCommit,
                      proto::ShardCommitMsg{txn_id, false, 0, Dot{}});
               }
               ctx->reply(Error{Error::Code::kAborted, "2PC abort"});
               return;
             }
             // All voted commit: sequence the transaction.
             Transaction txn;
             txn.meta.dot = Dot{id(), fresh_counter()};
             txn.meta.origin = id();
             txn.meta.user = ctx->req.user;
             txn.meta.snapshot = engine_.state_vector();
             txn.ops = ctx->req.updates;
             ctx->resp.dot = txn.meta.dot;
             const Timestamp ts = commit_here(std::move(txn));
             for (const auto& [shard2, _] : by_shard) {
               tell(shard_nodes_[shard2], proto::kShardCommit,
                    proto::ShardCommitMsg{txn_id, true, ts,
                                          ctx->resp.dot});
             }
             ctx->reply(codec::to_bytes(ctx->resp));
           });
    }
  };

  if (req.reads.empty()) {
    finish_reads();
    return;
  }
  ctx->awaited = req.reads.size();
  for (std::size_t i = 0; i < req.reads.size(); ++i) {
    const ObjectKey& key = req.reads[i];
    call(shard_nodes_[ring_.owner(key)], proto::kShardRead,
         proto::ShardReadReq{key, snapshot_seq},
         [ctx, i, key, finish_reads](Result<Bytes> r) {
           if (!r.ok()) {
             ctx->failed = true;
           } else {
             const auto resp =
                 codec::from_bytes<proto::ShardReadResp>(r.value());
             ObjectSnapshot snap;
             snap.key = key;
             if (resp.found) {
               snap.type = resp.type;
               snap.state = resp.state;
             }
             ctx->resp.read_values[i] = std::move(snap);
           }
           if (--ctx->awaited == 0) finish_reads();
         });
  }
}

// ---------------------------------------------------------------------------
// Subscriptions, fetch, migration.
// ---------------------------------------------------------------------------

void DcNode::handle_subscribe(NodeId from, const proto::SubscribeReq& req,
                              ReplyFn reply) {
  EdgeSession& session = sessions_[from];
  session.user = req.user;
  // A fresh session starts pushing from the current K-stable boundary; the
  // snapshots below carry the history.
  open_cursor(session, k_cut_);
  proto::SubscribeResp resp;
  resp.cut = session_cut(session.cursor);
  for (const ObjectKey& key : req.keys) {
    watch(session, key);
    if (auto snap = export_k_stable(key)) {
      resp.snapshots.push_back(std::move(*snap));
    }
  }
  session.last_cut_sent = resp.cut;
  log_session(from, session);
  reply(codec::to_bytes(resp));
}

void DcNode::handle_fetch(NodeId from, const proto::FetchReq& req,
                          ReplyFn reply) {
  if (req.subscribe) {
    EdgeSession& session = sessions_[from];
    if (req.user != 0) session.user = req.user;
    watch(session, req.key);
    open_cursor(session, k_cut_);
    log_session(from, session);
  }
  auto snap = export_k_stable(req.key);
  if (!snap.has_value()) {
    reply(Error{Error::Code::kNotFound, "object unknown: " + req.key.full()});
    return;
  }
  // Cap by the session channel like a push round does; a fetch without a
  // session (req.subscribe == false) gets the uncapped cut only merged
  // into the snapshot import of this single key, which the snapshot
  // itself backs.
  const auto sit = sessions_.find(from);
  const VersionVector cut =
      sit == sessions_.end() ? k_cut_ : session_cut(sit->second.cursor);
  reply(codec::to_bytes(proto::FetchResp{std::move(*snap), cut}));
}

void DcNode::handle_migrate(NodeId from, const proto::MigrateReq& req,
                            ReplyFn reply) {
  proto::MigrateResp resp;
  resp.cut = k_cut_;  // informational; the edge seeds only session cuts
  // Causal compatibility (section 3.8): this DC's state must include the
  // edge node's dependencies.
  if (!req.state.leq(engine_.state_vector())) {
    resp.compatible = false;
    reply(codec::to_bytes(resp));
    return;
  }
  EdgeSession& session = sessions_[from];
  session.user = req.user;
  for (const ObjectKey& key : req.interest) watch(session, key);
  // Unlike a fresh subscription (which starts at the K-stable boundary
  // because the snapshots in the reply carry the history), a migrated
  // session must backfill from the first log entry the edge does not
  // provably possess: entries between that point and our boundary may only
  // ever arrive over this channel — the old DC can be partitioned, crashed,
  // or simply behind. The scan uses the edge's possessed cut, not its state
  // vector (which read-my-writes resolution inflates past possession).
  // Entries the edge did get over its old channel are dropped by its dot
  // filter.
  open_cursor(session, req.possessed);
  log_session(from, session);
  resp.compatible = true;
  reply(codec::to_bytes(resp));
}

// ---------------------------------------------------------------------------
// Replication ingest.
// ---------------------------------------------------------------------------

void DcNode::handle_replicate(proto::ReplicateTxn msg) {
  log_record(kWalDcIngest, msg.txn);
  apply_ingest(std::move(msg.txn));
  push_sessions();
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void DcNode::on_message(NodeId from, std::uint32_t kind,
                        ByteView body) {
  if (crashed()) return;  // dead process: frames fall on the floor
  switch (kind) {
    case proto::kReplicateTxn:
      handle_replicate(codec::from_bytes<proto::ReplicateTxn>(body));
      break;
    case proto::kDcGossip:
      handle_gossip(from, codec::from_bytes<proto::DcGossip>(body));
      break;
    case proto::kPushAck: {
      const auto msg = codec::from_bytes<proto::PushAck>(body);
      const auto it = sessions_.find(from);
      if (it != sessions_.end()) {
        EdgeSession& session = it->second;
        session.acked_seq = std::max(session.acked_seq, msg.seq);
        while (!session.outstanding.empty() &&
               session.outstanding.front().first <= msg.seq) {
          session.acked =
              std::max(session.acked, session.outstanding.front().second);
          session.outstanding.pop_front();
        }
      }
      break;
    }
    case proto::kUnsubscribe: {
      const auto msg = codec::from_bytes<proto::UnsubscribeMsg>(body);
      const auto it = sessions_.find(from);
      if (it != sessions_.end()) {
        for (const ObjectKey& key : msg.keys) unwatch(it->second, key);
        log_session(from, it->second);
      }
      break;
    }
    default:
      break;  // unknown one-way messages are ignored (forward compat)
  }
}

void DcNode::on_request(NodeId from, std::uint32_t method,
                        ByteView payload, ReplyFn reply) {
  if (crashed()) return;  // dead process: the caller's RPC times out
  // Client-facing requests queue behind the DC's logical CPU; the queueing
  // delay under load is what bends the Figure 4 latency curve upward.
  const SimTime service = method == proto::kDcExecute ? kExecuteServiceTime
                                                      : kRpcServiceTime;
  const SimTime start = std::max(net_.now(), busy_until_);
  busy_until_ = start + service;
  // The deferred dispatch outlives the delivered frame, so it owns a copy
  // of the payload (the one place the request path still materialises).
  // A request queued behind the CPU when the node crashes dies with the
  // old process image.
  at(busy_until_, [this, from, method,
                   payload = Bytes(payload.begin(), payload.end()),
                   reply = std::move(reply)]() mutable {
    dispatch_request(from, method, payload, std::move(reply));
  });
}

void DcNode::dispatch_request(NodeId from, std::uint32_t method,
                              const Bytes& payload, ReplyFn reply) {
  switch (method) {
    case proto::kEdgeCommit:
      handle_edge_commit(from,
                         codec::from_bytes<proto::EdgeCommitReq>(payload),
                         std::move(reply));
      break;
    case proto::kSubscribe:
      handle_subscribe(from, codec::from_bytes<proto::SubscribeReq>(payload),
                       std::move(reply));
      break;
    case proto::kFetchObject:
      handle_fetch(from, codec::from_bytes<proto::FetchReq>(payload),
                   std::move(reply));
      break;
    case proto::kMigrate:
      handle_migrate(from, codec::from_bytes<proto::MigrateReq>(payload),
                     std::move(reply));
      break;
    case proto::kDcExecute:
      handle_dc_execute(from,
                        codec::from_bytes<proto::DcExecuteReq>(payload),
                        std::move(reply));
      break;
    case proto::kOpenSession: {
      // Session opening (section 6.2): authenticate and hand out session
      // keys for the buckets the user may read. With an open policy (no
      // ACL installed) everyone is authorised.
      const auto req = codec::from_bytes<proto::OpenSessionReq>(payload);
      proto::OpenSessionResp resp;
      const security::AclObject* policy = acl();
      for (const std::string& bucket : req.buckets) {
        const bool authorised =
            policy == nullptr || policy->grant_count() == 0 ||
            policy->check(bucket, req.user, security::Permission::kRead);
        if (!authorised) continue;
        keys_.authorize(bucket, req.user);
        resp.keys.emplace_back(bucket, *keys_.key_for(bucket, req.user));
      }
      reply(codec::to_bytes(resp));
      break;
    }
    default:
      reply(Error{Error::Code::kInvalidArgument, "unknown DC method"});
  }
}

// ---------------------------------------------------------------------------
// Durability: the DC's record vocabulary, checkpoint and durable projection.
// ---------------------------------------------------------------------------

void DcNode::log_session(NodeId node, const EdgeSession& session) {
  // Durable session identity: who is subscribed to what, plus the channel
  // position at mutation time. The position goes stale as pushes and acks
  // advance it recordlessly — recovery compensates by reconnect-resyncing
  // every session, which rewinds to the acknowledged prefix and relies on
  // the subscriber's dot filter to drop re-pushed duplicates.
  log_record(kWalDcSession, node, static_cast<const SessionRecord&>(session));
  sessions_changed_ = true;
}

// --- the durable effect of each record kind --------------------------------

void DcNode::apply_commit(Transaction txn) {
  // The record carries the timestamp this DC assigned: it must be the next
  // one, or the WAL is not a faithful prefix of the commit stream.
  COLONY_ASSERT(txn.meta.commit.at(config_.dc_id) == my_commits_.size() + 1,
                "WAL replay re-sequenced a commit");
  my_commits_.push_back(txn.meta.dot);
  engine_.ingest(std::move(txn));
}

void DcNode::apply_ingest(Transaction txn) {
  engine_.ingest(std::move(txn));
  recompute_k_cut();
}

void DcNode::apply_gossip(const proto::DcGossip& msg) {
  COLONY_ASSERT(msg.dc < dc_states_.size(), "gossip from unknown DC");
  dc_states_[msg.dc].merge(msg.state);
  recompute_k_cut();
}

void DcNode::apply_session(NodeId node, const SessionRecord& record) {
  EdgeSession& session = sessions_[node];
  for (const ObjectKey& key : std::exchange(session.interest, {})) {
    unwatch(session, key);
  }
  static_cast<SessionRecord&>(session) = record;
  for (const ObjectKey& key : session.interest) {
    watchers_[key].push_back(&session);
  }
  sessions_changed_ = true;
}

void DcNode::apply_advance_base() {
  // The live bake runs right after a gossip tick refreshed the cut;
  // refresh it so a replayed bake sees the same cut.
  recompute_k_cut();
  const auto pred = k_stable_predicate();
  for (const ObjectKey& key : store_.keys()) {
    store_.advance_base(key, pred);
  }
}

void DcNode::apply_dot(std::uint64_t counter) { local_dot_counter_ = counter; }

void DcNode::replay_record(std::uint32_t type, ByteView payload) {
  switch (type) {
    case kWalDcCommit: return replay(payload, &DcNode::apply_commit);
    case kWalDcIngest: return replay(payload, &DcNode::apply_ingest);
    case kWalDcGossip: return replay(payload, &DcNode::apply_gossip);
    case kWalDcSession: return replay(payload, &DcNode::apply_session);
    case kWalDcAdvanceBase:
      return replay(payload, &DcNode::apply_advance_base);
    case kWalDcDot: return replay(payload, &DcNode::apply_dot);
  }
  COLONY_ASSERT(false, "unknown DC WAL record type");
}

void DcNode::encode_checkpoint(Encoder& enc) const {
  // checkpoint() is non-const so decode can read into it; writing does not
  // mutate.
  codec::write(enc, const_cast<DcNode*>(this)->checkpoint());
}

void DcNode::decode_checkpoint(ByteView snapshot) {
  codec::from_bytes(snapshot, checkpoint());
  COLONY_ASSERT(dc_states_.size() == config_.num_dcs,
                "checkpoint from a different topology");
  index_watchers();
  sessions_changed_ = true;
  recompute_k_cut();
}

void DcNode::encode_durable(Encoder& enc) const {
  // Sessions by identity only: channel positions drift recordlessly
  // between session mutations (pushes, acks) and are re-established by the
  // reconnect resync, so they are outside the exact-restoration contract.
  std::vector<std::tuple<NodeId, const UserId&, const std::set<ObjectKey>&>>
      sessions;
  sessions.reserve(sessions_.size());
  for (const auto& [node, session] : sessions_) {
    sessions.emplace_back(node, session.user, session.interest);
  }
  codec::write(enc, std::forward_as_tuple(
                        local_dot_counter_, my_commits_, dc_states_, sessions,
                        txns_, store_,
                        VisibilityEngine::Checkpoint{
                            const_cast<DcNode*>(this)->engine_}));
}

void DcNode::schedule_gossip() {
  after<&DcNode::gossip_tick>(config_.gossip_interval);
}

void DcNode::wipe() {
  busy_until_ = 0;
  waiting_execs_.clear();
  sessions_.clear();
  watchers_.clear();
  frontier_ = 0;
  stable_.clear();
  sessions_changed_ = true;
  off_frontier_ = false;
  gossip_count_ = 0;
  my_commits_.clear();
  local_dot_counter_ = 0;
  dc_states_.assign(config_.num_dcs, VersionVector(config_.num_dcs));
  k_cut_ = VersionVector(config_.num_dcs);
  txns_.clear();
  store_.clear();
  engine_.reset();
}

void DcNode::after_replay() {
  recompute_k_cut();
  frontier_ = stable_prefix(k_cut_);
}

void DcNode::on_start() {
  for (auto& [node, session] : sessions_) session.connected = false;
  sessions_changed_ = true;
  schedule_gossip();
}

std::unique_ptr<storage::DurableNode> DcNode::make_replica(
    sim::Network& net, storage::Wal& disk) const {
  DcConfig cfg = config_;
  cfg.disk = &disk;
  return std::make_unique<DcNode>(net, id(), cfg, peers_, shard_nodes_);
}

}  // namespace colony
