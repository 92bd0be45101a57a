// Data-centre node: sequencer, geo-replication endpoint, edge session
// manager, and ClockSI coordinator over its shard servers.
//
// Externally a DC behaves as one sequential node (paper section 3.4): its
// transactions carry dense sequence numbers in component `dc_id` of the
// version vector. Internally it coordinates shard servers (section 3.6),
// replicates committed transactions to the other DCs over the mesh, tracks
// K-stability from gossiped state vectors (section 3.8), and serves edge
// sessions: interest-set subscriptions, pushes of K-stable transactions,
// commit acknowledgement, fetch, and migration.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/txn.hpp"
#include "core/visibility.hpp"
#include "dc/messages.hpp"
#include "security/acl.hpp"
#include "security/crypto_sim.hpp"
#include "storage/durable_node.hpp"
#include "storage/hash_ring.hpp"
#include "storage/journal_store.hpp"
#include "util/metrics.hpp"

namespace colony {

struct DcConfig {
  DcId dc_id = 0;
  std::size_t num_dcs = 1;
  /// K-stability threshold: a transaction becomes visible to edge nodes
  /// only once >= K DCs know it (section 3.8). 1 <= K <= num_dcs.
  std::size_t k_stability = 1;
  SimTime gossip_interval = 100 * kMillisecond;
  /// Durable write-ahead log, owned by the topology builder (the node only
  /// writes through the pointer). nullptr = no durability: such a node must
  /// never be crash-restarted (Cluster::crash_node degrades the fault to a
  /// plain outage instead).
  storage::Wal* disk = nullptr;
  /// Cadence of full-state checkpoints into the WAL (taken between
  /// handlers, where node state is consistent; skipped while no records
  /// accrued since the last one).
  SimTime checkpoint_interval = 400 * kMillisecond;
};

/// Crash, recover, verify_recovery and durable_bytes come from
/// storage::DurableNode; a DC restart rewinds every session to its
/// acknowledged prefix and restarts gossip.
class DcNode final : public storage::DurableNode {
 public:
  /// `peers` are the other DC node ids; `shards` the shard-server node ids
  /// of this DC (the topology builder creates and links them).
  DcNode(sim::Network& net, NodeId id, DcConfig config,
         std::vector<NodeId> peers, std::vector<NodeId> shards);

  // --- introspection (tests & benches) -----------------------------------
  [[nodiscard]] const VersionVector& state_vector() const {
    return engine_.state_vector();
  }
  [[nodiscard]] VersionVector k_cut() const { return k_cut_; }
  [[nodiscard]] const JournalStore& store() const { return store_; }
  [[nodiscard]] const TxnStore& txns() const { return txns_; }
  [[nodiscard]] const VisibilityEngine& engine() const { return engine_; }
  /// Mutable access, for attaching an engine observer.
  VisibilityEngine& engine() { return engine_; }
  [[nodiscard]] DcId dc_id() const { return config_.dc_id; }
  [[nodiscard]] std::uint64_t committed() const { return my_commits_.size(); }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  /// The DC's current view of the policy object (nullptr = open policy).
  [[nodiscard]] const security::AclObject* acl() const;

 protected:
  void on_message(NodeId from, std::uint32_t kind,
                  ByteView body) override;
  void on_request(NodeId from, std::uint32_t method,
                  ByteView payload, ReplyFn reply) override;

 private:
  void dispatch_request(NodeId from, std::uint32_t method,
                        const Bytes& payload, ReplyFn reply);
  /// The durable part of an edge session (kWalDcSession and the
  /// checkpoint): identity plus the channel position when it was logged.
  ///
  /// Sender half of the acknowledged session channel (Go-Back-N): the
  /// cursor advances optimistically when a push is handed to the network;
  /// the subscriber acks its contiguous receive prefix, and a broken
  /// connection or an ack stall rewinds cursor and seq to the acknowledged
  /// point. Dense sequence numbers (not log indices) let the receiver tell
  /// a lost push from a merely-uninteresting log entry.
  struct SessionRecord {
    UserId user = 0;
    std::set<ObjectKey> interest;
    std::size_t cursor = 0;       // position in the DC visibility log
    std::size_t acked = 0;        // log position confirmed by acks
    std::uint64_t seq = 0;        // last session_seq handed to the network
    std::uint64_t acked_seq = 0;  // highest cumulative ack received

    auto fields() {
      return std::tie(user, interest, cursor, acked, seq, acked_seq);
    }
  };
  struct EdgeSession : SessionRecord {
    VersionVector last_cut_sent;
    std::deque<std::pair<std::uint64_t, std::size_t>>
        outstanding;  // (seq, log index+1) of unacked pushes, seq order
    std::uint64_t acked_seq_last_tick = 0;  // stall-detection marker
    std::size_t stall_ticks = 0;
    bool connected = true;
    /// This round's newly K-stable entries the session watches, as indices
    /// into DcNode::stable_ in log order (filled and emptied by one round).
    std::vector<std::size_t> round_pushes;
  };
  /// A newly K-stable, unmasked log entry of the current push round.
  struct StableEntry {
    std::size_t index;  // position in the visibility log
    const Transaction* txn;
  };

  // Handlers.
  void handle_edge_commit(NodeId from, const proto::EdgeCommitReq& req,
                          ReplyFn reply);
  void handle_subscribe(NodeId from, const proto::SubscribeReq& req,
                        ReplyFn reply);
  void handle_fetch(NodeId from, const proto::FetchReq& req, ReplyFn reply);
  void handle_migrate(NodeId from, const proto::MigrateReq& req,
                      ReplyFn reply);
  void handle_dc_execute(NodeId from, const proto::DcExecuteReq& req,
                         ReplyFn reply);
  void handle_replicate(proto::ReplicateTxn msg);
  void handle_gossip(NodeId from, const proto::DcGossip& msg);

  // Internals.
  void on_txn_visible(const Transaction& txn);
  void fan_out_to_shards(const Transaction& txn);
  /// Refresh this DC's own dc_states_ row from its state vector (the one
  /// place it is written), then recompute k_cut_ from the rows.
  void recompute_k_cut();
  /// Push each session's new K-stable entries. A moved cut rides the
  /// round's last push; without one it goes out alone only if `announce`
  /// (the gossip tick).
  ///
  /// One pass per round: the K-stable frontier advances once, its new
  /// entries go to the sessions watching their keys, and sessions whose
  /// cursor sits at the frontier take their pushes from that hand-out.
  /// Sessions behind or past the frontier walk the log themselves. A round
  /// with nothing new, no announce, no topology change and no session
  /// change since the last visit visits nobody.
  void push_sessions(bool announce = false);
  /// Advance frontier_ and hand each newly stable, unmasked entry to the
  /// round_pushes of the sessions watching one of its keys (every session
  /// for an ACL op).
  void hand_out_stable();
  /// Whether the session may be pushed to now. After a topology change (or
  /// a session change) the link and both endpoints are checked, and a
  /// connection that came back resyncs; otherwise `connected` is trusted.
  bool session_live(NodeId node, EdgeSession& session, bool check_links);
  /// Push the session's entries from its own cursor: the per-session walk
  /// of sessions off the frontier.
  void walk_session(NodeId node, EdgeSession& session,
                    std::optional<proto::PushTxn>& last);
  /// Push `txn` (log position `index`): send the push held in `last` and
  /// hold this one back instead, so the round's cut can ride on the newest.
  void queue_push(NodeId node, EdgeSession& session, std::size_t index,
                  const Transaction& txn, std::optional<proto::PushTxn>& last);
  /// The cut a session with this cursor may be told it covers: k_cut_
  /// capped so that no log entry at or beyond the cursor is inside it.
  [[nodiscard]] VersionVector session_cut(std::size_t cursor) const;
  /// Interest mutations go through these, which keep watchers_ in step.
  void watch(EdgeSession& session, const ObjectKey& key);
  void unwatch(EdgeSession& session, const ObjectKey& key);
  /// Rebuild watchers_ from every session's interest.
  void index_watchers();
  /// Rewind a session to its last acknowledged log position and force a
  /// fresh cut announcement (on the next push, or alone on the next tick):
  /// called when a broken connection (or a detected ack stall) may have
  /// dropped in-flight pushes. Replayed transactions are filtered by dot at
  /// the subscriber, so over-sending is safe.
  void resync_session(EdgeSession& session);
  /// Open a new session's push cursor (and its acknowledged position) at
  /// the first log entry not visible at `cut`; a no-op once it is open.
  void open_cursor(EdgeSession& session, const VersionVector& cut) const;
  /// The first log index not visible at `cut`.
  [[nodiscard]] std::size_t stable_prefix(const VersionVector& cut) const;
  void gossip_tick();
  [[nodiscard]] JournalStore::DotPredicate k_stable_predicate() const;
  [[nodiscard]] std::optional<ObjectSnapshot> export_k_stable(
      const ObjectKey& key) const;
  /// Assign this DC's next commit timestamp to a (new) transaction and make
  /// it visible. `txn.meta` must have a resolved concrete snapshot.
  Timestamp commit_here(Transaction txn);
  /// Mint the next DC-local counter value (2PC ids and dots). Logged:
  /// reusing one after a restart would alias two distinct transactions.
  std::uint64_t fresh_counter();

  // --- durability internals ------------------------------------------------

  /// WAL record vocabulary. Every mutation of durable DC state is covered
  /// by exactly one record kind; session *progress* (cursor/seq/acks) is
  /// deliberately recordless — a restart rewinds each session to its
  /// acknowledged prefix through the same resync path a broken connection
  /// uses, and re-pushed entries are dot-filtered at the subscriber.
  enum DcWalRecord : std::uint32_t {
    kWalDcCommit = 1,       // Transaction sequenced here (commit assigned)
    kWalDcIngest = 2,       // Transaction learned from geo-replication
    kWalDcGossip = 3,       // proto::DcGossip merged into dc_states_
    kWalDcSession = 4,      // durable session snapshot after a mutation
    kWalDcAdvanceBase = 5,  // journal bases baked at the current K-cut
    kWalDcDot = 6,          // local_dot_counter_ after a bump
  };

  // The durable effect of each record kind, defined once: the live handler
  // logs the function's arguments as the record and calls it, then runs
  // its live side effects (replication, anti-entropy, session pushes);
  // replay_record decodes the arguments and calls the same function.
  void apply_commit(Transaction txn);  // kWalDcCommit
  void apply_ingest(Transaction txn);  // kWalDcIngest
  void apply_gossip(const proto::DcGossip& msg);  // kWalDcGossip
  void apply_session(NodeId node,
                     const SessionRecord& record);  // kWalDcSession
  /// kWalDcAdvanceBase: bake K-stable journal prefixes into base versions.
  void apply_advance_base();
  void apply_dot(std::uint64_t counter);  // kWalDcDot

  void log_session(NodeId node, const EdgeSession& session);
  void replay_record(std::uint32_t type, ByteView payload) override;
  /// The checkpoint: layout word 3, then every durable field, sessions
  /// with their channel positions.
  static constexpr std::integral_constant<std::uint32_t, 3> kCheckpointLayout{};
  auto checkpoint() {
    return std::tuple_cat(
        std::tie(kCheckpointLayout, local_dot_counter_, gossip_count_,
                 my_commits_, dc_states_, sessions_, txns_, store_),
        std::tuple(VisibilityEngine::Checkpoint{engine_}));
  }
  void encode_checkpoint(Encoder& enc) const override;
  void decode_checkpoint(ByteView snapshot) override;
  /// The recovery-invariant projection: every field the WAL contract
  /// promises to restore exactly. The checkpoint without the gossip
  /// cadence and the sessions' progress counters, which drift without
  /// records; volatile fields (CPU queue, parked executions) are in
  /// neither.
  void encode_durable(Encoder& enc) const override;
  void wipe() override;
  /// Recompute the cut, which refreshes this DC's own dc_states_ row.
  void after_replay() override;
  /// Rewind every session on the next push round and restart gossip.
  void on_start() override;
  [[nodiscard]] std::unique_ptr<storage::DurableNode> make_replica(
      sim::Network& net, storage::Wal& disk) const override;
  void schedule_gossip();

  DcConfig config_;
  std::vector<NodeId> peers_;
  std::vector<NodeId> shard_nodes_;
  HashRing ring_;

  TxnStore txns_;
  JournalStore store_;
  VisibilityEngine engine_;
  security::KeyService keys_;

  /// Txns sequenced here, in ts order: entry i got timestamp i + 1, so the
  /// size is the last commit timestamp this DC assigned.
  std::vector<Dot> my_commits_;
  std::uint64_t local_dot_counter_ = 0;
  std::vector<VersionVector> dc_states_;
  VersionVector k_cut_;
  std::map<NodeId, EdgeSession> sessions_;
  /// key -> the sessions whose interest holds it (derived from sessions_).
  std::unordered_map<ObjectKey, std::vector<EdgeSession*>> watchers_;
  // --- push-round state (derived; rebuilt after a wipe or a checkpoint) ---
  /// The first log index not visible at k_cut_ (k_cut_ only grows, so
  /// every entry below it is K-stable).
  std::size_t frontier_ = 0;
  /// This round's newly K-stable, unmasked entries.
  std::vector<StableEntry> stable_;
  /// Network topology epoch at the last round that checked every link.
  std::uint64_t checked_epoch_ = 0;
  /// A session was created, changed or restored since the last round, so
  /// its connection state is unchecked.
  bool sessions_changed_ = true;
  /// After the last round, some connected session's cursor was off the
  /// frontier (past it, after a migration), so it may have entries to walk.
  bool off_frontier_ = false;
  std::size_t gossip_count_ = 0;
  SimTime busy_until_ = 0;  // single logical CPU; models saturation

  /// Migrated transactions waiting for their primed snapshot (section 3.9).
  struct WaitingExec {
    NodeId from;
    proto::DcExecuteReq req;
    ReplyFn reply;
  };
  std::vector<WaitingExec> waiting_execs_;
};

}  // namespace colony
