// Edge client node: local cache, asynchronous transaction runtime, offline
// queue, peer-group membership, and migration.
//
// One EdgeNode models one far-edge device (phone, browser). It runs in one
// of three client modes — the paper's evaluation configurations (§7.3):
//
//   kCloudOnly    "AntidoteDB": no local cache; every transaction executes
//                 at the connected DC (kDcExecute).
//   kClientCache  "SwiftCloud": local cache with interest-set
//                 subscriptions; transactions execute and commit locally
//                 and are acknowledged asynchronously by the DC (§3.7).
//   kPeerGroup    "Colony": additionally a member of a peer group — an SI
//                 zone ordered by EPaxos, with a collaborative cache and a
//                 parent acting as sync point (§5.1).
//
// Reads report where they were served from (local cache / peer group / DC),
// which is exactly the classification plotted in Figures 5-7.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <type_traits>
#include <vector>

#include "clock/hlc.hpp"
#include "consensus/epaxos.hpp"
#include "core/txn.hpp"
#include "core/visibility.hpp"
#include "dc/messages.hpp"
#include "group/si_order.hpp"
#include "security/acl.hpp"
#include "security/crypto_sim.hpp"
#include "storage/cache.hpp"
#include "storage/durable_node.hpp"
#include "storage/journal_store.hpp"

namespace colony {

enum class ClientMode {
  kCloudOnly,    // AntidoteDB-like baseline
  kClientCache,  // SwiftCloud-like baseline
  kPeerGroup,    // full Colony
};

[[nodiscard]] const char* to_string(ClientMode m);

/// Where a read was satisfied — the latency classes of Figures 5-7.
enum class ReadSource : std::uint8_t {
  kLocal = 0,  // client cache hit
  kPeer = 1,   // peer-group collaborative cache hit
  kDc = 2,     // remote read from the connected DC
};

[[nodiscard]] const char* to_string(ReadSource s);

struct EdgeConfig {
  ClientMode mode = ClientMode::kClientCache;
  NodeId dc = 0;  // connected DC node id
  UserId user = 0;
  std::size_t num_dcs = 1;
  std::size_t cache_capacity = 0;  // objects; 0 = unbounded
  /// Durable write-ahead log, owned by the topology builder. nullptr = no
  /// durability; such a node must never be crash-restarted.
  storage::Wal* disk = nullptr;
  /// Cadence of full-state checkpoints into the WAL.
  SimTime checkpoint_interval = 400 * kMillisecond;
};

/// Crash, recover, verify_recovery and durable_bytes come from
/// storage::DurableNode. A crash wipes the cache, the unacked queue, group
/// membership and watchers; peer-group membership does NOT survive it (the
/// reborn node must join_group again; its group-delivered foreign
/// transactions are re-obtained via subscription snapshots). A restart
/// re-sends the restored unacknowledged transactions (the DC's dot filter
/// drops duplicates).
class EdgeNode final : public storage::DurableNode {
 public:
  /// Commit backpressure: block new commits while this many transactions
  /// await DC acknowledgement ("runs out of storage", §3).
  static constexpr std::size_t kMaxUnacked = 256;

  EdgeNode(sim::Network& net, NodeId id, EdgeConfig config);

  // --- interactive transactions (kClientCache / kPeerGroup) --------------

  struct Txn {
    std::uint64_t id = 0;
    std::vector<OpRecord> ops;  // buffered updates, applied at commit
  };

  using ReadCb =
      std::function<void(Result<std::shared_ptr<Crdt>>, ReadSource)>;
  using DoneCb = std::function<void(Result<void>)>;
  using CommitCb = std::function<void(Result<Dot>)>;

  Txn begin();

  /// Read `key` within `txn`: the transaction's snapshot plus its own
  /// buffered updates. Cache hits call back synchronously; misses fetch
  /// from the peer group (if any) and then the DC.
  void read(Txn& txn, const ObjectKey& key, CrdtType type, ReadCb cb);

  /// Buffer an update.
  void update(Txn& txn, OpRecord op);

  /// Commit locally (asynchronous DC acknowledgement, §3.7). In peer-group
  /// mode this is the paper's *second* commit variant: EPaxos ordering is
  /// off the critical path (§5.1.4). Fails with kUnavailable when the
  /// unacked queue is full, and with kInvalidArgument in kCloudOnly mode.
  Result<Dot> commit(Txn&& txn);

  /// Peer-group commit variant 1 (PSI on the critical path, §5.1.4): the
  /// transaction is submitted to EPaxos first and applies — or aborts on a
  /// write-write conflict — when consensus orders it.
  void commit_ordered(Txn&& txn, CommitCb cb);

  /// Write-through commit (a §6.1 cache-policy option): commits locally
  /// like commit(), then invokes `cb` once the DC has assigned the concrete
  /// commit timestamp (durability in the cloud). The default commit() is
  /// the write-back policy.
  void commit_write_through(Txn&& txn, CommitCb cb);

  // --- cloud-mode execution (kCloudOnly and migrated transactions §3.9) --

  using CloudCb = std::function<void(Result<proto::DcExecuteResp>)>;
  void cloud_execute(std::vector<ObjectKey> reads,
                     std::vector<OpRecord> updates, CloudCb cb);

  /// Migrate a resource-hungry transaction to the connected DC
  /// (section 3.9): flushes this node's pending local commits, primes the
  /// snapshot with the node's state vector, and executes at the DC with
  /// the same effect as a local run — only performance differs.
  void migrate_transaction(std::vector<ObjectKey> reads,
                           std::vector<OpRecord> updates, CloudCb cb);

  // --- reactive subscriptions (section 6.1) -------------------------------

  using WatchCb = std::function<void(const ObjectKey&)>;
  /// Invoke `cb` whenever a visible update touches `key` (including this
  /// node's own commits). Returns a handle for unwatch.
  std::uint64_t watch(const ObjectKey& key, WatchCb cb);
  void unwatch(std::uint64_t handle);

  // --- session management --------------------------------------------------

  /// Declare interest and seed the cache from the DC (or the group parent).
  void subscribe(std::vector<ObjectKey> keys, DoneCb done);

  /// Open a session with the cloud session manager (section 6.2): obtain
  /// one symmetric session key per bucket the user may read. Keys remain
  /// valid across disconnection (section 5.3).
  void open_session(std::vector<std::string> buckets, DoneCb done);
  [[nodiscard]] std::optional<security::SessionKey> session_key(
      const std::string& bucket) const;

  /// Drop the whole cache (used to model a stale/invalid cache, Fig. 7).
  void invalidate_cache();

  // --- peer group ----------------------------------------------------------

  void join_group(NodeId parent, DoneCb done);
  void leave_group(DoneCb done);
  [[nodiscard]] bool in_group() const { return group_.has_value(); }
  [[nodiscard]] std::uint64_t group_epoch() const {
    return group_ ? group_->epoch : 0;
  }
  /// Group consensus instance (nullptr outside a group) — for stats.
  [[nodiscard]] const consensus::Epaxos* group_consensus() const {
    return group_ ? group_->epaxos.get() : nullptr;
  }

  // --- migration (§3.8) ----------------------------------------------------

  /// Re-attach to a different DC; unacknowledged transactions are re-sent
  /// and deduplicated by dot at the DCs.
  void migrate_to_dc(NodeId new_dc, DoneCb done);

  // --- helpers for typed op preparation -----------------------------------

  /// Fresh arbitration token (timestamp from this node's hybrid clock plus
  /// a fresh dot); unique per call. An assignment passes the timestamp of
  /// the value it overwrites: the clock witnesses it, so the token orders
  /// after that value even when this node's clock runs behind its writer's.
  Arb make_arb(Timestamp overwrites = 0);
  /// Mint a fresh dot. WAL-logged: reusing a counter value after a restart
  /// would alias two distinct transactions under one identity.
  Dot fresh_dot();

  /// Current visible value (nullptr if not cached) for prepare-with-context
  /// (e.g. OR-set remove needs observed tags).
  [[nodiscard]] const Crdt* cached(const ObjectKey& key) const {
    return store_.current(key);
  }

  /// Versioned read (section 4.1): materialise the cached object at an
  /// older causal cut — only transactions visible at `cut` contribute.
  /// Transactions already baked into an imported base version are always
  /// included (the cut cannot reach below the base). nullptr if not cached.
  [[nodiscard]] std::unique_ptr<Crdt> read_at(const ObjectKey& key,
                                              const VersionVector& cut) const;
  [[nodiscard]] bool is_cached(const ObjectKey& key) const {
    return store_.has(key);
  }

  // --- introspection -------------------------------------------------------

  [[nodiscard]] const EdgeConfig& config() const { return config_; }
  [[nodiscard]] const VersionVector& state_vector() const {
    return engine_.state_vector();
  }
  [[nodiscard]] std::size_t unacked_count() const { return unacked_.size(); }
  [[nodiscard]] const VisibilityEngine& engine() const { return engine_; }
  /// Mutable access, for attaching an engine observer.
  VisibilityEngine& engine() { return engine_; }
  [[nodiscard]] const JournalStore& store() const { return store_; }
  [[nodiscard]] const TxnStore& txns() const { return txns_; }
  [[nodiscard]] NodeId connected_dc() const { return config_.dc; }
  [[nodiscard]] std::uint64_t commits_issued() const { return commits_; }

 protected:
  void on_message(NodeId from, std::uint32_t kind,
                  ByteView body) override;
  void on_request(NodeId from, std::uint32_t method,
                  ByteView payload, ReplyFn reply) override;

 private:
  struct Group {
    NodeId parent = 0;
    std::uint64_t epoch = 0;
    std::vector<NodeId> members;  // includes the parent
    std::unique_ptr<consensus::Epaxos> epaxos;
    /// Delivered-command counts, PSI verdicts and the group visibility
    /// order (identical at every member).
    SiOrder si_order;
    /// PSI-variant commits awaiting their consensus slot.
    std::map<Dot, CommitCb> ordered_waiting;
    /// Own commands proposed but not yet delivered by consensus, kept for
    /// re-proposal on epoch change.
    std::map<Dot, consensus::Command> pending_cmds;
    /// This node's own undelivered proposals per key (folded into the
    /// conflict signature so a node does not conflict with itself).
    std::map<ObjectKey, std::uint64_t> own_pending_per_key;
  };

  // --- durability internals ------------------------------------------------

  /// WAL record vocabulary: every durable-state mutation an edge device
  /// performs maps to one record kind. Group-mode foreign deliveries are
  /// deliberately NOT logged (group state dies with the process).
  enum EdgeWalRecord : std::uint32_t {
    kEdgeCommit = 1,      // locally committed Transaction
    kEdgeAck = 2,         // DC resolution of a local commit
    kEdgePush = 3,        // session push delivered, with the cut it carried
    kEdgeSeed = 4,        // bare kStateUpdate cut seeded (tick or fan-out)
    kEdgeSubscribe = 5,   // subscription reply imported
    kEdgeFetch = 6,       // fetched object imported (or created empty)
    kEdgeDot = 7,         // dot_counter_ after a fresh_dot()
    kEdgeHlc = 8,         // HLC value after a make_arb() tick
    kEdgeMigrate = 9,     // re-attached to a different DC
    kEdgeInvalidate = 10,  // cache dropped wholesale
    kEdgeSessionKey = 11,  // session key obtained for a bucket
  };

  void replay_record(std::uint32_t type, ByteView payload) override;
  /// The checkpoint, which is also the recovery-invariant projection
  /// (exact-restoration contract): layout word 2, then every durable field.
  /// Excludes txn_counter_ (local labels), watchers (dead callbacks),
  /// group state (volatile), and cache LRU order.
  static constexpr std::integral_constant<std::uint32_t, 2> kCheckpointLayout{};
  auto checkpoint() {
    return std::tuple_cat(
        std::tie(kCheckpointLayout, config_.dc, dot_counter_, commits_, hlc_,
                 interest_, push_recv_, unacked_, last_local_unresolved_,
                 session_keys_, txns_, store_),
        std::tuple(VisibilityEngine::Checkpoint{engine_}));
  }
  void encode_checkpoint(Encoder& enc) const override;
  void decode_checkpoint(ByteView snapshot) override;
  void wipe() override;
  /// Restart the commit pump. The session channel resyncs from the DC side
  /// once it sees the node back up.
  void on_start() override;
  [[nodiscard]] std::unique_ptr<storage::DurableNode> make_replica(
      sim::Network& net, storage::Wal& disk) const override;
  /// Not while in a group or group-tainted (consensus mutated state outside
  /// the WAL), nor with a bounded cache (LRU order, hence eviction victims,
  /// depends on unlogged reads).
  [[nodiscard]] bool verifiable() const override;

  // The durable effect of each WAL record kind, defined once: the live
  // handler logs the function's arguments as the record and calls it, then
  // runs its volatile side effects (acks, callbacks, group drain);
  // replay_record decodes the arguments and calls the same function.
  void apply_commit(const Transaction& record);  // kEdgeCommit
  void apply_resolution(const proto::ResolutionMsg& msg);  // kEdgeAck
  void apply_push(NodeId from, const proto::PushTxn& msg);  // kEdgePush
  void apply_seed(const VersionVector& cut);  // kEdgeSeed
  void apply_subscribe(const std::vector<ObjectKey>& keys,
                       const proto::SubscribeResp& resp);  // kEdgeSubscribe
  /// kEdgeFetch; no `fetched`: nobody has created the object, it starts
  /// empty.
  void apply_fetch(const ObjectKey& key, CrdtType type,
                   const std::optional<proto::FetchResp>& fetched);
  void apply_dot(std::uint64_t counter);  // kEdgeDot
  void apply_hlc(Timestamp last);  // kEdgeHlc
  void apply_migrate(NodeId dc);  // kEdgeMigrate
  void apply_invalidate();  // kEdgeInvalidate
  using SessionKeys = std::vector<std::pair<std::string, security::SessionKey>>;
  void apply_session_keys(const SessionKeys& keys);  // kEdgeSessionKey

  /// Execute a transaction at the connected DC, at a snapshot no older
  /// than `min_snapshot`.
  void execute_at_dc(std::vector<ObjectKey> reads,
                     std::vector<OpRecord> updates,
                     VersionVector min_snapshot, CloudCb cb);

  // Commit pump towards the DC (kClientCache mode).
  void pump_commits();
  /// A DC resolved a local commit (its ack, or the group parent's relay).
  void on_resolution(const proto::ResolutionMsg& msg);
  void notify_watchers(const Transaction& txn);

  // Reads.
  void finish_read(const Txn& txn, const ObjectKey& key, CrdtType type,
                   ReadCb cb, ReadSource source);
  void fetch_from_dc(const Txn& txn, const ObjectKey& key, CrdtType type,
                     ReadCb cb);
  /// A fetch (from the DC or a peer) returned a snapshot and the cut it
  /// was read at; none: the object does not exist yet.
  void on_fetched(const ObjectKey& key, CrdtType type,
                  const std::optional<proto::FetchResp>& fetched);

  // Cache admission/eviction.
  void admit(const ObjectKey& key);

  // Group plumbing.
  void rebuild_epaxos();
  /// Re-run the consensus slow path if a proposal stalls (a member died
  /// before the fast quorum completed).
  void schedule_nudge(consensus::InstanceId inst, std::uint64_t epoch);
  void propose_in_group(const proto::GroupCommand& gc,
                        const std::vector<ObjectKey>& keys);
  void on_group_deliver(const consensus::Command& cmd);
  void drain_group_queue();
  /// Leave the group (by request or removal): fail the PSI commits still
  /// awaiting their slot and fall back to direct DC attachment.
  void exit_group();
  Transaction make_transaction(Txn&& txn);
  /// Interference keys for an EPaxos command: the updated objects plus a
  /// synthetic per-origin key that chains a node's own commands in order.
  [[nodiscard]] std::vector<ObjectKey> command_keys(
      const Transaction& record) const;

  EdgeConfig config_;
  TxnStore txns_;
  JournalStore store_;
  VisibilityEngine engine_;
  InterestSet interest_;
  HybridLogicalClock hlc_;

  /// Per-sender receive state of the acknowledged DC session channel:
  /// contiguous push prefix, acked back so the DC can detect losses.
  std::map<NodeId, proto::PushChannelRecv> push_recv_;

  std::uint64_t dot_counter_ = 0;
  std::uint64_t txn_counter_ = 0;
  std::uint64_t commits_ = 0;

  /// Locally committed, not yet DC-acknowledged, in commit order.
  std::deque<Dot> unacked_;
  bool pump_in_flight_ = false;
  /// Tail of this node's local-commit chain while unresolved (the symbolic
  /// dependency of the next transaction, §3.7).
  std::optional<Dot> last_local_unresolved_;

  std::optional<Group> group_;

  struct Watcher {
    ObjectKey key;
    WatchCb cb;
  };
  std::map<std::uint64_t, Watcher> watchers_;
  std::uint64_t next_watcher_ = 1;

  /// Migrated transactions waiting for the local commit chain to flush.
  std::vector<std::function<void()>> pending_migrated_;

  /// Write-through commits awaiting their DC acknowledgement.
  std::map<Dot, CommitCb> ack_waiters_;

  /// Session keys by bucket (section 6.2).
  std::map<std::string, security::SessionKey> session_keys_;

  /// DC this node was built against; a crash-restart replays migrations
  /// from zero, so config_.dc must rewind to it first.
  NodeId initial_dc_ = 0;
  /// Set once group consensus mutated local state (foreign deliveries,
  /// ordered commits): those paths are deliberately unlogged, so in-place
  /// recovery verification is meaningless until a crash resets the node to
  /// WAL-derived state.
  bool group_tainted_ = false;
};

}  // namespace colony
