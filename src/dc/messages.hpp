// Wire protocol between edge nodes, peer groups, and data centres.
//
// Message bodies cross the simulated network as length-prefixed,
// checksummed byte frames; kinds below identify them. Every struct exposes
// its members via `fields()` so the generic codec (util/codec.hpp) derives
// its encoding — senders encode, receivers decode on every hop, and the
// metadata ablation bench reports the *measured* per-kind frame bytes the
// network metered.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "clock/version_vector.hpp"
#include "consensus/epaxos.hpp"
#include "core/txn.hpp"
#include "storage/journal_store.hpp"
#include "util/codec.hpp"
#include "util/types.hpp"

namespace colony::proto {

enum Kind : std::uint32_t {
  // Edge <-> DC session protocol.
  kEdgeCommit = 10,   // RPC  EdgeCommitReq -> ResolutionMsg
  kSubscribe = 11,    // RPC  SubscribeReq  -> SubscribeResp
  kFetchObject = 12,  // RPC  FetchReq      -> FetchResp
  kPushTxn = 13,      // 1way PushTxn (DC/parent -> edge)
  kStateUpdate = 14,  // 1way StateUpdate (bare k-stable cut advance)
  kMigrate = 15,      // RPC  MigrateReq    -> MigrateResp
  kDcExecute = 16,    // RPC  DcExecuteReq  -> DcExecuteResp (cloud mode)
  kOpenSession = 17,  // RPC  OpenSessionReq -> OpenSessionResp (keys)
  kPushAck = 18,      // 1way PushAck (edge -> DC, cumulative session ack)

  // DC <-> DC geo-replication.
  kReplicateTxn = 20,  // 1way Transaction in commit order
  kDcGossip = 21,      // 1way state-vector gossip (drives K-stability)

  // Intra-DC shard protocol (ClockSI-style).
  kShardRead = 30,     // RPC  ShardReadReq -> ShardReadResp
  kShardPrepare = 31,  // RPC  ShardPrepareReq -> ShardPrepareResp
  kShardCommit = 32,   // 1way ShardCommitMsg
  kShardApply = 33,    // 1way ShardApplyMsg (replicated/edge txn fan-out)

  // Peer group protocol.
  kGroupJoin = 40,        // RPC  GroupJoinReq -> GroupJoinResp
  kGroupLeave = 41,       // RPC  GroupLeaveReq -> (empty)
  kGroupMembership = 42,  // 1way MembershipMsg (parent -> members)
  kEpaxos = 43,           // 1way consensus::EpaxosMsg between members
  kPeerFetch = 45,        // RPC  PeerFetchReq -> PeerFetchResp
  kResolutionRelay = 46,  // 1way ResolutionMsg (parent -> members)
  kUnsubscribe = 48,      // 1way UnsubscribeMsg (edge -> DC/parent)
  kGroupPing = 49,        // RPC  parent -> member liveness probe
};

/// Human-readable kind label (per-kind wire accounting reports).
[[nodiscard]] constexpr const char* kind_name(std::uint32_t kind) {
  switch (kind) {
    case kEdgeCommit: return "edge-commit";
    case kSubscribe: return "subscribe";
    case kFetchObject: return "fetch-object";
    case kPushTxn: return "push-txn";
    case kStateUpdate: return "state-update";
    case kMigrate: return "migrate";
    case kDcExecute: return "dc-execute";
    case kOpenSession: return "open-session";
    case kPushAck: return "push-ack";
    case kReplicateTxn: return "replicate-txn";
    case kDcGossip: return "dc-gossip";
    case kShardRead: return "shard-read";
    case kShardPrepare: return "shard-prepare";
    case kShardCommit: return "shard-commit";
    case kShardApply: return "shard-apply";
    case kGroupJoin: return "group-join";
    case kGroupLeave: return "group-leave";
    case kGroupMembership: return "group-membership";
    case kEpaxos: return "epaxos";
    case kPeerFetch: return "peer-fetch";
    case kResolutionRelay: return "resolution-relay";
    case kUnsubscribe: return "unsubscribe";
    case kGroupPing: return "group-ping";
    default: return "?";
  }
}

// --- Edge <-> DC -----------------------------------------------------------

struct EdgeCommitReq {
  Transaction txn;  // symbolic commit; pending_deps reference earlier dots

  bool operator==(const EdgeCommitReq&) const = default;
  auto fields() { return std::tie(txn); }
};

struct SubscribeReq {
  std::vector<ObjectKey> keys;
  UserId user = 0;

  bool operator==(const SubscribeReq&) const = default;
  auto fields() { return std::tie(keys, user); }
};
struct SubscribeResp {
  std::vector<ObjectSnapshot> snapshots;
  VersionVector cut;  // k-stable cut the snapshots were materialised at

  bool operator==(const SubscribeResp&) const = default;
  auto fields() { return std::tie(snapshots, cut); }
};

struct FetchReq {
  ObjectKey key;
  bool subscribe = true;  // also add the key to the session interest set
  UserId user = 0;

  bool operator==(const FetchReq&) const = default;
  auto fields() { return std::tie(key, subscribe, user); }
};
struct FetchResp {
  ObjectSnapshot snapshot;
  VersionVector cut;

  bool operator==(const FetchResp&) const = default;
  auto fields() { return std::tie(snapshot, cut); }
};

struct PushTxn {
  Transaction txn;
  /// Dense per-session sequence number when pushed over an acknowledged DC
  /// session channel; 0 on unacked channels (peer-group parents). The
  /// subscriber acks its contiguous receive prefix so the DC can detect
  /// pushes lost to a crash or connection break and rewind (Go-Back-N).
  std::uint64_t session_seq = 0;
  /// The K-stable cut of the push round this push ends, when it moved: a
  /// round's cut rides its last push, and this push's session_seq is its
  /// watermark (see StateUpdate). Seeded right after the transaction.
  std::optional<VersionVector> cut;

  bool operator==(const PushTxn&) const = default;
  auto fields() { return std::tie(txn, session_seq, cut); }
};
/// A bare cut announcement, for cuts that no push carries: a DC sends one
/// on its gossip tick when a session's cut moved without an interesting
/// push, and a peer-group parent sends one to each member its relayed
/// push skipped.
struct StateUpdate {
  VersionVector cut;
  /// The sender's session_seq at the time the cut was computed: the cut
  /// asserts that everything below it was delivered (or is uninteresting),
  /// which is only true once the subscriber has received every session
  /// push up to this watermark. A subscriber must NOT seed its state from
  /// a cut whose watermark exceeds its contiguous receive prefix — doing
  /// so would let successors of a lost push become visible first.
  std::uint64_t seq_watermark = 0;

  bool operator==(const StateUpdate&) const = default;
  auto fields() { return std::tie(cut, seq_watermark); }
};
/// Cumulative acknowledgement of session pushes: all pushes with
/// session_seq <= seq have been received (links are FIFO).
struct PushAck {
  std::uint64_t seq = 0;

  bool operator==(const PushAck&) const = default;
  auto fields() { return std::tie(seq); }
};

/// Receiver half of the acknowledged session channel. Crash windows can
/// drop a message yet deliver a later one on the same FIFO link (delivery-
/// time liveness), so receipt of seq N does not imply receipt of N-1; the
/// receiver acks only its contiguous prefix and withholds acks on a gap,
/// which makes the sender's cumulative-ack bookkeeping truthful and
/// eventually triggers its stall-detection rewind.
struct PushChannelRecv {
  std::uint64_t last_seq = 0;  // contiguous receive prefix

  auto fields() { return std::tie(last_seq); }

  struct Push {
    bool deliver = false;   // payload may be handed to the engine
    std::uint64_t ack = 0;  // seq to acknowledge, 0 to withhold
  };

  /// Go-Back-N receive. In-order pushes are delivered and acked; duplicates
  /// are delivered (the dot filter drops them) and re-acked. After-gap
  /// pushes are DISCARDED, not just left unacked: a push that jumps the gap
  /// carries a transaction whose applied commit vector can cover the lost
  /// one's slot, letting successors of the lost transaction become visible
  /// first. The withheld ack stalls the sender into its rewind, which
  /// re-sends the suffix from the acknowledged prefix in order.
  Push on_push(std::uint64_t seq) {
    if (seq == 0) return {true, 0};  // unacked channel (peer-group parent)
    if (seq == last_seq + 1) return {true, ++last_seq};
    if (seq <= last_seq) return {true, last_seq};  // duplicate: re-ack
    return {false, 0};  // gap: drop; the sender stalls and rewinds
  }
  [[nodiscard]] bool covers(std::uint64_t watermark) const {
    return watermark <= last_seq;
  }
};

struct MigrateReq {
  VersionVector state;  // edge's state vector (causal-compatibility check)
  std::vector<ObjectKey> interest;
  UserId user = 0;
  /// Everything below this cut is materialised at the edge (its seeded-cut
  /// baseline). The state vector above can exceed possession — resolving
  /// an own commit merges a DC snapshot covering foreign transactions the
  /// edge never received — so the new DC backfills from here instead.
  VersionVector possessed;

  bool operator==(const MigrateReq&) const = default;
  auto fields() { return std::tie(state, interest, user, possessed); }
};
struct MigrateResp {
  bool compatible = false;
  VersionVector cut;

  bool operator==(const MigrateResp&) const = default;
  auto fields() { return std::tie(compatible, cut); }
};

/// Cloud-mode (AntidoteDB-like) and migrated-transaction execution: the DC
/// runs the transaction. Reads return materialised values; updates are ops
/// prepared by the client against the read values.
///
/// For a migrated transaction (section 3.9) the client primes
/// `min_snapshot` with its own state vector: the DC defers execution until
/// its state covers it, so the migrated transaction observes everything the
/// client had (same effect as running at the edge, only faster).
struct DcExecuteReq {
  std::vector<ObjectKey> reads;
  std::vector<OpRecord> updates;
  UserId user = 0;
  VersionVector min_snapshot;

  bool operator==(const DcExecuteReq&) const = default;
  auto fields() { return std::tie(reads, updates, user, min_snapshot); }
};
struct DcExecuteResp {
  std::vector<ObjectSnapshot> read_values;
  Dot dot;  // of the committed update transaction (if updates non-empty)

  bool operator==(const DcExecuteResp&) const = default;
  auto fields() { return std::tie(read_values, dot); }
};

/// Session opening (section 6.1-6.2): the session manager in the core
/// cloud authenticates the client and hands out one symmetric session key
/// per requested bucket — the keys that make end-to-end sealing work.
struct OpenSessionReq {
  UserId user = 0;
  std::vector<std::string> buckets;

  bool operator==(const OpenSessionReq&) const = default;
  auto fields() { return std::tie(user, buckets); }
};
struct OpenSessionResp {
  /// (bucket, key) pairs for the buckets the user is authorised to read;
  /// unauthorised buckets are omitted.
  std::vector<std::pair<std::string, std::uint64_t>> keys;

  bool operator==(const OpenSessionResp&) const = default;
  auto fields() { return std::tie(keys); }
};

// --- DC <-> DC --------------------------------------------------------------

struct ReplicateTxn {
  Transaction txn;

  bool operator==(const ReplicateTxn&) const = default;
  auto fields() { return std::tie(txn); }
};
struct DcGossip {
  DcId dc = 0;
  VersionVector state;

  bool operator==(const DcGossip&) const = default;
  auto fields() { return std::tie(dc, state); }
};

// --- Intra-DC shards ---------------------------------------------------------

struct ShardReadReq {
  ObjectKey key;
  Timestamp min_seq = 0;  // ClockSI read rule: wait until shard caught up

  bool operator==(const ShardReadReq&) const = default;
  auto fields() { return std::tie(key, min_seq); }
};
struct ShardReadResp {
  bool found = false;
  CrdtType type{};
  Bytes state;

  bool operator==(const ShardReadResp&) const = default;
  auto fields() { return std::tie(found, type, state); }
};
struct ShardPrepareReq {
  std::uint64_t txn_id = 0;
  std::vector<OpRecord> ops;  // ops owned by this shard

  bool operator==(const ShardPrepareReq&) const = default;
  auto fields() { return std::tie(txn_id, ops); }
};
struct ShardPrepareResp {
  std::uint64_t txn_id = 0;
  bool vote_commit = false;

  bool operator==(const ShardPrepareResp&) const = default;
  auto fields() { return std::tie(txn_id, vote_commit); }
};
struct ShardCommitMsg {
  std::uint64_t txn_id = 0;
  bool commit = false;
  Timestamp seq = 0;  // DC sequence number of the transaction
  Dot dot;

  bool operator==(const ShardCommitMsg&) const = default;
  auto fields() { return std::tie(txn_id, commit, seq, dot); }
};
struct ShardApplyMsg {
  Timestamp seq = 0;
  Dot dot;
  std::vector<OpRecord> ops;  // ops owned by this shard

  bool operator==(const ShardApplyMsg&) const = default;
  auto fields() { return std::tie(seq, dot, ops); }
};

// --- Peer group --------------------------------------------------------------

struct GroupJoinReq {
  NodeId node = 0;
  UserId user = 0;
  VersionVector state;  // causal compatibility check (section 5.2)
  std::vector<ObjectKey> interest;

  bool operator==(const GroupJoinReq&) const = default;
  auto fields() { return std::tie(node, user, state, interest); }
};
struct GroupJoinResp {
  bool accepted = false;
  std::uint64_t epoch = 0;
  std::vector<NodeId> members;  // includes the parent
  std::uint64_t session_key = 0;

  bool operator==(const GroupJoinResp&) const = default;
  auto fields() { return std::tie(accepted, epoch, members, session_key); }
};
struct GroupLeaveReq {
  NodeId node = 0;

  bool operator==(const GroupLeaveReq&) const = default;
  auto fields() { return std::tie(node); }
};
struct MembershipMsg {
  std::uint64_t epoch = 0;
  std::vector<NodeId> members;

  bool operator==(const MembershipMsg&) const = default;
  auto fields() { return std::tie(epoch, members); }
};
struct EpaxosEnvelope {
  std::uint64_t epoch = 0;
  consensus::EpaxosMsg msg;

  bool operator==(const EpaxosEnvelope&) const = default;
  auto fields() { return std::tie(epoch, msg); }
};
struct PeerFetchReq {
  ObjectKey key;
  bool subscribe = true;
  NodeId member = 0;

  bool operator==(const PeerFetchReq&) const = default;
  auto fields() { return std::tie(key, subscribe, member); }
};
struct PeerFetchResp {
  bool found = false;
  ObjectSnapshot snapshot;

  bool operator==(const PeerFetchResp&) const = default;
  auto fields() { return std::tie(found, snapshot); }
};
/// A DC's answer to an edge commit, and its relay from a group parent to
/// the members.
struct ResolutionMsg {
  Dot dot;
  DcId dc = 0;
  Timestamp ts = 0;                 // assigned commit timestamp T.C[dc]
  VersionVector resolved_snapshot;  // DC-resolved concrete snapshot

  bool operator==(const ResolutionMsg&) const = default;
  auto fields() { return std::tie(dot, dc, ts, resolved_snapshot); }
};
struct UnsubscribeMsg {
  std::vector<ObjectKey> keys;

  bool operator==(const UnsubscribeMsg&) const = default;
  auto fields() { return std::tie(keys); }
};

/// Payload of an EPaxos command inside a peer group: the transaction plus,
/// for the PSI commit variant, the proposer's conflict signature (expected
/// count of delivered interfering commands per key). Every member computes
/// the same abort decision from it, deterministically.
struct GroupCommand {
  bool ordered = false;  // true = PSI-on-critical-path variant (§5.1.4)
  Transaction txn;
  std::vector<std::pair<ObjectKey, std::uint64_t>> expected;

  bool operator==(const GroupCommand&) const = default;
  auto fields() { return std::tie(ordered, txn, expected); }
};

}  // namespace colony::proto
