// EPaxos (Egalitarian Paxos, Moraru et al. SOSP'13) — leaderless consensus
// used inside peer groups (paper section 5.1.4).
//
// Any member can act as command leader, and non-interfering commands commit
// in parallel; this is why the paper picks EPaxos over leader-based
// protocols at the edge. This implementation covers the commit protocol
// (pre-accept fast path, accept slow path) and dependency-ordered execution
// via Tarjan SCCs. Commands interfere when they touch a common object key.
//
// The class is transport-agnostic: the owner supplies a `send` function and
// feeds incoming messages to `on_message`; committed commands surface
// through the `deliver` callback in execution order — the peer group's
// *visibility order* (identical at every member).
//
// Scope notes (documented simplifications):
//  * Fast quorum is N-1 (the "basic", non-thrifty variant); with a full
//    fast quorum the fast path is safe for any f.
//  * Explicit-prepare failure recovery is replaced by group epochs: on a
//    membership change the parent restarts consensus in a new epoch, each
//    member re-proposes its own undelivered commands there, and a
//    rejoining member re-seeds its state from subscription snapshots
//    rather than from other members' instances. This matches how Colony
//    reconfigures groups via the parent (section 5.1.1).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <tuple>
#include <variant>
#include <vector>

#include "clock/dot.hpp"
#include "util/types.hpp"

namespace colony::consensus {

/// A command submitted to the group: the transaction's dot plus the keys it
/// touches (interference) and an opaque payload the group layer interprets.
struct Command {
  Dot id;
  std::vector<ObjectKey> keys;
  Bytes payload;

  [[nodiscard]] bool interferes(const Command& other) const;

  bool operator==(const Command&) const = default;
  auto fields() { return std::tie(id, keys, payload); }
};

struct InstanceId {
  NodeId replica = 0;
  std::uint64_t slot = 0;

  auto operator<=>(const InstanceId&) const = default;

  auto fields() { return std::tie(replica, slot); }
};

enum class InstanceStatus : std::uint8_t {
  kNone = 0,
  kPreAccepted,
  kAccepted,
  kCommitted,
  kExecuted,
};

struct PreAcceptMsg {
  InstanceId inst;
  Command cmd;
  std::uint64_t seq = 0;
  std::set<InstanceId> deps;

  bool operator==(const PreAcceptMsg&) const = default;
  auto fields() { return std::tie(inst, cmd, seq, deps); }
};
struct PreAcceptReplyMsg {
  InstanceId inst;
  std::uint64_t seq = 0;
  std::set<InstanceId> deps;
  bool changed = false;

  bool operator==(const PreAcceptReplyMsg&) const = default;
  auto fields() { return std::tie(inst, seq, deps, changed); }
};
struct AcceptMsg {
  InstanceId inst;
  Command cmd;
  std::uint64_t seq = 0;
  std::set<InstanceId> deps;

  bool operator==(const AcceptMsg&) const = default;
  auto fields() { return std::tie(inst, cmd, seq, deps); }
};
struct AcceptReplyMsg {
  InstanceId inst;

  bool operator==(const AcceptReplyMsg&) const = default;
  auto fields() { return std::tie(inst); }
};
struct CommitMsg {
  InstanceId inst;
  Command cmd;
  std::uint64_t seq = 0;
  std::set<InstanceId> deps;

  bool operator==(const CommitMsg&) const = default;
  auto fields() { return std::tie(inst, cmd, seq, deps); }
};

using EpaxosMsg = std::variant<PreAcceptMsg, PreAcceptReplyMsg, AcceptMsg,
                               AcceptReplyMsg, CommitMsg>;

class Epaxos {
 public:
  using SendFn = std::function<void(NodeId to, const EpaxosMsg& msg)>;
  using DeliverFn = std::function<void(const Command&)>;

  Epaxos(NodeId self, std::vector<NodeId> members, SendFn send,
         DeliverFn deliver);

  /// Submit a command with this replica as command leader. Returns the
  /// instance id. With a single member, commits (and executes) inline.
  InstanceId propose(Command cmd);

  /// Feed a message received from `from`.
  void on_message(NodeId from, const EpaxosMsg& msg);

  /// Force the slow path for a stalled instance this replica leads (e.g. a
  /// member died before the fast quorum completed, so N-1 pre-accept
  /// replies will never arrive). Safe once a majority of replies is in —
  /// the accept round itself only needs a slow quorum. Owners call this
  /// from a timer. Returns true if the instance transitioned.
  bool nudge(const InstanceId& inst);

  [[nodiscard]] std::size_t executed_count() const { return executed_count_; }
  [[nodiscard]] std::size_t committed_count() const {
    return committed_count_;
  }
  [[nodiscard]] InstanceStatus status(const InstanceId& inst) const;

  /// Statistics for the ablation bench.
  [[nodiscard]] std::uint64_t fast_path_commits() const { return fast_; }
  [[nodiscard]] std::uint64_t slow_path_commits() const { return slow_; }

  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }

 private:
  struct Instance {
    Command cmd;
    std::uint64_t seq = 0;
    std::set<InstanceId> deps;
    InstanceStatus status = InstanceStatus::kNone;

    // Leader-side bookkeeping.
    bool leading = false;
    std::size_t pre_accept_replies = 0;
    bool any_changed = false;
    std::uint64_t merged_seq = 0;
    std::set<InstanceId> merged_deps;
    std::size_t accept_replies = 0;
    bool decided = false;  // pre-accept phase closed (fast or slow chosen)
  };

  void handle_pre_accept(NodeId from, const PreAcceptMsg& msg);
  void handle_pre_accept_reply(const PreAcceptReplyMsg& msg);
  void handle_accept(NodeId from, const AcceptMsg& msg);
  void handle_accept_reply(const AcceptReplyMsg& msg);
  void handle_commit(const CommitMsg& msg);

  /// Interference scan: seq/deps a command picks up from this replica's
  /// instance table (excluding `self_inst`).
  void local_attributes(const Command& cmd, std::uint64_t& seq,
                        std::set<InstanceId>& deps,
                        const InstanceId& self_inst) const;

  void commit_instance(const InstanceId& inst, const Command& cmd,
                       std::uint64_t seq, const std::set<InstanceId>& deps,
                       bool broadcast_commit);
  void try_execute();

  [[nodiscard]] std::size_t slow_quorum() const {
    return members_.size() / 2 + 1;
  }
  /// Fast quorum: every other replica (basic EPaxos, thrifty off).
  [[nodiscard]] std::size_t fast_quorum() const {
    return members_.size() - 1;
  }

  void broadcast(const EpaxosMsg& msg);

  NodeId self_;
  std::vector<NodeId> members_;
  SendFn send_;
  DeliverFn deliver_;

  std::uint64_t next_slot_ = 1;
  std::map<InstanceId, Instance> instances_;
  std::size_t executed_count_ = 0;
  std::size_t committed_count_ = 0;
  std::uint64_t fast_ = 0;
  std::uint64_t slow_ = 0;
};

}  // namespace colony::consensus
