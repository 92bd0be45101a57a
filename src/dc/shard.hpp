// Intra-DC shard server.
//
// Data inside a DC is partitioned by consistent hashing across shard
// servers (paper section 6.3); transactions that span shards commit with a
// ClockSI-flavoured protocol (section 3.6): reads carry the coordinator's
// snapshot index and a shard defers the reply until it has applied at least
// that much (the ClockSI "wait until clock catches up" rule, expressed on
// the DC's dense apply index); multi-shard updates run two-phase commit.
//
// The shard holds the materialised current value of the objects it owns;
// the authoritative journal and visibility metadata live in the DC node,
// which fans applied operations out to owners via kShardApply in apply
// order. A read ships the object's encoded snapshot. The shard keeps the
// encoded reply from the first read after a change until the object's next
// applied op, so repeated reads of an unchanged object copy bytes instead
// of re-encoding it. Objects that are never read hold no copy.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "clock/dot_tracker.hpp"
#include "crdt/crdt.hpp"
#include "dc/messages.hpp"
#include "sim/rpc.hpp"

namespace colony {

class ShardServer final : public sim::RpcActor {
 public:
  ShardServer(sim::Network& net, NodeId id);

  [[nodiscard]] Timestamp applied_seq() const { return applied_seq_; }
  [[nodiscard]] std::size_t object_count() const { return data_.size(); }
  /// Inspection: the materialised object, or nullptr if not owned here.
  [[nodiscard]] const Crdt* object(const ObjectKey& key) const {
    const auto it = data_.find(key);
    return it == data_.end() ? nullptr : it->second.crdt.get();
  }

 protected:
  void on_message(NodeId from, std::uint32_t kind,
                  ByteView body) override;
  void on_request(NodeId from, std::uint32_t method,
                  ByteView payload, ReplyFn reply) override;

 private:
  struct Object {
    CrdtType type;
    std::unique_ptr<Crdt> crdt;
    /// The encoded ShardReadResp carrying crdt->snapshot(), kept from the
    /// first read after a change until the next op applied to crdt.
    std::optional<Bytes> reply;
  };
  struct PendingRead {
    Timestamp min_seq;
    ObjectKey key;
    ReplyFn reply;
  };

  void apply_ops(const std::vector<OpRecord>& ops);
  void serve_ready_reads();
  /// The encoded kShardRead reply for `key` at the current state.
  Bytes read_reply(const ObjectKey& key);

  std::map<ObjectKey, Object> data_;
  std::map<std::uint64_t, std::vector<OpRecord>> prepared_;  // 2PC buffers
  std::vector<PendingRead> waiting_reads_;
  Timestamp applied_seq_ = 0;
  /// Duplicate filter for at-least-once kShardApply delivery: a re-sent
  /// (or chaos-duplicated) apply must not replay its operations.
  DotTracker seen_;
};

}  // namespace colony
