#include "dc/shard.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace colony {

ShardServer::ShardServer(sim::Network& net, NodeId id) : RpcActor(net, id) {}

Bytes ShardServer::read_reply(const ObjectKey& key) {
  const auto it = data_.find(key);
  if (it == data_.end()) return codec::to_bytes(proto::ShardReadResp{});
  Object& obj = it->second;
  if (!obj.reply) {
    obj.reply = codec::to_bytes(
        proto::ShardReadResp{true, obj.type, obj.crdt->snapshot()});
  }
  return *obj.reply;
}

void ShardServer::apply_ops(const std::vector<OpRecord>& ops) {
  for (const OpRecord& op : ops) {
    auto it = data_.find(op.key);
    if (it == data_.end()) {
      it = data_.emplace(op.key, Object{op.type, make_crdt(op.type), {}})
               .first;
    }
    Object& obj = it->second;
    COLONY_ASSERT(obj.type == op.type, "shard object type mismatch");
    obj.crdt->apply(op.payload);
    obj.reply.reset();
  }
}

void ShardServer::serve_ready_reads() {
  auto ready = [this](const PendingRead& pr) {
    return pr.min_seq <= applied_seq_;
  };
  for (auto it = waiting_reads_.begin(); it != waiting_reads_.end();) {
    if (ready(*it)) {
      it->reply(read_reply(it->key));
      it = waiting_reads_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardServer::on_message(NodeId /*from*/, std::uint32_t kind,
                             ByteView body) {
  switch (kind) {
    case proto::kShardApply: {
      const auto msg = codec::from_bytes<proto::ShardApplyMsg>(body);
      // At-least-once delivery: a duplicated apply still advances the seq
      // watermark but must not replay its operations.
      if (seen_.record(msg.dot)) apply_ops(msg.ops);
      applied_seq_ = std::max(applied_seq_, msg.seq);
      serve_ready_reads();
      break;
    }
    case proto::kShardCommit: {
      const auto msg = codec::from_bytes<proto::ShardCommitMsg>(body);
      // The 2PC decision releases the prepared buffer; the data itself
      // arrives through the uniform kShardApply path so every transaction
      // flows through exactly one apply pipeline.
      prepared_.erase(msg.txn_id);
      break;
    }
    default:
      COLONY_ASSERT(false, "unexpected one-way message at shard");
  }
}

void ShardServer::on_request(NodeId /*from*/, std::uint32_t method,
                             ByteView payload, ReplyFn reply) {
  switch (method) {
    case proto::kShardRead: {
      const auto req = codec::from_bytes<proto::ShardReadReq>(payload);
      if (req.min_seq > applied_seq_) {
        // ClockSI read rule: this shard has not caught up to the snapshot;
        // defer the reply until it has.
        waiting_reads_.push_back(PendingRead{req.min_seq, req.key,
                                             std::move(reply)});
        return;
      }
      reply(read_reply(req.key));
      break;
    }
    case proto::kShardPrepare: {
      const auto req = codec::from_bytes<proto::ShardPrepareReq>(payload);
      // CRDT updates never write-conflict; vote no only on a type clash.
      bool ok = true;
      for (const OpRecord& op : req.ops) {
        const auto it = data_.find(op.key);
        if (it != data_.end() && it->second.type != op.type) {
          ok = false;
          break;
        }
      }
      if (ok) prepared_[req.txn_id] = req.ops;
      reply(codec::to_bytes(proto::ShardPrepareResp{req.txn_id, ok}));
      break;
    }
    default:
      reply(Error{Error::Code::kInvalidArgument, "unknown shard method"});
  }
}

}  // namespace colony
