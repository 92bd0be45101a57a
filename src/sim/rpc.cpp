#include "sim/rpc.hpp"

#include "util/assert.hpp"

namespace colony::sim {

void RpcActor::call(NodeId to, std::uint32_t method, Bytes payload,
                    ResponseFn on_response, SimTime timeout) {
  COLONY_ASSERT((method & ~kRpcKindMask) == 0, "method collides with flags");
  const std::uint64_t rpc_id = next_rpc_id_++;
  pending_.emplace(rpc_id, std::move(on_response));

  Encoder enc;
  enc.u64(rpc_id);
  enc.raw(payload);
  net_.send(id(), to, method | kRpcRequestFlag, enc.take());

  net_.scheduler().after(timeout, [this, rpc_id] {
    const auto it = pending_.find(rpc_id);
    if (it == pending_.end()) return;  // already answered
    ResponseFn cb = std::move(it->second);
    pending_.erase(it);
    cb(Error{Error::Code::kUnavailable, "rpc timeout"});
  });
}

void RpcActor::handle(NodeId from, std::uint32_t kind, ByteView body) {
  if ((kind & kRpcRequestFlag) != 0) {
    Decoder dec(body);
    const std::uint64_t rpc_id = dec.u64();
    const ByteView payload = dec.tail_view();
    COLONY_ASSERT(dec.ok(), "malformed rpc request envelope");
    const std::uint32_t method = kind & kRpcKindMask;
    const NodeId client = from;
    auto reply = [this, client, rpc_id, method](Result<Bytes> result) {
      Encoder enc;
      enc.u64(rpc_id);
      if (result.ok()) {
        enc.u8(0);
        enc.raw(result.value());
      } else {
        enc.u8(static_cast<std::uint8_t>(
            1 + static_cast<int>(result.error().code)));
        const std::string& msg = result.error().message;
        enc.raw(ByteView(reinterpret_cast<const std::uint8_t*>(msg.data()),
                         msg.size()));
      }
      net_.send(id(), client, method | kRpcResponseFlag, enc.take());
    };
    on_request(from, method, payload, std::move(reply));
    return;
  }
  if ((kind & kRpcResponseFlag) != 0) {
    Decoder dec(body);
    const std::uint64_t rpc_id = dec.u64();
    const std::uint8_t status = dec.u8();
    Bytes payload = dec.tail();
    COLONY_ASSERT(dec.ok(), "malformed rpc response envelope");
    const auto it = pending_.find(rpc_id);
    if (it == pending_.end()) return;  // timed out earlier; drop late reply
    ResponseFn cb = std::move(it->second);
    pending_.erase(it);
    if (status == 0) {
      cb(std::move(payload));
    } else {
      cb(Error{static_cast<Error::Code>(status - 1),
               std::string(payload.begin(), payload.end())});
    }
    return;
  }
  on_message(from, kind, body);
}

}  // namespace colony::sim
