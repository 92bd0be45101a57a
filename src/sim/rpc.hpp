// Asynchronous RPC over the simulated byte transport.
//
// Request/response with correlation ids and timeouts. Servers may answer
// asynchronously (e.g. a DC coordinator replies only after 2PC finishes) by
// capturing the ReplyFn. A lost message or dead peer surfaces to the caller
// as Error::kUnavailable after the timeout — the same signal a TCP/WebRTC
// stack would deliver, which is what drives reconnection and migration.
//
// RPC traffic rides the same framed byte transport as one-way messages:
// the envelope sets a flag bit on the wire kind (`method | kRpcRequestFlag`
// or `| kRpcResponseFlag`) so per-kind byte metering attributes request and
// response bytes to the real protocol method, and the envelope body is
// `[rpc_id u64 | payload]` for requests, `[rpc_id u64 | status u8 |
// payload-or-error-string]` for responses. The status is 0 for a result and
// 1 + Error::Code for an error, so the caller sees the server's code.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "sim/network.hpp"
#include "util/codec.hpp"
#include "util/result.hpp"

namespace colony::sim {

inline constexpr SimTime kDefaultRpcTimeout = 2 * kSecond;

class RpcActor : public Actor {
 public:
  using ResponseFn = std::function<void(Result<Bytes>)>;
  using ReplyFn = std::function<void(Result<Bytes>)>;

  RpcActor(Network& net, NodeId id) : Actor(net, id) {}

  /// Issue an RPC with pre-encoded payload bytes. `on_response` fires
  /// exactly once: with the reply payload, or with kUnavailable when the
  /// timeout elapses first.
  void call(NodeId to, std::uint32_t method, Bytes payload,
            ResponseFn on_response, SimTime timeout = kDefaultRpcTimeout);

  /// Issue an RPC with a typed request message (encoded via codec traits).
  template <typename Req>
  void call(NodeId to, std::uint32_t method, const Req& req,
            ResponseFn on_response, SimTime timeout = kDefaultRpcTimeout) {
    call(to, method, codec::to_bytes(req), std::move(on_response), timeout);
  }

  /// Fire-and-forget message with pre-encoded payload bytes.
  void tell(NodeId to, std::uint32_t kind, Bytes body) {
    net_.send(id(), to, kind, std::move(body));
  }

  /// Fire-and-forget message with a typed body.
  template <typename Msg>
  void tell(NodeId to, std::uint32_t kind, const Msg& msg) {
    tell(to, kind, codec::to_bytes(msg));
  }

 protected:
  /// One-way messages (no RPC envelope flag). `body` is a view of the
  /// payload of a checksum-verified frame, valid for the duration of the
  /// call; implementations decode it by `kind` and copy out anything they
  /// keep.
  virtual void on_message(NodeId from, std::uint32_t kind, ByteView body) = 0;

  /// Incoming RPC. `payload` is a view valid for the duration of the call.
  /// Implementations must eventually invoke `reply` with the encoded
  /// response (calling it after the client timed out is harmless — the
  /// client ignores it).
  virtual void on_request(NodeId from, std::uint32_t method, ByteView payload,
                          ReplyFn reply) = 0;

  /// Crash support: forget every outstanding call WITHOUT firing its
  /// callback (a crashed process loses its continuations). The timeout
  /// closures already scheduled look their rpc id up in the pending map
  /// and become no-ops. Late responses to dropped ids are ignored too.
  void abort_pending_calls() { pending_.clear(); }

 private:
  void handle(NodeId from, std::uint32_t kind, ByteView body) final;

  std::uint64_t next_rpc_id_ = 1;
  std::unordered_map<std::uint64_t, ResponseFn> pending_;
};

}  // namespace colony::sim
