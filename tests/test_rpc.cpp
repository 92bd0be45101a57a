#include "sim/rpc.hpp"

#include <gtest/gtest.h>

#include "util/codec.hpp"

namespace colony::sim {
namespace {

/// Echo server; can also defer replies to test asynchronous servers.
struct EchoServer final : RpcActor {
  EchoServer(Network& net, NodeId id) : RpcActor(net, id) {}
  bool defer = false;
  ReplyFn deferred;

  void on_message(NodeId, std::uint32_t, ByteView) override {}
  void on_request(NodeId /*from*/, std::uint32_t method, ByteView payload,
                  ReplyFn reply) override {
    if (method == 99) {
      reply(Error{Error::Code::kInvalidArgument, "bad method"});
      return;
    }
    if (defer) {
      deferred = std::move(reply);
      return;
    }
    reply(codec::to_bytes(codec::from_bytes<int>(payload) + 1));
  }
};

struct Client final : RpcActor {
  Client(Network& net, NodeId id) : RpcActor(net, id) {}
  void on_message(NodeId, std::uint32_t, ByteView) override {}
  void on_request(NodeId, std::uint32_t, ByteView,
                  ReplyFn reply) override {
    reply(Error{Error::Code::kInvalidArgument, "not a server"});
  }
};

class RpcTest : public ::testing::Test {
 protected:
  Scheduler sched;
  Network net{sched, 1};
};

TEST_F(RpcTest, RoundTrip) {
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{5 * kMillisecond, 0});

  int got = 0;
  SimTime completed_at = 0;
  client.call(1, 7, 41, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = codec::from_bytes<int>(r.value());
    completed_at = sched.now();
  });
  sched.run_all();  // also drains the (ignored) timeout event
  EXPECT_EQ(got, 42);
  EXPECT_EQ(completed_at, 10 * kMillisecond);  // one round trip
}

TEST_F(RpcTest, ErrorsPropagate) {
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  Error::Code code{};
  client.call(1, 99, 0, [&](Result<Bytes> r) {
    ASSERT_FALSE(r.ok());
    code = r.error().code;
  });
  sched.run_all();
  // Application errors surface with the server's code.
  EXPECT_EQ(code, Error::Code::kInvalidArgument);
}

TEST_F(RpcTest, TimeoutFiresWhenServerUnreachable) {
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});
  net.set_link_up(1, 2, false);

  bool timed_out = false;
  client.call(1, 7, 1, [&](Result<Bytes> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Error::Code::kUnavailable);
    timed_out = true;
  }, /*timeout=*/1 * kSecond);
  sched.run_all();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(sched.now(), 1 * kSecond);
}

TEST_F(RpcTest, CallbackFiresExactlyOnceOnLateReply) {
  EchoServer server(net, 1);
  server.defer = true;
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  int calls = 0;
  client.call(1, 7, 1, [&](Result<Bytes>) { ++calls; },
              /*timeout=*/10 * kMillisecond);
  sched.run_until(20 * kMillisecond);
  EXPECT_EQ(calls, 1);  // timeout fired
  server.deferred(codec::to_bytes(5));  // late reply after timeout
  sched.run_all();
  EXPECT_EQ(calls, 1);  // ignored
}

TEST_F(RpcTest, ReplyInFlightWhenTimeoutFiresIsDropped) {
  // The reply is already on the wire when the timeout fires: the pending
  // entry is erased exactly once, so on_response must fire exactly once
  // (with the timeout error) and the landing reply is dropped.
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{5 * kMillisecond, 0});

  int calls = 0;
  bool ok = true;
  client.call(1, 7, 1, [&](Result<Bytes> r) {
    ++calls;
    ok = r.ok();
  }, /*timeout=*/8 * kMillisecond);  // reply lands at 10ms
  sched.run_all();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(ok);
}

TEST_F(RpcTest, ReplyAndTimeoutAtTheSameInstantFireOnce) {
  // Exact tie: both the timeout event and the response delivery land at
  // t=10ms. The timeout was scheduled first (at call time) so it wins the
  // FIFO tie-break; either way the erase must make the loser a no-op.
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{5 * kMillisecond, 0});

  int calls = 0;
  client.call(1, 7, 1, [&](Result<Bytes>) { ++calls; },
              /*timeout=*/10 * kMillisecond);
  sched.run_all();
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, DanglingTimeoutAfterSuccessfulReplyIsNoOp) {
  // The success path erases the pending entry; the still-scheduled timeout
  // event later finds nothing and must not double-fire on_response.
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  int calls = 0;
  bool ok = false;
  client.call(1, 7, 41, [&](Result<Bytes> r) {
    ++calls;
    ok = r.ok();
  }, /*timeout=*/30 * kSecond);
  sched.run_all();  // drains the reply AND the dangling timeout event
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(ok);
  EXPECT_EQ(sched.now(), 30 * kSecond);  // the timeout event did fire
}

TEST_F(RpcTest, AsynchronousServerReply) {
  EchoServer server(net, 1);
  server.defer = true;
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  int got = 0;
  client.call(1, 7, 1, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    got = codec::from_bytes<int>(r.value());
  });
  sched.run_until(5 * kMillisecond);
  ASSERT_TRUE(static_cast<bool>(server.deferred));
  server.deferred(codec::to_bytes(123));  // server answers later
  sched.run_all();
  EXPECT_EQ(got, 123);
}

TEST_F(RpcTest, ConcurrentCallsCorrelate) {
  EchoServer server(net, 1);
  Client client(net, 2);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  std::vector<int> results(10, 0);
  for (int i = 0; i < 10; ++i) {
    client.call(1, 7, i * 100, [&results, i](Result<Bytes> r) {
      ASSERT_TRUE(r.ok());
      results[static_cast<std::size_t>(i)] = codec::from_bytes<int>(r.value());
    });
  }
  sched.run_all();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 100 + 1);
  }
}

}  // namespace
}  // namespace colony::sim
