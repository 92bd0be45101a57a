// ShardServer unit tests: ClockSI deferred reads and the 2PC skeleton.
#include <gtest/gtest.h>

#include "crdt/counter.hpp"
#include "crdt/or_set.hpp"
#include "crdt/rga.hpp"
#include "dc/shard.hpp"

namespace colony {
namespace {

class ShardTest : public ::testing::Test {
 protected:
  ShardTest() : net(sched, 1), shard(net, 2), client(net, 3) {
    net.connect(2, 3, sim::LatencyModel{1 * kMillisecond, 0});
  }

  struct Client final : sim::RpcActor {
    Client(sim::Network& net, NodeId id) : RpcActor(net, id) {}
    void on_message(NodeId, std::uint32_t, ByteView) override {}
    void on_request(NodeId, std::uint32_t, ByteView,
                    ReplyFn reply) override {
      reply(Error{Error::Code::kInvalidArgument, "not a server"});
    }
  };

  void apply(Timestamp seq, Dot dot, std::int64_t delta) {
    apply_op(seq, dot, OpRecord{{"b", "x"}, CrdtType::kPnCounter,
                                PnCounter::prepare_add(delta)});
  }

  void apply_op(Timestamp seq, Dot dot, OpRecord op) {
    proto::ShardApplyMsg msg;
    msg.seq = seq;
    msg.dot = dot;
    msg.ops.push_back(std::move(op));
    net.send(3, 2, proto::kShardApply, codec::to_bytes(msg));
    // Bounded drain: run_all would also fire pending RPC-timeout events
    // scheduled far in the future.
    sched.run_until(sched.now() + 10 * kMillisecond);
  }

  /// The state a read of `key` returns.
  Bytes read_state(const ObjectKey& key) {
    Bytes state;
    client.call(2, proto::kShardRead, proto::ShardReadReq{key, 0},
                [&](Result<Bytes> r) {
                  ASSERT_TRUE(r.ok());
                  const auto resp =
                      codec::from_bytes<proto::ShardReadResp>(r.value());
                  ASSERT_TRUE(resp.found);
                  state = resp.state;
                });
    sched.run_until(sched.now() + 10 * kMillisecond);
    return state;
  }

  sim::Scheduler sched;
  sim::Network net;
  ShardServer shard;
  Client client;
};

TEST_F(ShardTest, AppliesOpsAndAdvancesSeq) {
  apply(1, Dot{9, 1}, 5);
  EXPECT_EQ(shard.applied_seq(), 1u);
  EXPECT_EQ(shard.object_count(), 1u);
  apply(2, Dot{9, 2}, 3);
  EXPECT_EQ(shard.applied_seq(), 2u);
}

TEST_F(ShardTest, ReadReturnsValue) {
  apply(1, Dot{9, 1}, 7);
  std::int64_t value = -1;
  client.call(2, proto::kShardRead, proto::ShardReadReq{{"b", "x"}, 1},
              [&](Result<Bytes> r) {
                ASSERT_TRUE(r.ok());
                const auto resp =
                    codec::from_bytes<proto::ShardReadResp>(r.value());
                ASSERT_TRUE(resp.found);
                PnCounter c;
                c.restore(resp.state);
                value = c.value();
              });
  sched.run_all();
  EXPECT_EQ(value, 7);
}

// A read after an apply must not be answered from the bytes kept for the
// read before it; a filtered duplicate apply changes nothing.
TEST_F(ShardTest, ReadAfterApplySeesNewState) {
  const ObjectKey key{"b", "chat"};
  auto insert = [&](std::uint64_t i) {
    const Dot after = i == 1 ? Dot{} : Dot{9, i - 1};
    return OpRecord{key, CrdtType::kRga,
                    Rga::prepare_insert(after, "m" + std::to_string(i),
                                        Arb{i, Dot{9, i}})};
  };
  apply_op(1, Dot{9, 1}, insert(1));
  const Bytes first = read_state(key);
  EXPECT_EQ(first, shard.object(key)->snapshot());
  EXPECT_EQ(read_state(key), first);

  apply_op(2, Dot{9, 2}, insert(2));
  const Bytes second = read_state(key);
  EXPECT_NE(second, first);
  EXPECT_EQ(second, shard.object(key)->snapshot());

  apply_op(3, Dot{9, 2}, insert(2));  // duplicate delivery of the dot
  EXPECT_EQ(shard.applied_seq(), 3u);
  EXPECT_EQ(read_state(key), second);
  EXPECT_EQ(read_state(key), shard.object(key)->snapshot());

  apply_op(4, Dot{9, 3}, OpRecord{key, CrdtType::kRga,
                                  Rga::prepare_remove(Dot{9, 1})});
  const Bytes third = read_state(key);
  EXPECT_NE(third, second);
  EXPECT_EQ(third, shard.object(key)->snapshot());
}

TEST_F(ShardTest, ReadOfUnknownKeyNotFound) {
  bool found = true;
  client.call(2, proto::kShardRead, proto::ShardReadReq{{"b", "none"}, 0},
              [&](Result<Bytes> r) {
                ASSERT_TRUE(r.ok());
                found = codec::from_bytes<proto::ShardReadResp>(r.value())
                            .found;
              });
  sched.run_all();
  EXPECT_FALSE(found);
}

TEST_F(ShardTest, ClockSiReadWaitsForSnapshot) {
  apply(1, Dot{9, 1}, 1);
  // Read at snapshot seq 3: must not answer until the shard catches up.
  std::int64_t value = -1;
  SimTime answered_at = 0;
  client.call(2, proto::kShardRead, proto::ShardReadReq{{"b", "x"}, 3},
              [&](Result<Bytes> r) {
                ASSERT_TRUE(r.ok());
                const auto resp =
                    codec::from_bytes<proto::ShardReadResp>(r.value());
                PnCounter c;
                c.restore(resp.state);
                value = c.value();
                answered_at = sched.now();
              },
              /*timeout=*/60 * kSecond);  // run_all drains shorter timeouts
  sched.run_until(10 * kMillisecond);
  EXPECT_EQ(value, -1);  // still deferred

  apply(2, Dot{9, 2}, 1);
  EXPECT_EQ(value, -1);
  const SimTime before = sched.now();
  apply(3, Dot{9, 3}, 1);  // catches up; reply released
  sched.run_until(sched.now() + 100 * kMillisecond);
  EXPECT_EQ(value, 3);
  EXPECT_GE(answered_at, before);
}

TEST_F(ShardTest, PrepareVotesCommitAndBuffers) {
  bool vote = false;
  proto::ShardPrepareReq prep;
  prep.txn_id = 42;
  prep.ops.push_back(OpRecord{{"b", "x"}, CrdtType::kPnCounter,
                              PnCounter::prepare_add(1)});
  client.call(2, proto::kShardPrepare, prep, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    vote = codec::from_bytes<proto::ShardPrepareResp>(r.value())
               .vote_commit;
  });
  sched.run_all();
  EXPECT_TRUE(vote);
  // Data is not applied by prepare (it arrives via kShardApply).
  EXPECT_EQ(shard.object_count(), 0u);
  // Commit releases the buffer without crashing.
  net.send(3, 2, proto::kShardCommit,
           codec::to_bytes(proto::ShardCommitMsg{42, true, 1, Dot{9, 1}}));
  sched.run_all();
}

TEST_F(ShardTest, PrepareVotesAbortOnTypeClash) {
  apply(1, Dot{9, 1}, 1);  // "x" exists as a counter
  bool vote = true;
  proto::ShardPrepareReq prep;
  prep.txn_id = 43;
  prep.ops.push_back(OpRecord{{"b", "x"}, CrdtType::kGSet,
                              GSet::prepare_add("boom")});
  client.call(2, proto::kShardPrepare, prep, [&](Result<Bytes> r) {
    ASSERT_TRUE(r.ok());
    vote = codec::from_bytes<proto::ShardPrepareResp>(r.value())
               .vote_commit;
  });
  sched.run_all();
  EXPECT_FALSE(vote);
}

}  // namespace
}  // namespace colony
