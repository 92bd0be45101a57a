// Edge-client integration (SwiftCloud-like client-cache mode): local
// transactions, asynchronous commit, read-my-writes, subscriptions and
// update pushes.
#include <gtest/gtest.h>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "crdt/rga.hpp"

namespace colony {
namespace {

const ObjectKey kX{"app", "x"};
const ObjectKey kSeq{"app", "seq"};

class EdgeBasicTest : public ::testing::Test {
 protected:
  EdgeBasicTest() : cluster([] {
    ClusterConfig cfg;
    cfg.num_dcs = 1;
    return cfg;
  }()) {}

  Cluster cluster;
};

TEST_F(EdgeBasicTest, LocalCommitIsImmediateAndAsynchronouslyAcked) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(node);

  auto txn = session.begin();
  session.increment(txn, kX, 5);
  const auto result = session.commit(std::move(txn));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().valid());

  // Read-my-writes before any network round trip.
  const auto* counter = dynamic_cast<const PnCounter*>(node.cached(kX));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 5);
  EXPECT_EQ(node.unacked_count(), 1u);
  EXPECT_EQ(node.state_vector(), VersionVector(1));  // not yet concrete

  cluster.run_for(2 * kSecond);
  EXPECT_EQ(node.unacked_count(), 0u);
  EXPECT_EQ(node.state_vector(), (VersionVector{1}));  // resolved to [1]
  EXPECT_EQ(cluster.dc(0).committed(), 1u);
}

TEST_F(EdgeBasicTest, ChainedCommitsResolveInOrder) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(node);

  for (int i = 0; i < 5; ++i) {
    auto txn = session.begin();
    session.increment(txn, kX, 1);
    ASSERT_TRUE(session.commit(std::move(txn)).ok());
  }
  EXPECT_EQ(node.unacked_count(), 5u);
  cluster.run_for(3 * kSecond);
  EXPECT_EQ(node.unacked_count(), 0u);
  EXPECT_EQ(cluster.dc(0).committed(), 5u);
  EXPECT_EQ(node.state_vector(), (VersionVector{5}));
  // DC sees the full count.
  const auto* counter =
      dynamic_cast<const PnCounter*>(cluster.dc(0).store().current(kX));
  EXPECT_EQ(counter->value(), 5);
}

TEST_F(EdgeBasicTest, ReadThroughFetchesAndCaches) {
  // Writer creates the object at the DC; reader fetches on first read.
  EdgeNode& writer = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session ws(writer);
  auto wtxn = ws.begin();
  ws.increment(wtxn, kX, 3);
  ASSERT_TRUE(ws.commit(std::move(wtxn)).ok());
  cluster.run_for(2 * kSecond);

  EdgeNode& reader = cluster.add_edge(ClientMode::kClientCache, 0, 2);
  Session rs(reader);
  auto rtxn = rs.begin();
  std::int64_t value = -1;
  ReadSource source{};
  rs.read_counter(rtxn, kX, [&](Result<std::int64_t> r, ReadSource src) {
    ASSERT_TRUE(r.ok());
    value = r.value();
    source = src;
  });
  cluster.run_for(2 * kSecond);
  EXPECT_EQ(value, 3);
  EXPECT_EQ(source, ReadSource::kDc);  // first read misses

  // Second read hits the cache.
  auto rtxn2 = rs.begin();
  rs.read_counter(rtxn2, kX, [&](Result<std::int64_t> r, ReadSource src) {
    ASSERT_TRUE(r.ok());
    value = r.value();
    source = src;
  });
  EXPECT_EQ(source, ReadSource::kLocal);  // synchronous hit
  EXPECT_EQ(value, 3);
}

TEST_F(EdgeBasicTest, SubscriptionPushesRemoteUpdates) {
  EdgeNode& a = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  EdgeNode& b = cluster.add_edge(ClientMode::kClientCache, 0, 2);
  Session sa(a), sb(b);

  bool subscribed = false;
  sb.subscribe({kX}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    subscribed = true;
  });
  cluster.run_for(1 * kSecond);
  ASSERT_TRUE(subscribed);

  auto txn = sa.begin();
  sa.increment(txn, kX, 7);
  ASSERT_TRUE(sa.commit(std::move(txn)).ok());
  cluster.run_for(3 * kSecond);

  const auto* counter = dynamic_cast<const PnCounter*>(b.cached(kX));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 7);  // pushed, no explicit read needed
}

TEST_F(EdgeBasicTest, TransactionReadsOwnBufferedUpdates) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(node);

  auto txn = session.begin();
  session.increment(txn, kX, 2);
  session.increment(txn, kX, 3);
  std::int64_t value = -1;
  session.read_counter(txn, kX, [&](Result<std::int64_t> r, ReadSource) {
    ASSERT_TRUE(r.ok());
    value = r.value();
  });
  cluster.run_for(1 * kSecond);
  EXPECT_EQ(value, 5);  // both buffered ops visible inside the transaction
  // But not outside until commit.
  const auto* counter = dynamic_cast<const PnCounter*>(node.cached(kX));
  if (counter != nullptr) {
    EXPECT_EQ(counter->value(), 0);
  }
}

TEST_F(EdgeBasicTest, AtomicMultiObjectCommit) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(node);
  const ObjectKey kY{"app", "y"};

  auto txn = session.begin();
  session.increment(txn, kX, 1);
  session.increment(txn, kY, 1);
  ASSERT_TRUE(session.commit(std::move(txn)).ok());
  cluster.run_for(2 * kSecond);

  // Both or neither at the DC (atomicity): check both applied by the same
  // transaction dot.
  const auto dots_x = cluster.dc(0).store().journalled_dots(kX);
  const auto dots_y = cluster.dc(0).store().journalled_dots(kY);
  ASSERT_EQ(dots_x.size(), 1u);
  ASSERT_EQ(dots_y.size(), 1u);
  EXPECT_EQ(dots_x[0], dots_y[0]);
}

TEST_F(EdgeBasicTest, SequenceAppendsPreserveOrderAcrossClients) {
  EdgeNode& a = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  EdgeNode& b = cluster.add_edge(ClientMode::kClientCache, 0, 2);
  Session sa(a), sb(b);

  sb.subscribe({kSeq}, [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  auto t1 = sa.begin();
  sa.append(t1, kSeq, "first");
  ASSERT_TRUE(sa.commit(std::move(t1)).ok());
  cluster.run_for(2 * kSecond);

  // b sees "first", replies "second": causal order must hold everywhere.
  auto t2 = sb.begin();
  std::vector<std::string> seen;
  sb.read_sequence(t2, kSeq, [&](Result<std::vector<std::string>> r,
                                 ReadSource) {
    ASSERT_TRUE(r.ok());
    seen = r.value();
  });
  cluster.run_for(1 * kSecond);
  ASSERT_EQ(seen, (std::vector<std::string>{"first"}));
  sb.append(t2, kSeq, "second");
  ASSERT_TRUE(sb.commit(std::move(t2)).ok());
  cluster.run_for(3 * kSecond);

  const auto* seq =
      dynamic_cast<const Rga*>(cluster.dc(0).store().current(kSeq));
  ASSERT_NE(seq, nullptr);
  EXPECT_EQ(seq->values(), (std::vector<std::string>{"first", "second"}));
}

TEST_F(EdgeBasicTest, BackpressureWhenUnackedQueueFull) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(node);
  // Cut the uplink so acks never arrive.
  cluster.set_uplink(node.id(), 0, false);

  Result<Dot> last{Dot{}};
  for (std::size_t i = 0; i < EdgeNode::kMaxUnacked + 1; ++i) {
    auto txn = session.begin();
    session.increment(txn, kX, 1);
    last = session.commit(std::move(txn));
  }
  EXPECT_FALSE(last.ok());
  EXPECT_EQ(last.error().code, Error::Code::kUnavailable);
}

TEST_F(EdgeBasicTest, CacheEvictionUnsubscribes) {
  EdgeNode& node = cluster.add_edge(ClientMode::kClientCache, 0, 1,
                                    /*cache_capacity=*/2);
  Session session(node);
  for (int i = 0; i < 3; ++i) {
    auto txn = session.begin();
    session.increment(txn, {"app", "k" + std::to_string(i)}, 1);
    ASSERT_TRUE(session.commit(std::move(txn)).ok());
  }
  // Oldest object evicted from the cache.
  EXPECT_FALSE(node.is_cached({"app", "k0"}));
  EXPECT_TRUE(node.is_cached({"app", "k1"}));
  EXPECT_TRUE(node.is_cached({"app", "k2"}));
  cluster.run_for(2 * kSecond);
}

}  // namespace
}  // namespace colony
