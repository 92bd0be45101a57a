// Group-level migration: a member moving between peer groups (section
// 5.2) and a whole subtree (parent + members) moving between DCs
// (section 3.8, "migrate a node or a group").
#include <gtest/gtest.h>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"

namespace colony {
namespace {

const ObjectKey kX{"app", "x"};

std::int64_t value_of(const Crdt* c) {
  const auto* counter = dynamic_cast<const PnCounter*>(c);
  return counter == nullptr ? 0 : counter->value();
}

TEST(GroupMigration, MemberMovesBetweenGroups) {
  ClusterConfig cfg;
  Cluster cluster(cfg);
  PeerGroupParent& downtown = cluster.add_group_parent(0);
  PeerGroupParent& uptown = cluster.add_group_parent(0);
  EdgeNode& mover = cluster.add_edge(ClientMode::kPeerGroup, 0, 1);
  EdgeNode& local = cluster.add_edge(ClientMode::kPeerGroup, 0, 2);
  cluster.wire_peer_links({downtown.id(), mover.id(), local.id()});
  cluster.wire_peer_links({uptown.id(), mover.id()});

  mover.join_group(downtown.id(), [](Result<void>) {});
  local.join_group(downtown.id(), [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  Session sm(mover);
  sm.subscribe({kX}, [](Result<void>) {});
  cluster.run_for(500 * kMillisecond);
  auto t1 = sm.begin();
  sm.increment(t1, kX, 1);
  ASSERT_TRUE(sm.commit(std::move(t1)).ok());
  cluster.run_for(3 * kSecond);

  // Leave downtown, join uptown; work continues in the new group.
  bool left = false, joined = false;
  mover.leave_group([&](Result<void>) { left = true; });
  cluster.run_for(500 * kMillisecond);
  ASSERT_TRUE(left);
  mover.join_group(uptown.id(), [&](Result<void> r) { joined = r.ok(); });
  cluster.run_for(2 * kSecond);
  ASSERT_TRUE(joined);
  EXPECT_EQ(downtown.member_count(), 1u);
  EXPECT_EQ(uptown.member_count(), 1u);

  auto t2 = sm.begin();
  sm.increment(t2, kX, 1);
  ASSERT_TRUE(sm.commit(std::move(t2)).ok());
  cluster.run_for(3 * kSecond);

  EXPECT_EQ(cluster.dc(0).committed(), 2u);
  EXPECT_EQ(value_of(cluster.dc(0).store().current(kX)), 2);
  EXPECT_EQ(mover.unacked_count(), 0u);
}

TEST(GroupMigration, SubtreeMovesBetweenDcs) {
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  PeerGroupParent& parent = cluster.add_group_parent(0);
  EdgeNode& a = cluster.add_edge(ClientMode::kPeerGroup, 0, 1);
  EdgeNode& b = cluster.add_edge(ClientMode::kPeerGroup, 0, 2);
  cluster.wire_peer_links({parent.id(), a.id(), b.id()});
  a.join_group(parent.id(), [](Result<void>) {});
  b.join_group(parent.id(), [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  Session sa(a), sb(b);
  sa.subscribe({kX}, [](Result<void>) {});
  sb.subscribe({kX}, [](Result<void>) {});
  cluster.run_for(500 * kMillisecond);

  auto t1 = sa.begin();
  sa.increment(t1, kX, 1);
  ASSERT_TRUE(sa.commit(std::move(t1)).ok());
  cluster.run_for(3 * kSecond);
  ASSERT_EQ(cluster.dc(0).committed(), 1u);

  // The whole subtree migrates to DC1 (its commit replicated there first).
  bool migrated = false;
  parent.migrate_to_dc(cluster.dc_node_id(1), [&](Result<void> r) {
    migrated = r.ok();
  });
  cluster.run_for(2 * kSecond);
  ASSERT_TRUE(migrated);
  EXPECT_EQ(parent.connected_dc(), cluster.dc_node_id(1));

  // New group work is sequenced at DC1; members need no reconfiguration.
  auto t2 = sb.begin();
  sb.increment(t2, kX, 1);
  ASSERT_TRUE(sb.commit(std::move(t2)).ok());
  cluster.run_for(3 * kSecond);
  EXPECT_EQ(cluster.dc(1).committed(), 1u);
  cluster.run_for(3 * kSecond);  // replicate back
  EXPECT_EQ(value_of(cluster.dc(0).store().current(kX)), 2);
  EXPECT_EQ(value_of(cluster.dc(1).store().current(kX)), 2);
}

TEST(GroupMigration, SubtreeMigrationRefusedWhenIncompatible) {
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  PeerGroupParent& parent = cluster.add_group_parent(0);
  EdgeNode& a = cluster.add_edge(ClientMode::kPeerGroup, 0, 1);
  cluster.wire_peer_links({parent.id(), a.id()});
  a.join_group(parent.id(), [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  // Cut the DC mesh: DC1 will miss the group's commit.
  cluster.network().set_link_up(cluster.dc_node_id(0), cluster.dc_node_id(1),
                                false);
  Session sa(a);
  auto txn = sa.begin();
  sa.increment(txn, kX, 1);
  ASSERT_TRUE(sa.commit(std::move(txn)).ok());
  cluster.run_for(3 * kSecond);
  ASSERT_TRUE(VersionVector({1, 0}).leq(parent.state_vector()));

  bool incompatible = false;
  parent.migrate_to_dc(cluster.dc_node_id(1), [&](Result<void> r) {
    incompatible = !r.ok() && r.error().code == Error::Code::kIncompatible;
  });
  cluster.run_for(2 * kSecond);
  EXPECT_TRUE(incompatible);
  EXPECT_EQ(parent.connected_dc(), cluster.dc_node_id(0));  // stayed put
}

TEST(GroupMigration, OfflineSubtreeFlushesAtNewDc) {
  // The group works offline from DC0 entirely, then migrates to DC1 and
  // flushes its backlog there — failover without ever reconnecting to the
  // original DC.
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  PeerGroupParent& parent = cluster.add_group_parent(0);
  EdgeNode& a = cluster.add_edge(ClientMode::kPeerGroup, 0, 1);
  cluster.wire_peer_links({parent.id(), a.id()});
  a.join_group(parent.id(), [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  cluster.set_uplink(parent.id(), 0, false);
  Session sa(a);
  for (int i = 0; i < 3; ++i) {
    auto txn = sa.begin();
    sa.increment(txn, kX, 1);
    ASSERT_TRUE(sa.commit(std::move(txn)).ok());
  }
  cluster.run_for(2 * kSecond);
  EXPECT_GE(parent.forward_backlog(), 1u);

  bool migrated = false;
  parent.migrate_to_dc(cluster.dc_node_id(1), [&](Result<void> r) {
    migrated = r.ok();
  });
  cluster.run_for(5 * kSecond);
  ASSERT_TRUE(migrated);
  EXPECT_EQ(parent.forward_backlog(), 0u);
  EXPECT_EQ(cluster.dc(1).committed(), 3u);
  EXPECT_EQ(value_of(cluster.dc(1).store().current(kX)), 3);
  EXPECT_EQ(a.unacked_count(), 0u);
}


TEST(GroupMigration, ParentRecoversPushLostAfterMigration) {
  // The parent's channel to its new DC starts again at sequence 1. Receive
  // state must be kept per sending DC: measured against the old DC's
  // prefix, the new DC's pushes look like duplicates, a lost one is never
  // detected, and the cut on its successor is seeded past the loss.
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  PeerGroupParent& parent = cluster.add_group_parent(0);
  EdgeNode& a = cluster.add_edge(ClientMode::kPeerGroup, 0, 1);
  EdgeNode& w = cluster.add_edge(ClientMode::kClientCache, 1, 2);
  cluster.wire_peer_links({parent.id(), a.id()});
  a.join_group(parent.id(), [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  Session sa(a), sw(w);
  sa.subscribe({kX}, [](Result<void>) {});
  sw.subscribe({kX}, [](Result<void>) {});
  cluster.run_for(500 * kMillisecond);
  const auto add = [&](std::int64_t n) {
    auto txn = sw.begin();
    sw.increment(txn, kX, n);
    ASSERT_TRUE(sw.commit(std::move(txn)).ok());
  };
  // Five pushes reach the parent from DC0.
  for (int i = 0; i < 5; ++i) {
    add(1);
    cluster.run_for(500 * kMillisecond);
  }
  ASSERT_EQ(value_of(parent.store().current(kX)), 5);

  bool migrated = false;
  parent.migrate_to_dc(cluster.dc_node_id(1), [&](Result<void> r) {
    migrated = r.ok();
  });
  cluster.run_for(2 * kSecond);
  ASSERT_TRUE(migrated);
  cluster.set_uplink(parent.id(), 0, false);

  // DC1's first push to the parent is lost.
  sim::LatencyModel lossy = cfg.pop_uplink;
  lossy.loss_rate = 1.0;
  cluster.network().connect(parent.id(), cluster.dc_node_id(1), lossy);
  add(10);
  cluster.run_for(1 * kSecond);
  cluster.network().connect(parent.id(), cluster.dc_node_id(1),
                            cfg.pop_uplink);
  add(100);
  cluster.run_for(10 * kSecond);

  EXPECT_EQ(value_of(cluster.dc(1).store().current(kX)), 115);
  EXPECT_EQ(value_of(parent.store().current(kX)), 115);
  EXPECT_EQ(value_of(a.store().current(kX)), 115);
}

}  // namespace
}  // namespace colony
