// Peer groups (paper section 5): membership, EPaxos-ordered visibility,
// the collaborative cache, sync-point forwarding, offline groups, and both
// commit variants.
#include <gtest/gtest.h>

#include <optional>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "crdt/rga.hpp"

namespace colony {
namespace {

const ObjectKey kX{"app", "x"};

struct GroupFixture {
  explicit GroupFixture(std::size_t members, std::size_t num_dcs = 1) {
    ClusterConfig cfg;
    cfg.num_dcs = num_dcs;
    cluster = std::make_unique<Cluster>(cfg);
    parent = &cluster->add_group_parent(0);
    std::vector<NodeId> node_ids{parent->id()};
    for (std::size_t i = 0; i < members; ++i) {
      EdgeNode& node =
          cluster->add_edge(ClientMode::kPeerGroup, 0, 100 + i);
      nodes.push_back(&node);
      sessions.push_back(std::make_unique<Session>(node));
      node_ids.push_back(node.id());
    }
    cluster->wire_peer_links(node_ids);
  }

  void join_all() {
    for (EdgeNode* node : nodes) {
      node->join_group(parent->id(), [](Result<void> r) {
        ASSERT_TRUE(r.ok());
      });
      cluster->run_for(200 * kMillisecond);
    }
  }

  std::unique_ptr<Cluster> cluster;
  PeerGroupParent* parent = nullptr;
  std::vector<EdgeNode*> nodes;
  std::vector<std::unique_ptr<Session>> sessions;
};

TEST(PeerGroup, JoinBuildsMembership) {
  GroupFixture fx(3);
  fx.join_all();
  EXPECT_EQ(fx.parent->member_count(), 3u);
  for (EdgeNode* node : fx.nodes) {
    EXPECT_TRUE(node->in_group());
  }
  // Everybody agrees on the epoch after the churn settles.
  fx.cluster->run_for(1 * kSecond);
  for (EdgeNode* node : fx.nodes) {
    EXPECT_EQ(node->group_epoch(), fx.parent->epoch());
  }
}

TEST(PeerGroup, GroupCommitPropagatesToMembersAndDc) {
  GroupFixture fx(3);
  fx.join_all();
  // Members declare interest in the shared object; only subscribed keys
  // are materialised from group deliveries (section 5.1.2).
  for (auto& session : fx.sessions) {
    session->subscribe({kX}, [](Result<void>) {});
  }
  fx.cluster->run_for(1 * kSecond);

  auto txn = fx.sessions[0]->begin();
  fx.sessions[0]->increment(txn, kX, 4);
  ASSERT_TRUE(fx.sessions[0]->commit(std::move(txn)).ok());
  fx.cluster->run_for(3 * kSecond);

  // Every member and the parent observe the update via consensus delivery.
  for (EdgeNode* node : fx.nodes) {
    const auto* c = dynamic_cast<const PnCounter*>(node->cached(kX));
    ASSERT_NE(c, nullptr) << "member " << node->id();
    EXPECT_EQ(c->value(), 4);
  }
  const auto* pc =
      dynamic_cast<const PnCounter*>(fx.parent->store().current(kX));
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->value(), 4);

  // The sync point forwarded it: the DC sequenced it and the member's
  // commit resolved.
  EXPECT_EQ(fx.cluster->dc(0).committed(), 1u);
  EXPECT_EQ(fx.nodes[0]->unacked_count(), 0u);
  EXPECT_EQ(fx.parent->forward_backlog(), 0u);
}

TEST(PeerGroup, VisibilityOrderIdenticalAcrossMembers) {
  GroupFixture fx(3);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  // Concurrent interfering commits from all members.
  for (std::size_t i = 0; i < 3; ++i) {
    auto txn = fx.sessions[i]->begin();
    fx.sessions[i]->increment(txn, kX, 1);
    ASSERT_TRUE(fx.sessions[i]->commit(std::move(txn)).ok());
  }
  fx.cluster->run_for(3 * kSecond);

  for (EdgeNode* node : fx.nodes) {
    const auto* c = dynamic_cast<const PnCounter*>(node->cached(kX));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 3);
  }
  EXPECT_EQ(fx.cluster->dc(0).committed(), 3u);
}

TEST(PeerGroup, CollaborativeCacheServesMisses) {
  GroupFixture fx(2);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  // Member 0 creates the object; member 1 reads it cold: the fetch should
  // be served by the group (parent), not the DC.
  auto txn = fx.sessions[0]->begin();
  fx.sessions[0]->increment(txn, kX, 6);
  ASSERT_TRUE(fx.sessions[0]->commit(std::move(txn)).ok());
  fx.cluster->run_for(2 * kSecond);

  // Ensure member 1 does not already cache it via consensus delivery (it
  // does — so invalidate its cache to force the miss path).
  fx.nodes[1]->invalidate_cache();

  auto txn2 = fx.sessions[1]->begin();
  std::int64_t value = -1;
  ReadSource src{};
  fx.sessions[1]->read_counter(txn2, kX,
                               [&](Result<std::int64_t> r, ReadSource s) {
                                 ASSERT_TRUE(r.ok());
                                 value = r.value();
                                 src = s;
                               });
  fx.cluster->run_for(1 * kSecond);
  EXPECT_EQ(value, 6);
  EXPECT_EQ(src, ReadSource::kPeer);
}

// A read of an object nobody has created misses at the parent, which asks
// its DC once in the background. The DC's "not found" is an answer, not an
// outage: the parent must not re-fetch the key every retry interval.
TEST(PeerGroup, ParentDoesNotRefetchAnObjectNobodyCreated) {
  GroupFixture fx(1);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);
  fx.cluster->network().wire_stats().clear();

  auto txn = fx.sessions[0]->begin();
  std::int64_t value = -1;
  fx.sessions[0]->read_counter(txn, {"app", "never-created"},
                               [&](Result<std::int64_t> r, ReadSource) {
                                 ASSERT_TRUE(r.ok());
                                 value = r.value();
                               });
  fx.cluster->run_for(5 * kSecond);
  EXPECT_EQ(value, 0);
  // Two fetches, each a request and its reply: the member's own DC read
  // after the peer miss, and the parent's one background fill.
  EXPECT_EQ(fx.cluster->network()
                .wire_stats()
                .for_kind(proto::kFetchObject)
                .frames,
            4u);
}

TEST(PeerGroup, OfflineGroupKeepsCollaborating) {
  GroupFixture fx(3);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  // Cut the parent's uplink: the group is offline (Figure 5 scenario).
  fx.cluster->set_uplink(fx.parent->id(), 0, false);

  for (std::size_t i = 0; i < 3; ++i) {
    auto txn = fx.sessions[i]->begin();
    fx.sessions[i]->increment(txn, kX, 1);
    ASSERT_TRUE(fx.sessions[i]->commit(std::move(txn)).ok());
  }
  fx.cluster->run_for(3 * kSecond);

  // Intra-group convergence despite the outage.
  for (EdgeNode* node : fx.nodes) {
    const auto* c = dynamic_cast<const PnCounter*>(node->cached(kX));
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->value(), 3);
  }
  EXPECT_EQ(fx.cluster->dc(0).committed(), 0u);
  EXPECT_GE(fx.parent->forward_backlog(), 1u);

  // Reconnect: the sync point drains its backlog.
  fx.cluster->set_uplink(fx.parent->id(), 0, true);
  fx.cluster->run_for(5 * kSecond);
  EXPECT_EQ(fx.cluster->dc(0).committed(), 3u);
  EXPECT_EQ(fx.parent->forward_backlog(), 0u);
}

TEST(PeerGroup, DisconnectedMemberRemovedAndRejoins) {
  GroupFixture fx(3);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  // Member 2 loses its peer links (Figure 6 scenario).
  const auto group_nodes = [&] {
    std::vector<NodeId> ids{fx.parent->id()};
    for (EdgeNode* n : fx.nodes) ids.push_back(n->id());
    return ids;
  }();
  fx.cluster->set_peer_links(fx.nodes[2]->id(), group_nodes, false);

  // The heartbeat eventually removes it so the rest keep a live quorum.
  fx.cluster->run_for(5 * kSecond);
  EXPECT_EQ(fx.parent->member_count(), 2u);

  // The remaining members still commit through consensus.
  auto txn = fx.sessions[0]->begin();
  fx.sessions[0]->increment(txn, kX, 1);
  ASSERT_TRUE(fx.sessions[0]->commit(std::move(txn)).ok());
  fx.cluster->run_for(3 * kSecond);
  EXPECT_EQ(fx.cluster->dc(0).committed(), 1u);

  // The disconnected member worked locally meanwhile.
  auto txn2 = fx.sessions[2]->begin();
  fx.sessions[2]->increment(txn2, kX, 10);
  ASSERT_TRUE(fx.sessions[2]->commit(std::move(txn2)).ok());

  // Reconnect and rejoin.
  fx.cluster->set_peer_links(fx.nodes[2]->id(), group_nodes, true);
  bool rejoined = false;
  fx.nodes[2]->join_group(fx.parent->id(), [&](Result<void> r) {
    rejoined = r.ok();
  });
  fx.cluster->run_for(5 * kSecond);
  EXPECT_TRUE(rejoined);
  EXPECT_EQ(fx.parent->member_count(), 3u);
  fx.cluster->run_for(5 * kSecond);

  // Its offline commit flowed through the group to the DC.
  EXPECT_EQ(fx.cluster->dc(0).committed(), 2u);
  const auto* pc =
      dynamic_cast<const PnCounter*>(fx.parent->store().current(kX));
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->value(), 11);
}

TEST(PeerGroup, OrderedCommitVariantDetectsConflicts) {
  GroupFixture fx(2);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  // Two members issue PSI (critical-path) commits on the same key
  // concurrently: exactly one must abort (section 5.1.4 variant 1).
  int ok_count = 0, abort_count = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    auto txn = fx.sessions[i]->begin();
    fx.sessions[i]->increment(txn, kX, 1);
    fx.sessions[i]->commit_ordered(std::move(txn), [&](Result<Dot> r) {
      if (r.ok()) {
        ++ok_count;
      } else {
        EXPECT_EQ(r.error().code, Error::Code::kAborted);
        ++abort_count;
      }
    });
  }
  fx.cluster->run_for(3 * kSecond);
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(abort_count, 1);

  // The surviving increment propagates; the aborted one does not.
  fx.cluster->run_for(3 * kSecond);
  const auto* pc =
      dynamic_cast<const PnCounter*>(fx.parent->store().current(kX));
  ASSERT_NE(pc, nullptr);
  EXPECT_EQ(pc->value(), 1);
  EXPECT_EQ(fx.cluster->dc(0).committed(), 1u);
}

TEST(PeerGroup, OrderedCommitsSucceedWhenDisjoint) {
  GroupFixture fx(2);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  int ok_count = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    auto txn = fx.sessions[i]->begin();
    fx.sessions[i]->increment(txn, {"app", "k" + std::to_string(i)}, 1);
    fx.sessions[i]->commit_ordered(std::move(txn), [&](Result<Dot> r) {
      if (r.ok()) ++ok_count;
    });
  }
  fx.cluster->run_for(3 * kSecond);
  EXPECT_EQ(ok_count, 2);  // non-conflicting: both commit in parallel
}

// A member that leaves before consensus orders its PSI commit still answers
// the caller: the outcome is unknown (other members may order it), so the
// callback reports kUnavailable, exactly once.
TEST(PeerGroup, OrderedCommitCallbackFiresWhenMemberLeaves) {
  GroupFixture fx(2);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);

  int calls = 0;
  std::optional<Error::Code> code;
  auto txn = fx.sessions[0]->begin();
  fx.sessions[0]->increment(txn, kX, 1);
  fx.sessions[0]->commit_ordered(std::move(txn), [&](Result<Dot> r) {
    ++calls;
    if (!r.ok()) code = r.error().code;
  });
  fx.nodes[0]->leave_group([](Result<void>) {});
  fx.cluster->run_for(3 * kSecond);
  EXPECT_FALSE(fx.nodes[0]->in_group());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(code, Error::Code::kUnavailable);
}

TEST(PeerGroup, JoinRejectedWhenAheadOfParent) {
  GroupFixture fx(1);
  // Sever the parent's uplink so it cannot track the DC's cut; the member
  // commits against the DC directly (groupless peer-group mode falls back
  // to the direct pump), advancing its state beyond the parent's.
  fx.cluster->set_uplink(fx.parent->id(), 0, false);
  auto txn = fx.sessions[0]->begin();
  fx.sessions[0]->increment(txn, kX, 1);
  ASSERT_TRUE(fx.sessions[0]->commit(std::move(txn)).ok());
  fx.cluster->run_for(2 * kSecond);
  ASSERT_TRUE(VersionVector({1}).leq(fx.nodes[0]->state_vector()));

  // The parent has never heard from the DC, so the joiner is "ahead".
  bool rejected = false;
  fx.nodes[0]->join_group(fx.parent->id(), [&](Result<void> r) {
    rejected = !r.ok() && r.error().code == Error::Code::kIncompatible;
  });
  fx.cluster->run_for(1 * kSecond);
  EXPECT_TRUE(rejected);
  EXPECT_FALSE(fx.nodes[0]->in_group());
}

TEST(PeerGroup, LeaveShrinksMembership) {
  GroupFixture fx(2);
  fx.join_all();
  fx.cluster->run_for(1 * kSecond);
  bool left = false;
  fx.nodes[0]->leave_group([&](Result<void>) { left = true; });
  fx.cluster->run_for(1 * kSecond);
  EXPECT_TRUE(left);
  EXPECT_FALSE(fx.nodes[0]->in_group());
  EXPECT_EQ(fx.parent->member_count(), 1u);
}

}  // namespace
}  // namespace colony
