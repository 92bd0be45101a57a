// The crash-recovery lifecycle's timer rule: recover() on a node that is
// already running (a double restart) kills the previous incarnation's
// timer chains instead of doubling them. A doubled checkpoint chain would
// write about twice the checkpoints while records keep accruing; a doubled
// DC gossip chain would send twice the gossip frames.
#include <gtest/gtest.h>

#include <memory>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "dc/messages.hpp"

namespace colony {
namespace {

const ObjectKey kX{"app", "x"};

TEST(DurableNode, RecoverOnRunningNodeKeepsOneTimerChain) {
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  EdgeNode& edge = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  Session session(edge);
  bool subscribed = false;
  session.subscribe({kX}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    subscribed = true;
  });
  cluster.run_for(1 * kSecond);
  ASSERT_TRUE(subscribed);

  // An edge commit every 50 ms keeps records accruing at both nodes (the DC
  // also logs its peer's gossip), so every live checkpoint tick writes.
  const auto run_with_load = [&](SimTime duration) {
    const SimTime end = cluster.now() + duration;
    while (cluster.now() < end) {
      Session::Txn txn = session.begin();
      session.increment(txn, kX, 1);
      ASSERT_TRUE(session.commit(std::move(txn)).ok());
      cluster.run_for(50 * kMillisecond);
    }
  };
  run_with_load(1 * kSecond);  // checkpoints exist before the crash

  DcNode& dc = cluster.dc(0);
  storage::Wal* dc_disk = cluster.disk(dc.id());
  storage::Wal* edge_disk = cluster.disk(edge.id());
  for (const NodeId node : {dc.id(), edge.id()}) {
    cluster.crash_node(node);
    cluster.restart_node(node);
  }
  run_with_load(200 * kMillisecond);
  dc.recover();
  edge.recover();

  const std::uint64_t dc_checkpoints = dc_disk->checkpoint_count();
  const std::uint64_t edge_checkpoints = edge_disk->checkpoint_count();
  const std::uint64_t gossip_frames =
      cluster.network().wire_stats().for_kind(proto::kDcGossip).frames;
  constexpr SimTime kWindow = 4 * kSecond;
  run_with_load(kWindow);

  const auto max_checkpoints =
      static_cast<std::uint64_t>(kWindow / (400 * kMillisecond) + 1);
  EXPECT_LE(dc_disk->checkpoint_count() - dc_checkpoints, max_checkpoints);
  EXPECT_LE(edge_disk->checkpoint_count() - edge_checkpoints,
            max_checkpoints);
  // One gossip per peer per 100 ms from each of the two DCs.
  const auto max_gossip =
      static_cast<std::uint64_t>(2 * (kWindow / (100 * kMillisecond) + 1));
  EXPECT_LE(cluster.network().wire_stats().for_kind(proto::kDcGossip).frames -
                gossip_frames,
            max_gossip);
  EXPECT_FALSE(dc.crashed());
  EXPECT_FALSE(edge.crashed());
}

}  // namespace
}  // namespace colony
