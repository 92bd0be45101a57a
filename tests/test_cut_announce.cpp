// Cut announcements (paper section 3.8): a DC tells each edge session the
// K-stable cut it may seed. The cut rides the last push of a push round; a
// cut that moved without an interesting push goes out alone, only on the
// gossip tick. A peer-group parent forwards a carried cut on the relayed
// push and sends it alone to the members the push skips.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "dc/messages.hpp"

namespace colony {
namespace {

const ObjectKey kX{"app", "x"};  // the subscriber's interest
const ObjectKey kY{"app", "y"};  // outside it
const ObjectKey kZ{"app", "z"};

std::int64_t cached_value(const EdgeNode& node, const ObjectKey& key) {
  const auto* c = dynamic_cast<const PnCounter*>(node.cached(key));
  return c == nullptr ? 0 : c->value();
}

/// Commit `delta` on `key` at the writer's DC (cloud execution: the writer
/// holds no session, so it receives no pushes or cuts). Returns the dot the
/// DC assigned, once the reply arrives.
std::shared_ptr<Dot> dc_increment(EdgeNode& writer, const ObjectKey& key,
                                  std::int64_t delta) {
  auto dot = std::make_shared<Dot>();
  writer.cloud_execute(
      {}, {OpRecord{key, CrdtType::kPnCounter, PnCounter::prepare_add(delta)}},
      [dot](Result<proto::DcExecuteResp> r) {
        ASSERT_TRUE(r.ok());
        *dot = r.value().dot;
      });
  return dot;
}

/// One DC, a cloud-mode writer and a client-cache subscriber to kX. The
/// uplink has no jitter so the fault windows below land deterministically.
struct SessionFixture {
  explicit SessionFixture(SimTime gossip_interval) {
    ClusterConfig cfg;
    cfg.num_dcs = 1;
    cfg.dc_gossip_interval = gossip_interval;
    cfg.edge_uplink = sim::LatencyModel{50 * kMillisecond, 0};
    cluster = std::make_unique<Cluster>(cfg);
    writer = &cluster->add_edge(ClientMode::kCloudOnly, 0, 1);
    subscriber = &cluster->add_edge(ClientMode::kClientCache, 0, 2);
    session = std::make_unique<Session>(*subscriber);
    session->subscribe({kX}, [](Result<void> r) { ASSERT_TRUE(r.ok()); });
    cluster->run_for(1 * kSecond);
    dc = cluster->dc_node_id(0);
  }

  [[nodiscard]] WireStats::Counter kind(std::uint32_t k) const {
    return cluster->network().wire_stats().for_kind(k);
  }
  /// Frames the DC sent the subscriber.
  [[nodiscard]] std::uint64_t link_frames() const {
    const WireStats& stats = cluster->network().wire_stats();
    return stats.for_link(dc, subscriber->id()).frames;
  }

  std::unique_ptr<Cluster> cluster;
  EdgeNode* writer = nullptr;
  EdgeNode* subscriber = nullptr;
  std::unique_ptr<Session> session;
  NodeId dc = 0;
};

// A DC sequencing transactions outside a subscriber's interest moves the
// subscriber's cut on every commit, but announces it only on the gossip
// tick: no state-update crosses the link between ticks, at most one per
// tick.
TEST(CutAnnounce, UninterestingCommitsAnnounceOnlyOnTheTick) {
  constexpr SimTime kTick = 100 * kMillisecond;
  SessionFixture fx(kTick);
  // The subscriber is the only session, so every state-update frame is on
  // its link; and with nothing interesting to push, from here on it is all
  // that link carries.
  const std::uint64_t updates_before = fx.kind(proto::kStateUpdate).frames;
  const std::uint64_t link_before = fx.link_frames();

  constexpr int kCommits = 40;
  std::vector<SimTime> announced_at;
  std::uint64_t seen = updates_before;
  for (int step = 0; step < 1000; ++step) {  // 1 s in 1 ms slices
    if (step % 20 == 0 && step / 20 < kCommits) {
      (void)dc_increment(*fx.writer, kY, 1);
    }
    fx.cluster->run_for(1 * kMillisecond);
    const std::uint64_t now = fx.kind(proto::kStateUpdate).frames;
    ASSERT_LE(now - seen, 1u) << "more than one cut in a 1 ms slice";
    if (now != seen) announced_at.push_back(fx.cluster->now());
    seen = now;
    ASSERT_EQ(fx.link_frames() - link_before, seen - updates_before)
        << "a frame other than a cut announcement reached the subscriber";
  }
  ASSERT_GE(fx.cluster->dc(0).committed(),
            static_cast<std::uint64_t>(kCommits));
  // Every announcement sits on the DC's tick grid, so none falls between
  // ticks, and there is at most one per tick.
  ASSERT_FALSE(announced_at.empty());
  for (const SimTime at : announced_at) {
    EXPECT_EQ(at % kTick, announced_at.front() % kTick)
        << "cut announced off the tick at " << at;
  }
  EXPECT_LE(announced_at.size(), 11u);  // 1 s holds ten ticks
}

// An interesting push carries its round's cut: the subscriber seeds it on
// delivery, so the pushed value is visible at once even though the commit's
// snapshot covers uninteresting transactions the subscriber never received.
// No state-update frame is needed, now or on a later tick.
TEST(CutAnnounce, InterestingPushCarriesItsCut) {
  // A tick far beyond the test keeps bare announcements out of the window.
  SessionFixture fx(100 * kSecond);
  const std::uint64_t updates_before = fx.kind(proto::kStateUpdate).frames;

  for (int i = 0; i < 3; ++i) (void)dc_increment(*fx.writer, kY, 1);
  fx.cluster->run_for(200 * kMillisecond);
  const auto dot = dc_increment(*fx.writer, kX, 5);

  bool delivered = false;
  for (int step = 0; step < 1000 && !delivered; ++step) {
    fx.cluster->run_for(1 * kMillisecond);
    delivered = fx.subscriber->txns().find(*dot) != nullptr;
  }
  ASSERT_TRUE(delivered);
  EXPECT_EQ(cached_value(*fx.subscriber, kX), 5);
  EXPECT_EQ(fx.subscriber->engine().seeded_cut().at(0), 4u);
  EXPECT_EQ(fx.kind(proto::kStateUpdate).frames, updates_before);
  fx.cluster->run_for(1 * kSecond);
  EXPECT_EQ(fx.kind(proto::kStateUpdate).frames, updates_before);
}

// A push that lands after a gap is discarded together with the cut it
// carries; the DC's stall detection rewinds the channel, and the re-sent
// pushes bring both the transaction and the cut.
TEST(CutAnnounce, AfterGapPushSeedsNeitherTxnNorCut) {
  constexpr SimTime kTick = 1 * kSecond;
  SessionFixture fx(kTick);
  // Start right after a tick so the fault window below holds none.
  fx.cluster->run_until(2 * kTick + 1 * kMillisecond);
  const VersionVector cut_before = fx.subscriber->engine().seeded_cut();

  // First push: sent once the writer's request reaches the DC.
  const auto first = dc_increment(*fx.writer, kX, 1);
  const std::uint64_t pushes = fx.kind(proto::kPushTxn).frames;
  for (int step = 0; step < 200 && fx.kind(proto::kPushTxn).frames == pushes;
       ++step) {
    fx.cluster->run_for(1 * kMillisecond);
  }
  ASSERT_EQ(fx.kind(proto::kPushTxn).frames, pushes + 1);
  // It is in flight for 50 ms: lose it by taking the subscriber down over
  // its delivery, and bring it back before the second push is sent.
  fx.cluster->run_for(10 * kMillisecond);
  fx.cluster->network().set_node_up(fx.subscriber->id(), false);
  const auto second = dc_increment(*fx.writer, kX, 2);
  fx.cluster->run_for(45 * kMillisecond);
  fx.cluster->network().set_node_up(fx.subscriber->id(), true);
  // The second push (with the round's cut) arrives after the gap.
  fx.cluster->run_for(100 * kMillisecond);
  ASSERT_EQ(fx.kind(proto::kPushTxn).frames, pushes + 2);
  ASSERT_TRUE(first->valid() && second->valid());
  EXPECT_EQ(fx.subscriber->txns().find(*first), nullptr);
  EXPECT_EQ(fx.subscriber->txns().find(*second), nullptr);
  EXPECT_EQ(fx.subscriber->engine().seeded_cut(), cut_before);
  EXPECT_EQ(cached_value(*fx.subscriber, kX), 0);

  // Five stalled ticks rewind the session; the re-sent pushes deliver.
  fx.cluster->run_for(8 * kTick);
  EXPECT_NE(fx.subscriber->txns().find(*first), nullptr);
  EXPECT_NE(fx.subscriber->txns().find(*second), nullptr);
  EXPECT_EQ(cached_value(*fx.subscriber, kX), 3);
  EXPECT_EQ(fx.subscriber->engine().seeded_cut(), fx.cluster->dc(0).k_cut());
}

// The WAL record of a delivered push carries its cut: an edge crashed right
// after a push-with-cut replays it and comes back with the same seeded cut.
TEST(CutAnnounce, CrashAfterPushWithCutRecoversTheCut) {
  SessionFixture fx(100 * kSecond);
  const std::uint64_t updates_before = fx.kind(proto::kStateUpdate).frames;
  for (int i = 0; i < 2; ++i) (void)dc_increment(*fx.writer, kY, 1);
  fx.cluster->run_for(200 * kMillisecond);
  const auto dot = dc_increment(*fx.writer, kX, 7);
  for (int step = 0; step < 1000 && fx.subscriber->txns().find(*dot) == nullptr;
       ++step) {
    fx.cluster->run_for(1 * kMillisecond);
  }
  ASSERT_NE(fx.subscriber->txns().find(*dot), nullptr);
  ASSERT_EQ(fx.kind(proto::kStateUpdate).frames, updates_before);
  const VersionVector cut = fx.subscriber->engine().seeded_cut();
  ASSERT_EQ(cut.at(0), 3u);  // covers the uninteresting commits
  ASSERT_TRUE(fx.subscriber->verify_recovery());

  fx.cluster->crash_node(fx.subscriber->id());
  fx.cluster->restart_node(fx.subscriber->id());
  std::string why;
  EXPECT_TRUE(fx.subscriber->verify_recovery(&why)) << why;
  EXPECT_EQ(fx.subscriber->engine().seeded_cut(), cut);
  EXPECT_EQ(cached_value(*fx.subscriber, kX), 7);
}

// Behind a peer-group parent, the member interested in a pushed transaction
// gets the cut on the relayed push, the other member gets it alone, and all
// members end with the same seeded cut.
TEST(CutAnnounce, ParentForwardsTheCutOnThePushOrAlone) {
  ClusterConfig cfg;
  cfg.num_dcs = 1;
  cfg.dc_gossip_interval = 100 * kSecond;
  Cluster cluster(cfg);
  PeerGroupParent& parent = cluster.add_group_parent(0);
  EdgeNode& writer = cluster.add_edge(ClientMode::kCloudOnly, 0, 1);
  EdgeNode& interested = cluster.add_edge(ClientMode::kPeerGroup, 0, 2);
  EdgeNode& other = cluster.add_edge(ClientMode::kPeerGroup, 0, 3);
  cluster.wire_peer_links({parent.id(), interested.id(), other.id()});
  for (EdgeNode* node : {&interested, &other}) {
    node->join_group(parent.id(),
                     [](Result<void> r) { ASSERT_TRUE(r.ok()); });
    cluster.run_for(200 * kMillisecond);
  }
  Session(interested).subscribe({kX}, [](Result<void>) {});
  Session(other).subscribe({kZ}, [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  (void)dc_increment(writer, kY, 1);
  cluster.run_for(200 * kMillisecond);
  const auto dot = dc_increment(writer, kX, 3);

  // The relay is the slice in which a push crosses the wire but not on the
  // DC's link: the parent's links then carry the push and the bare cut.
  const WireStats& stats = cluster.network().wire_stats();
  const NodeId dc = cluster.dc_node_id(0);
  bool relayed = false;
  for (int step = 0; step < 1000 && !relayed; ++step) {
    const std::uint64_t push0 = stats.for_kind(proto::kPushTxn).frames;
    const std::uint64_t update0 = stats.for_kind(proto::kStateUpdate).frames;
    const std::uint64_t to_a0 =
        stats.for_link(parent.id(), interested.id()).frames;
    const std::uint64_t to_b0 = stats.for_link(parent.id(), other.id()).frames;
    const std::uint64_t from_dc0 = stats.for_link(dc, parent.id()).frames;
    cluster.run_for(1 * kMillisecond);
    if (stats.for_kind(proto::kPushTxn).frames == push0 ||
        stats.for_link(dc, parent.id()).frames != from_dc0) {
      continue;
    }
    relayed = true;
    EXPECT_EQ(stats.for_kind(proto::kPushTxn).frames - push0, 1u);
    EXPECT_EQ(stats.for_kind(proto::kStateUpdate).frames - update0, 1u);
    EXPECT_EQ(stats.for_link(parent.id(), interested.id()).frames - to_a0, 1u);
    EXPECT_EQ(stats.for_link(parent.id(), other.id()).frames - to_b0, 1u);
  }
  ASSERT_TRUE(relayed);
  cluster.run_for(100 * kMillisecond);
  EXPECT_NE(interested.txns().find(*dot), nullptr);
  EXPECT_EQ(other.txns().find(*dot), nullptr);
  EXPECT_EQ(cached_value(interested, kX), 3);
  EXPECT_EQ(interested.engine().seeded_cut().at(0), 2u);
  EXPECT_EQ(interested.engine().seeded_cut(), other.engine().seeded_cut());
}

}  // namespace
}  // namespace colony
