// The DC's push stream, pinned end to end. A scripted 3-DC cluster with
// client-cache edges and one peer group runs through the cases that steer
// a DC's session pushes: a link flap shorter than a gossip tick, a
// subscribe and a fetch while the uplink is down, an ack-stall resync, a
// DC crash-restart, a migration whose possessed cut is ahead of the new
// DC's K-stable frontier, an ACL write (and the masked writes it causes),
// and an unsubscribe. The digest covers every subscriber's received
// stream (each ingested dot and each seeded cut, with its simulated time),
// the wire counters per kind and per DC link, and every node's WAL, so a
// change to which pushes a DC sends, their order, their cuts or their
// timing shows up here. Any push-path optimisation must keep it as is.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "core/visibility.hpp"
#include "dc/messages.hpp"
#include "security/acl.hpp"
#include "sim/frame.hpp"

namespace colony {
namespace {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ull;
    }
  }
  void add(const VersionVector& v) {
    add(v.size());
    for (DcId dc = 0; dc < v.size(); ++dc) add(v.at(dc));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Folds what a subscriber's engine receives, in order: every ingested
/// transaction (pushes, relays, own commits) and every seeded cut.
class StreamDigest final : public VisibilityEngine::Observer {
 public:
  explicit StreamDigest(const Cluster& cluster) : cluster_(cluster) {}

  void on_ingested(const Dot& dot, bool fresh) override {
    digest_.add(1);
    digest_.add(cluster_.now());
    digest_.add(dot.origin);
    digest_.add(dot.counter);
    digest_.add(fresh ? 1 : 0);
  }
  void on_seeded(const VersionVector& v) override {
    digest_.add(2);
    digest_.add(cluster_.now());
    digest_.add(v);
  }
  void on_admitted(const Dot&) override {}
  void on_resolved(const Dot&) override {}
  void on_apply_causal(const Dot&, bool) override {}
  void on_apply_local(const Dot&) override {}
  void on_drained() override {}
  void on_masks_recomputed() override {}
  void on_restored() override {}
  void on_reset() override {}

  [[nodiscard]] std::uint64_t value() const { return digest_.value(); }

 private:
  const Cluster& cluster_;
  Digest digest_;
};

ObjectKey key(int i) { return ObjectKey{"app", "k" + std::to_string(i)}; }

TEST(DcPush, GoldenSubscriberStreams) {
  ClusterConfig cfg;
  cfg.num_dcs = 3;
  cfg.k_stability = 2;
  cfg.seed = 26;
  Cluster cluster(cfg);
  sim::Network& net = cluster.network();
  const NodeId dc0 = cluster.dc_node_id(0);
  const NodeId dc1 = cluster.dc_node_id(1);
  const NodeId dc2 = cluster.dc_node_id(2);

  EdgeNode& e0 = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  EdgeNode& e1 = cluster.add_edge(ClientMode::kClientCache, 1, 2);
  EdgeNode& e2 = cluster.add_edge(ClientMode::kClientCache, 2, 3);
  // A three-object cache: reading further keys evicts, which unsubscribes.
  EdgeNode& e3 = cluster.add_edge(ClientMode::kClientCache, 0, 4, 3);
  PeerGroupParent& parent = cluster.add_group_parent(1);
  EdgeNode& m0 = cluster.add_edge(ClientMode::kPeerGroup, 1, 5);
  EdgeNode& m1 = cluster.add_edge(ClientMode::kPeerGroup, 1, 6);
  cluster.wire_peer_links({parent.id(), m0.id(), m1.id()});

  std::vector<EdgeNode*> edges{&e0, &e1, &e2, &e3, &m0, &m1};
  std::vector<std::unique_ptr<StreamDigest>> streams;
  std::vector<std::unique_ptr<Session>> sessions;
  for (EdgeNode* edge : edges) {
    streams.push_back(std::make_unique<StreamDigest>(cluster));
    edge->engine().set_observer(streams.back().get());
    sessions.push_back(std::make_unique<Session>(*edge));
  }
  Session& s0 = *sessions[0];
  Session& s1 = *sessions[1];
  Session& s2 = *sessions[2];
  Session& s3 = *sessions[3];

  const auto ignore = [](Result<void>) {};
  m0.join_group(parent.id(), ignore);
  cluster.run_for(200 * kMillisecond);
  m1.join_group(parent.id(), ignore);
  cluster.run_for(200 * kMillisecond);
  s0.subscribe({key(0), key(1), key(2)}, ignore);
  s1.subscribe({key(1), key(3)}, ignore);
  s2.subscribe({key(0), key(2), key(4)}, ignore);
  s3.subscribe({key(0), key(1), key(2)}, ignore);
  sessions[4]->subscribe({key(0), key(5)}, ignore);
  sessions[5]->subscribe({key(0), key(5)}, ignore);
  cluster.run_for(1500 * kMillisecond);

  // The writers: three client caches and a group member, round robin, one
  // increment every 50 ms on a key picked by a fixed pattern.
  const std::vector<Session*> writers{&s0, &s1, &s2, sessions[4].get()};
  int round = 0;
  const auto work = [&](SimTime duration) {
    const SimTime until = cluster.now() + duration;
    while (cluster.now() < until) {
      Session& writer = *writers[round % writers.size()];
      Session::Txn txn = writer.begin();
      writer.increment(txn, key((round * 7) % 6), round % 5 + 1);
      (void)writer.commit(std::move(txn));
      ++round;
      cluster.run_for(50 * kMillisecond);
    }
  };
  work(1 * kSecond);

  // An ACL write, which every session is pushed. Each writer gets a write
  // grant on the bucket; e3's user gets none, for the masked write below.
  {
    Session::Txn txn = s0.begin();
    s0.grant(txn, {"_sys", 1, security::Permission::kOwn});
    for (const UserId user : {1, 2, 3, 5, 6}) {
      s0.grant(txn, {"app", user, security::Permission::kWrite});
    }
    ASSERT_TRUE(s0.commit(std::move(txn)).ok());
  }
  work(1 * kSecond);

  // A link flap shorter than a gossip tick.
  cluster.set_uplink(e0.id(), 0, false);
  work(40 * kMillisecond);
  cluster.set_uplink(e0.id(), 0, true);
  work(500 * kMillisecond);

  // A subscribe and a fetch while the uplink is down.
  cluster.set_uplink(e1.id(), 1, false);
  s1.subscribe({key(5)}, ignore);
  cluster.set_uplink(e0.id(), 0, false);
  {
    Session::Txn txn = s0.begin();
    s0.read_counter(txn, key(4), [](Result<std::int64_t>, ReadSource) {});
  }
  work(300 * kMillisecond);
  cluster.set_uplink(e1.id(), 1, true);
  cluster.set_uplink(e0.id(), 0, true);
  work(1 * kSecond);

  // An ack stall: three frames in ten are damaged for a moment, so pushes
  // are lost without any link or node going down, and the receivers
  // withhold acks until their DC resyncs them.
  net.set_corrupt_rate(0.3);
  work(200 * kMillisecond);
  net.set_corrupt_rate(0.0);
  work(1500 * kMillisecond);

  // A DC crash-restart: its sessions rewind to their acknowledged prefix.
  cluster.crash_node(dc2);
  work(400 * kMillisecond);
  cluster.restart_node(dc2);
  work(1 * kSecond);

  // A migration whose possessed cut is ahead of the new DC's frontier. Let
  // everything settle, then commit at DC 1 and cut DC 0 off the mesh right
  // after: DC 0 still receives the transaction in flight, but no gossip
  // proving it K-stable, while DC 2 pushes it to e2. e2 then moves to DC 0.
  const auto settled = [&] {
    const VersionVector& v = cluster.dc(0).state_vector();
    return v == cluster.dc(1).state_vector() &&
           v == cluster.dc(2).state_vector() &&
           e0.unacked_count() + e1.unacked_count() + e2.unacked_count() == 0;
  };
  for (int i = 0; i < 100 && !settled(); ++i) {
    cluster.run_for(100 * kMillisecond);
  }
  ASSERT_TRUE(settled());
  {
    const std::uint64_t before = cluster.dc(1).committed();
    Session::Txn txn = s1.begin();
    s1.increment(txn, key(0), 100);
    ASSERT_TRUE(s1.commit(std::move(txn)).ok());
    for (int i = 0; i < 500 && cluster.dc(1).committed() == before; ++i) {
      cluster.run_for(1 * kMillisecond);
    }
    ASSERT_GT(cluster.dc(1).committed(), before);
  }
  net.set_link_up(dc0, dc1, false);
  net.set_link_up(dc0, dc2, false);
  cluster.run_for(400 * kMillisecond);
  bool migrated = false;
  e2.migrate_to_dc(dc0, [&](Result<void> r) { migrated = r.ok(); });
  cluster.run_for(400 * kMillisecond);
  EXPECT_TRUE(migrated);
  net.set_link_up(dc0, dc1, true);
  net.set_link_up(dc0, dc2, true);
  work(1 * kSecond);

  // An unsubscribe: e3 reads two more keys, evicting two of its three.
  for (const int k : {3, 4}) {
    Session::Txn txn = s3.begin();
    s3.read_counter(txn, key(k), [](Result<std::int64_t>, ReadSource) {});
    work(300 * kMillisecond);
  }
  work(1 * kSecond);

  // A write the policy masks: no session is pushed it, nor (transitively)
  // anything committed on top of it.
  {
    Session::Txn txn = s3.begin();
    s3.increment(txn, key(0), 10);
    (void)s3.commit(std::move(txn));
  }
  work(500 * kMillisecond);
  EXPECT_TRUE(cluster.quiesce(30 * kSecond));

  // The scripted cases happened.
  const WireStats& wire = net.wire_stats();
  EXPECT_GT(wire.for_kind(proto::kUnsubscribe).frames, 0u);
  EXPECT_GT(net.corruptions_detected(), 0u);
  EXPECT_FALSE(cluster.dc(0).engine().masked_set().empty());

  Digest all;
  for (const auto& stream : streams) all.add(stream->value());
  for (const auto& [kind, counter] : wire.per_kind()) {
    all.add(kind);
    all.add(counter.frames);
    all.add(counter.bytes);
  }
  std::vector<NodeId> ends = cluster.edge_node_ids();
  ends.push_back(parent.id());
  for (const NodeId dc : {dc0, dc1, dc2}) {
    for (const NodeId end : ends) {
      for (const auto& c : {wire.for_link(dc, end), wire.for_link(end, dc)}) {
        all.add(c.frames);
        all.add(c.bytes);
      }
    }
  }
  for (const storage::DurableNode* node : cluster.durable_nodes()) {
    const storage::Wal* disk = cluster.disk(node->id());
    ASSERT_NE(disk, nullptr);
    all.add(disk->record_count());
    all.add(sim::frame::crc32c(disk->raw_log()));
    all.add(sim::frame::crc32c(disk->raw_checkpoints()));
  }
  EXPECT_EQ(all.value(), 3710206932643161547ull);
}

}  // namespace
}  // namespace colony
