// Edge WAL coverage: drive one client-cache edge through every durable
// record kind it can write, and after each step prove that
//   * an offline replica rebuilt from a copy of its disk matches the live
//     node (EdgeNode::verify_recovery), and
//   * a crash followed by recover() restores the same durable projection.
//
// The chaos sweeps reach most record kinds only by chance and never reach
// kEdgeInvalidate or kEdgeSessionKey; this test reaches all eleven on
// purpose and checks the WAL actually carried each of them.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "dc/messages.hpp"

namespace colony {
namespace {

// The edge WAL record kinds (EdgeNode::EdgeWalRecord); the numbers are the
// on-disk layout.
enum : std::uint32_t {
  kCommit = 1,
  kAck = 2,
  kPush = 3,
  kSeed = 4,
  kSubscribe = 5,
  kFetch = 6,
  kDot = 7,
  kHlc = 8,
  kMigrate = 9,
  kInvalidate = 10,
  kSessionKey = 11,
};

const ObjectKey kX{"app", "x"};  // subscribed
const ObjectKey kY{"app", "y"};  // fetched from the DC (exists there)
const ObjectKey kZ{"app", "z"};  // never created anywhere
const ObjectKey kR{"app", "r"};  // LWW register (its ops tick the HLC)
const ObjectKey kW{"app", "w"};  // never of interest to the edge

std::int64_t cached_value(const EdgeNode& node, const ObjectKey& key) {
  const auto* c = dynamic_cast<const PnCounter*>(node.cached(key));
  return c == nullptr ? 0 : c->value();
}

struct EdgeWalFixture {
  EdgeWalFixture() {
    ClusterConfig cfg;
    cfg.num_dcs = 2;
    cfg.edge_uplink = sim::LatencyModel{20 * kMillisecond, 0};
    cluster = std::make_unique<Cluster>(cfg);
    writer = &cluster->add_edge(ClientMode::kCloudOnly, 0, 1);
    edge = &cluster->add_edge(ClientMode::kClientCache, 0, 2);
    session = std::make_unique<Session>(*edge);
    disk = cluster->disk(edge->id());
  }

  /// Advance simulated time in 1 ms slices, noting the kind of every record
  /// in the WAL tail between slices (checkpoints every 400 ms truncate it).
  void advance(SimTime duration) {
    const SimTime end = cluster->now() + duration;
    while (cluster->now() < end) {
      cluster->run_for(1 * kMillisecond);
      for (const storage::WalRecord& r : disk->recover().tail) {
        logged.insert(r.type);
      }
    }
  }

  /// Advance until `done` holds (at most 5 simulated seconds), then settle.
  void advance_until(const std::function<bool()>& done) {
    for (int i = 0; i < 5000 && !done(); ++i) advance(1 * kMillisecond);
    ASSERT_TRUE(done()) << "step never completed";
    advance(1 * kSecond);
  }

  void increment_at_dc(const ObjectKey& key, std::int64_t delta) {
    writer->cloud_execute(
        {},
        {OpRecord{key, CrdtType::kPnCounter, PnCounter::prepare_add(delta)}},
        [](Result<proto::DcExecuteResp> r) { ASSERT_TRUE(r.ok()); });
  }

  /// The live node recovers in place, and a crash-restart rebuilds exactly
  /// the durable state it had.
  void expect_recovers(const std::string& step) {
    std::string why;
    ASSERT_TRUE(edge->verify_recovery(&why)) << step << ": " << why;
    const Bytes before = edge->durable_bytes();
    cluster->crash_node(edge->id());
    cluster->restart_node(edge->id());
    ASSERT_FALSE(edge->crashed());
    EXPECT_EQ(edge->durable_bytes(), before)
        << step << ": crash + recover changed the durable projection";
    ASSERT_TRUE(edge->verify_recovery(&why)) << step << ": " << why;
    advance(1 * kSecond);  // the DC resyncs the session channel
  }

  std::unique_ptr<Cluster> cluster;
  EdgeNode* writer = nullptr;
  EdgeNode* edge = nullptr;
  std::unique_ptr<Session> session;
  storage::Wal* disk = nullptr;
  std::set<std::uint32_t> logged;
};

TEST(EdgeWal, EveryRecordKindRecovers) {
  EdgeWalFixture fx;
  fx.advance(500 * kMillisecond);

  bool opened = false;
  fx.edge->open_session({"app"}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    opened = true;
  });
  fx.advance_until([&] { return opened; });
  ASSERT_TRUE(fx.edge->session_key("app").has_value());
  fx.expect_recovers("open_session");

  fx.increment_at_dc(kX, 5);
  fx.increment_at_dc(kY, 7);
  fx.advance(1 * kSecond);

  bool subscribed = false;
  fx.session->subscribe({kX}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    subscribed = true;
  });
  fx.advance_until([&] { return subscribed; });
  EXPECT_EQ(cached_value(*fx.edge, kX), 5);
  fx.expect_recovers("subscribe");

  // A DC fetch that finds the object.
  Session::Txn hit = fx.session->begin();
  std::optional<std::int64_t> y;
  fx.session->read_counter(hit, kY, [&](Result<std::int64_t> r, ReadSource s) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(s, ReadSource::kDc);
    y = r.value();
  });
  fx.advance_until([&] { return y.has_value(); });
  EXPECT_EQ(*y, 7);
  fx.expect_recovers("fetch (found)");

  // A DC fetch of an object nobody created: the edge starts it empty.
  Session::Txn miss = fx.session->begin();
  std::optional<std::int64_t> z;
  fx.session->read_counter(miss, kZ,
                           [&](Result<std::int64_t> r, ReadSource s) {
                             ASSERT_TRUE(r.ok());
                             EXPECT_EQ(s, ReadSource::kDc);
                             z = r.value();
                           });
  fx.advance_until([&] { return z.has_value(); });
  EXPECT_EQ(*z, 0);
  EXPECT_TRUE(fx.edge->is_cached(kZ));
  fx.expect_recovers("fetch (created empty)");

  // Local commits (dot and HLC records), then the DC's acknowledgement.
  Session::Txn txn = fx.session->begin();
  fx.session->increment(txn, kX, 2);
  fx.session->assign(txn, kR, "hello");
  ASSERT_TRUE(fx.session->commit(std::move(txn)).ok());
  EXPECT_EQ(fx.edge->unacked_count(), 1U);
  fx.advance_until([&] { return fx.edge->unacked_count() == 0; });
  fx.expect_recovers("commit + ack");

  // A push of an interesting transaction, carrying the session cut.
  fx.increment_at_dc(kX, 10);
  fx.advance_until([&] { return cached_value(*fx.edge, kX) == 17; });
  fx.expect_recovers("push with cut");

  // An uninteresting commit moves the cut without a push: the gossip tick
  // announces it alone.
  const VersionVector cut_before = fx.edge->engine().seeded_cut();
  fx.increment_at_dc(kW, 1);
  fx.advance_until(
      [&] { return !(fx.edge->engine().seeded_cut() == cut_before); });
  fx.expect_recovers("bare cut seed");

  bool migrated = false;
  fx.edge->migrate_to_dc(fx.cluster->dc_node_id(1), [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    migrated = true;
  });
  fx.advance_until([&] { return migrated; });
  EXPECT_EQ(fx.edge->connected_dc(), fx.cluster->dc_node_id(1));
  fx.expect_recovers("migrate_to_dc");

  fx.edge->invalidate_cache();
  EXPECT_FALSE(fx.edge->is_cached(kX));
  fx.advance(1 * kMillisecond);
  fx.expect_recovers("invalidate_cache");

  for (std::uint32_t kind = kCommit; kind <= kSessionKey; ++kind) {
    EXPECT_TRUE(fx.logged.contains(kind))
        << "edge WAL record kind " << kind << " was never written";
  }
}

}  // namespace
}  // namespace colony
