// DC WAL coverage: drive DC 0 of a two-DC cluster through every durable
// record kind it can write, and after each step prove that
//   * an offline replica rebuilt from a copy of its disk matches the live
//     node (verify_recovery), both right after each record is appended and
//     once checkpoints have folded the step's records in,
//   * a crash followed by a restart restores the same durable projection,
//     and
//   * the WAL tail, sampled every millisecond, carried the step's record
//     kind.
//
// The DC counterpart of EdgeWal.EveryRecordKindRecovers: the chaos sweeps
// reach the DC record kinds only by chance; this test reaches all six on
// purpose.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "dc/messages.hpp"

namespace colony {
namespace {

// The DC WAL record kinds (DcNode::DcWalRecord); the numbers are the
// on-disk layout.
enum : std::uint32_t {
  kCommit = 1,
  kIngest = 2,
  kGossip = 3,
  kSession = 4,
  kAdvanceBase = 5,
  kDot = 6,
};

const ObjectKey kX{"app", "x"};  // subscribed by the cache edge
const ObjectKey kY{"app", "y"};  // fetched by the cache edge
const ObjectKey kZ{"app", "z"};  // fetched later, evicting an older key
const ObjectKey kW{"app", "w"};  // written at DC 1 only

struct DcWalFixture {
  DcWalFixture() {
    ClusterConfig cfg;
    cfg.num_dcs = 2;
    cfg.edge_uplink = sim::LatencyModel{20 * kMillisecond, 0};
    cluster = std::make_unique<Cluster>(cfg);
    dc = &cluster->dc(0);
    disk = cluster->disk(dc->id());
    writer0 = &cluster->add_edge(ClientMode::kCloudOnly, 0, 1);
    writer1 = &cluster->add_edge(ClientMode::kCloudOnly, 1, 2);
    // Room for two objects: a third fetch evicts one and unsubscribes it.
    cache = &cluster->add_edge(ClientMode::kClientCache, 0, 3,
                               /*cache_capacity=*/2);
    cache_session = std::make_unique<Session>(*cache);
    mover = &cluster->add_edge(ClientMode::kClientCache, 1, 4);
    mover_session = std::make_unique<Session>(*mover);
  }

  /// Advance simulated time in 1 ms slices, noting the kind of every record
  /// in DC 0's WAL tail between slices (checkpoints truncate it). After a
  /// slice that appended records, the live node must match a replica that
  /// replays them from the tail; the first divergence is kept.
  void advance(SimTime duration) {
    const SimTime end = cluster->now() + duration;
    while (cluster->now() < end) {
      const std::uint64_t records = disk->record_count();
      cluster->run_for(1 * kMillisecond);
      for (const storage::WalRecord& r : disk->recover().tail) {
        logged.insert(r.type);
      }
      std::string why;
      if (disk->record_count() != records && divergence.empty() &&
          !dc->verify_recovery(&why)) {
        divergence = why;
      }
    }
  }

  /// Advance until `done` holds (at most 6 simulated seconds), then settle.
  void advance_until(const std::function<bool()>& done) {
    for (int i = 0; i < 6000 && !done(); ++i) advance(1 * kMillisecond);
    ASSERT_TRUE(done()) << "step never completed";
    advance(1 * kSecond);
  }

  void increment_via(EdgeNode& writer, const ObjectKey& key, bool& done) {
    done = false;
    writer.cloud_execute(
        {},
        {OpRecord{key, CrdtType::kPnCounter, PnCounter::prepare_add(1)}},
        [&done](Result<proto::DcExecuteResp> r) {
          ASSERT_TRUE(r.ok());
          done = true;
        });
  }

  /// Read `key` at the cache edge (a DC fetch on a miss).
  void read_at_cache(const ObjectKey& key) {
    Session::Txn txn = cache_session->begin();
    std::optional<std::int64_t> value;
    cache_session->read_counter(txn, key,
                                [&](Result<std::int64_t> r, ReadSource) {
                                  ASSERT_TRUE(r.ok());
                                  value = r.value();
                                });
    advance_until([&] { return value.has_value(); });
  }

  /// The step wrote `kind`; DC 0 recovers in place, and a crash-restart
  /// rebuilds exactly the durable state it had.
  void expect_recovers(const std::string& step, std::uint32_t kind) {
    EXPECT_TRUE(logged.contains(kind))
        << step << ": DC WAL record kind " << kind << " was never written";
    ASSERT_EQ(divergence, "") << step << ": diverged with a record in the tail";
    std::string why;
    ASSERT_TRUE(dc->verify_recovery(&why)) << step << ": " << why;
    const Bytes before = dc->durable_bytes();
    cluster->crash_node(dc->id());
    cluster->restart_node(dc->id());
    ASSERT_FALSE(dc->crashed());
    EXPECT_EQ(dc->durable_bytes(), before)
        << step << ": crash + restart changed the durable projection";
    ASSERT_TRUE(dc->verify_recovery(&why)) << step << ": " << why;
    advance(1 * kSecond);  // sessions resync with the restarted DC
    logged.clear();
  }

  std::unique_ptr<Cluster> cluster;
  DcNode* dc = nullptr;
  storage::Wal* disk = nullptr;
  EdgeNode* writer0 = nullptr;  // cloud-only at DC 0
  EdgeNode* writer1 = nullptr;  // cloud-only at DC 1
  EdgeNode* cache = nullptr;    // client cache at DC 0, two objects
  EdgeNode* mover = nullptr;    // client cache at DC 1, migrates to DC 0
  std::unique_ptr<Session> cache_session;
  std::unique_ptr<Session> mover_session;
  std::set<std::uint32_t> logged;
  std::string divergence;
};

TEST(DcWal, EveryRecordKindRecovers) {
  DcWalFixture fx;
  fx.advance(500 * kMillisecond);
  fx.logged.clear();

  // A cloud-mode execution: a 2PC id and a dot are minted, then the
  // transaction is sequenced here.
  bool executed = false;
  fx.increment_via(*fx.writer0, kX, executed);
  fx.advance_until([&] { return executed; });
  EXPECT_TRUE(fx.logged.contains(kDot));
  fx.expect_recovers("dc_execute", kCommit);

  bool subscribed = false;
  fx.cache_session->subscribe({kX}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    subscribed = true;
  });
  fx.advance_until([&] { return subscribed; });
  fx.expect_recovers("subscribe", kSession);

  // An edge commit, sequenced here when the commit pump delivers it.
  Session::Txn txn = fx.cache_session->begin();
  fx.cache_session->increment(txn, kX, 2);
  ASSERT_TRUE(fx.cache_session->commit(std::move(txn)).ok());
  fx.advance_until([&] { return fx.cache->unacked_count() == 0; });
  fx.expect_recovers("edge commit", kCommit);

  fx.read_at_cache(kY);
  EXPECT_TRUE(fx.cache->is_cached(kY));
  fx.expect_recovers("fetch with subscribe", kSession);

  // The third object evicts one of the first two: the edge unsubscribes.
  fx.read_at_cache(kZ);
  EXPECT_FALSE(fx.cache->is_cached(kX) && fx.cache->is_cached(kY));
  fx.expect_recovers("unsubscribe", kSession);

  bool mover_subscribed = false;
  fx.mover_session->subscribe({kX}, [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    mover_subscribed = true;
  });
  fx.advance_until([&] { return mover_subscribed; });
  fx.logged.clear();
  bool migrated = false;
  fx.mover->migrate_to_dc(fx.dc->id(), [&](Result<void> r) {
    ASSERT_TRUE(r.ok());
    migrated = true;
  });
  fx.advance_until([&] { return migrated; });
  EXPECT_EQ(fx.mover->connected_dc(), fx.dc->id());
  fx.expect_recovers("migrate in", kSession);

  // A commit sequenced at DC 1 reaches DC 0 by geo-replication.
  bool replicated = false;
  fx.increment_via(*fx.writer1, kW, replicated);
  fx.advance_until([&] { return fx.logged.contains(kIngest); });
  EXPECT_TRUE(replicated);
  fx.expect_recovers("ingest", kIngest);

  fx.advance_until([&] { return fx.logged.contains(kGossip); });
  fx.expect_recovers("gossip", kGossip);

  // Bases are baked every 50 gossip ticks (100 ms apart).
  fx.advance_until([&] { return fx.logged.contains(kAdvanceBase); });
  fx.expect_recovers("advance bases", kAdvanceBase);
}

}  // namespace
}  // namespace colony
