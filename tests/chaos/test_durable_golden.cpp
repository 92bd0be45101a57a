// The checkpoint layouts, byte for byte. A checkpoint is what a node comes
// back from after a crash, and an older build's checkpoint must keep
// decoding, so a change to any of these layouts (field order, widths,
// prefixes, sort order) must be deliberate. The component layouts are
// spelled out field by field with the little-endian helpers below, which
// do not use the codec under test; whole DC and edge checkpoints are too
// long for that and are pinned by size and CRC-32C after a scripted
// two-DC run.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>

#include "clock/dot_tracker.hpp"
#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "core/txn.hpp"
#include "core/visibility.hpp"
#include "crdt/counter.hpp"
#include "crdt/rga.hpp"
#include "sim/frame.hpp"
#include "storage/journal_store.hpp"

namespace colony {
namespace {

Bytes le(std::uint64_t v, int width) {
  Bytes out;
  for (int i = 0; i < width; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}
Bytes u8(std::uint64_t v) { return le(v, 1); }
Bytes u32(std::uint64_t v) { return le(v, 4); }
Bytes u64(std::uint64_t v) { return le(v, 8); }
Bytes i64(std::int64_t v) { return le(static_cast<std::uint64_t>(v), 8); }

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}
/// u32 length prefix, then the raw bytes.
Bytes blob(const Bytes& b) { return cat({u32(b.size()), b}); }
Bytes str(const std::string& s) { return blob(Bytes(s.begin(), s.end())); }
Bytes key(const std::string& bucket, const std::string& name) {
  return cat({str(bucket), str(name)});
}
Bytes dot(std::uint64_t origin, std::uint64_t counter) {
  return cat({u64(origin), u64(counter)});
}
Bytes arb(std::uint64_t ts, std::uint64_t origin, std::uint64_t counter) {
  return cat({u64(ts), dot(origin, counter)});
}
/// A version vector: u32 width, then one u64 per DC.
Bytes vv(std::initializer_list<std::uint64_t> entries) {
  Bytes out = u32(entries.size());
  for (const std::uint64_t e : entries) {
    const Bytes b = u64(e);
    out.insert(out.end(), b.begin(), b.end());
  }
  return out;
}

Bytes encoded(const auto& value) {
  Encoder enc;
  value.encode(enc);
  return enc.take();
}

OpRecord counter_op(const ObjectKey& k, std::int64_t delta) {
  return OpRecord{k, CrdtType::kPnCounter, PnCounter::prepare_add(delta)};
}

Transaction concrete_txn(Dot d, UserId user, VersionVector snapshot, DcId dc,
                         Timestamp ts, OpRecord op) {
  Transaction t;
  t.meta.dot = d;
  t.meta.origin = d.origin;
  t.meta.user = user;
  t.meta.snapshot = std::move(snapshot);
  t.meta.mark_accepted(dc, ts);
  t.ops.push_back(std::move(op));
  return t;
}

const ObjectKey kCounter{"b", "c"};
const ObjectKey kOther{"b", "d"};
const ObjectKey kSeq{"b", "r"};

TEST(DurableGolden, CheckpointBytes) {
  // --- DotTracker: per origin in origin order, the contiguous prefix, then
  // the counters beyond it ------------------------------------------------
  DotTracker tracker;
  for (const Dot d : {Dot{3, 2}, Dot{1, 1}, Dot{1, 7}, Dot{1, 2}, Dot{1, 5}}) {
    EXPECT_TRUE(tracker.record(d));
  }
  const Bytes tracker_bytes = cat({u32(2),                                //
                                   u64(1), u64(2), u32(2), u64(5), u64(7),  //
                                   u64(3), u64(0), u32(1), u64(2)});
  EXPECT_EQ(encoded(tracker), tracker_bytes);
  DotTracker tracker_back;
  Decoder tracker_dec(tracker_bytes);
  tracker_back.decode(tracker_dec);
  EXPECT_TRUE(tracker_dec.ok() && tracker_dec.done());
  EXPECT_EQ(encoded(tracker_back), tracker_bytes);
  EXPECT_TRUE(tracker_back.contains(Dot{1, 5}));
  EXPECT_FALSE(tracker_back.contains(Dot{1, 6}));

  // --- TxnStore: u32 count, then each transaction in dot order -----------
  TxnStore txns;
  Transaction symbolic;
  symbolic.meta.dot = Dot{7, 2};
  symbolic.meta.origin = 7;
  symbolic.meta.user = 5;
  symbolic.meta.snapshot = VersionVector{3, 0};
  symbolic.meta.pending_deps = {Dot{7, 1}};
  symbolic.ops.push_back(counter_op(kCounter, 2));
  txns.add(symbolic);
  txns.add(concrete_txn(Dot{2, 4}, 6, VersionVector{1, 1}, 1, 12,
                        counter_op(kCounter, -1)));
  const Bytes txns_bytes = cat({
      u32(2),
      // (2,4): concrete, accepted by DC 1 at 12
      dot(2, 4), u64(2), u64(6), vv({1, 1}), u32(0), u8(1), vv({0, 12}),
      u32(2), u32(1), key("b", "c"), u8(2), blob(i64(-1)),
      // (7,2): symbolic, one pending dep, empty commit vector
      dot(7, 2), u64(7), u64(5), vv({3, 0}), u32(1), dot(7, 1), u8(0), vv({}),
      u32(0), u32(1), key("b", "c"), u8(2), blob(i64(2))});
  EXPECT_EQ(encoded(txns), txns_bytes);
  TxnStore txns_back;
  Decoder txns_dec(txns_bytes);
  txns_back.decode(txns_dec);
  EXPECT_TRUE(txns_dec.ok() && txns_dec.done());
  EXPECT_EQ(encoded(txns_back), txns_bytes);
  ASSERT_NE(txns_back.find(Dot{7, 2}), nullptr);
  EXPECT_EQ(*txns_back.find(Dot{7, 2}), symbolic);

  // --- JournalStore: per object in key order: key, type, base snapshot,
  // baked dots, journal (dot, payload), current snapshot ------------------
  JournalStore store;
  store.apply(kCounter, CrdtType::kPnCounter, Dot{1, 1},
              PnCounter::prepare_add(2));
  store.apply(kCounter, CrdtType::kPnCounter, Dot{1, 2},
              PnCounter::prepare_add(3));
  store.apply(kCounter, CrdtType::kPnCounter, Dot{2, 1},
              PnCounter::prepare_add(4), /*masked=*/true);
  store.advance_base(kCounter, [](const Dot& d) { return d.origin == 1; });
  const Bytes insert_a = cat({u8(1), dot(0, 0), str("A"), arb(1, 1, 3)});
  const Bytes insert_b = cat({u8(1), dot(1, 3), str("B"), arb(2, 1, 4)});
  store.apply(kSeq, CrdtType::kRga, Dot{1, 3}, insert_a);
  store.apply(kSeq, CrdtType::kRga, Dot{1, 4}, insert_b);
  const Bytes empty_rga = cat({u32(0), u32(0), u32(0)});
  const Bytes store_bytes = cat({
      u32(2),
      // b/c: base 2+3 with both dots baked, the masked +4 still journalled
      key("b", "c"), u8(2), blob(cat({i64(5), i64(0)})),
      u32(2), dot(1, 1), dot(1, 2),
      u32(1), dot(2, 1), blob(i64(4)),
      blob(cat({i64(5), i64(0)})),
      // b/r: empty base, two journalled inserts, "A" then "B"
      key("b", "r"), u8(9), blob(empty_rga), u32(0),
      u32(2), dot(1, 3), blob(insert_a), dot(1, 4), blob(insert_b),
      blob(cat({u32(2),                                              //
                dot(0, 0), dot(1, 3), str("A"), arb(1, 1, 3), u8(0),  //
                dot(1, 3), dot(1, 4), str("B"), arb(2, 1, 4), u8(0),  //
                u32(0), u32(0)}))});
  EXPECT_EQ(encoded(store), store_bytes);
  JournalStore store_back;
  Decoder store_dec(store_bytes);
  store_back.decode(store_dec);
  EXPECT_TRUE(store_dec.ok() && store_dec.done());
  EXPECT_EQ(encoded(store_back), store_bytes);
  // The baked-dot index is rebuilt: a re-delivered baked op is dropped.
  store_back.apply(kCounter, CrdtType::kPnCounter, Dot{1, 1},
                   PnCounter::prepare_add(2));
  EXPECT_EQ(store_back.journal_length(kCounter), 1u);

  // --- VisibilityEngine: state vector, seeded cut, applied commit slots,
  // log, then the masked and pending sets in dot order -------------------
  TxnStore etxns;
  JournalStore estore;
  VisibilityEngine engine(etxns, estore, 2);
  engine.set_sequential_components(true);
  engine.set_security_check(
      [](const Transaction& t) { return t.meta.user != 9; });
  engine.seed_state(VersionVector{0, 0});
  engine.ingest(concrete_txn(Dot{10, 1}, 1, VersionVector{0, 0}, 0, 1,
                             counter_op(kCounter, 1)));
  engine.ingest(concrete_txn(Dot{11, 1}, 9, VersionVector{0, 0}, 0, 2,
                             counter_op(kCounter, 2)));
  // Commit slot 3 of DC 0 is missing: slot 4 applies but stays beyond
  // the contiguous prefix.
  engine.ingest(concrete_txn(Dot{12, 1}, 1, VersionVector{0, 0}, 0, 4,
                             counter_op(kOther, 3)));
  // Reads DC 1 at 5, which this replica has not reached.
  engine.ingest(concrete_txn(Dot{13, 1}, 1, VersionVector{0, 5}, 0, 5,
                             counter_op(kOther, 4)));
  EXPECT_TRUE(engine.is_masked(Dot{11, 1}));
  EXPECT_EQ(engine.pending_count(), 1u);
  const Bytes engine_bytes = cat({
      vv({2, 0}), vv({0, 0}),
      // applied slots: DC 0 contiguous through 2, slot 4 beyond
      u32(1), u64(0), u64(2), u32(1), u64(4),
      // log, masked, pending
      u32(3), dot(10, 1), dot(11, 1), dot(12, 1),
      u32(1), dot(11, 1),
      u32(1), dot(13, 1)});
  Encoder engine_enc;
  engine.encode_state(engine_enc);
  EXPECT_EQ(engine_enc.data(), engine_bytes);
  VisibilityEngine engine_back(etxns, estore, 2);
  engine_back.set_sequential_components(true);
  Decoder engine_dec(engine_bytes);
  engine_back.decode_state(engine_dec);
  EXPECT_TRUE(engine_dec.ok() && engine_dec.done());
  Encoder engine_back_enc;
  engine_back.encode_state(engine_back_enc);
  EXPECT_EQ(engine_back_enc.data(), engine_bytes);
  EXPECT_TRUE(engine_back.is_applied(Dot{12, 1}));
  EXPECT_TRUE(engine_back.is_masked(Dot{11, 1}));
  EXPECT_EQ(engine_back.pending_count(), 1u);
}

/// The newest checkpoint on `node`'s disk.
Bytes newest_checkpoint(Cluster& cluster, NodeId node) {
  const storage::Wal* disk = cluster.disk(node);
  EXPECT_NE(disk, nullptr);
  if (disk == nullptr) return {};
  const std::optional<Bytes> checkpoint = disk->recover().checkpoint;
  EXPECT_TRUE(checkpoint.has_value());
  return checkpoint.value_or(Bytes{});
}

TEST(DurableGolden, NodeCheckpointSizeAndCrc) {
  ClusterConfig cfg;
  cfg.num_dcs = 2;
  Cluster cluster(cfg);
  EdgeNode& edge = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  EdgeNode& peer = cluster.add_edge(ClientMode::kClientCache, 1, 2);
  Session session(edge);
  Session peer_session(peer);
  const ObjectKey counter{"app", "counter"};
  const ObjectKey reg{"app", "reg"};
  const ObjectKey seq{"app", "seq"};
  int subscribed = 0;
  for (Session* s : {&session, &peer_session}) {
    s->subscribe({counter, reg, seq}, [&](Result<void> r) {
      ASSERT_TRUE(r.ok());
      ++subscribed;
    });
  }
  cluster.run_for(1 * kSecond);
  ASSERT_EQ(subscribed, 2);

  // Both edges write every 50 ms: counter increments at both, register
  // assignments and sequence appends at the first, so each checkpoint holds
  // own and foreign commits, journals, baked bases and an RGA.
  for (int i = 0; i < 40; ++i) {
    Session::Txn txn = session.begin();
    session.increment(txn, counter, i + 1);
    session.assign(txn, reg, "v" + std::to_string(i));
    session.append(txn, seq, "m" + std::to_string(i));
    ASSERT_TRUE(session.commit(std::move(txn)).ok());
    Session::Txn peer_txn = peer_session.begin();
    peer_session.increment(peer_txn, counter, -1);
    ASSERT_TRUE(peer_session.commit(std::move(peer_txn)).ok());
    cluster.run_for(50 * kMillisecond);
  }
  // Stop mid-stream: some commits are still unacked, some pushes in flight.
  Session::Txn txn = session.begin();
  session.increment(txn, counter, 100);
  ASSERT_TRUE(session.commit(std::move(txn)).ok());
  cluster.run_for(430 * kMillisecond);

  const Bytes dc_checkpoint = newest_checkpoint(cluster, cluster.dc(0).id());
  const Bytes edge_checkpoint = newest_checkpoint(cluster, edge.id());
  // The layout words: DC layout 3, edge layout 2.
  ASSERT_GE(dc_checkpoint.size(), 4u);
  ASSERT_GE(edge_checkpoint.size(), 4u);
  EXPECT_EQ(Bytes(dc_checkpoint.begin(), dc_checkpoint.begin() + 4), u32(3));
  EXPECT_EQ(Bytes(edge_checkpoint.begin(), edge_checkpoint.begin() + 4),
            u32(2));
  EXPECT_EQ(dc_checkpoint.size(), 12980u);
  EXPECT_EQ(sim::frame::crc32c(dc_checkpoint), 1500825400u);
  EXPECT_EQ(edge_checkpoint.size(), 22293u);
  EXPECT_EQ(sim::frame::crc32c(edge_checkpoint), 3360093671u);
}

}  // namespace
}  // namespace colony
