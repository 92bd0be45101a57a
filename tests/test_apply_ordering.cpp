// Apply-ordering contract of the inline apply path: the state a JournalStore
// reaches depends only on each object's own op order (ops on distinct objects
// commute), reads see every apply at once and change nothing, masked ops are
// journalled but not folded, baked dots are dropped on arrival, and a
// visibility-engine backlog drains to exactly the state of in-order
// delivery.
//
// The suite name dates from the retired threaded apply pool, which relied
// on the same per-object contract to partition work by key.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "core/visibility.hpp"
#include "crdt/counter.hpp"
#include "crdt/or_set.hpp"
#include "storage/journal_store.hpp"
#include "support/reference_drain.hpp"

namespace colony {
namespace {

ObjectKey key_n(std::size_t i) {
  return ObjectKey{"pool", "k" + std::to_string(i)};
}

Bytes store_bytes(const JournalStore& store) {
  Encoder enc;
  store.encode(enc);
  return enc.take();
}

struct StoreOp {
  ObjectKey key;
  CrdtType type;
  Dot dot;
  Bytes payload;
  bool masked;
};

/// A mixed-type op stream over `keys` objects, every fifth op masked.
std::vector<StoreOp> mixed_ops(std::size_t ops, std::size_t keys) {
  std::vector<StoreOp> out;
  out.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    const Dot dot{7, static_cast<std::uint64_t>(i + 1)};
    const bool counter = i % 2 == 0;
    out.push_back(StoreOp{
        key_n(i % keys), counter ? CrdtType::kPnCounter : CrdtType::kOrSet,
        dot,
        counter ? PnCounter::prepare_add(static_cast<std::int64_t>(i % 9))
                : OrSet::prepare_add("elem-" + std::to_string(i), dot),
        i % 5 == 0});
  }
  return out;
}

void feed(JournalStore& store, const std::vector<StoreOp>& ops) {
  for (const StoreOp& op : ops) {
    store.apply(op.key, op.type, op.dot, op.payload, op.masked);
  }
}

TEST(ApplyPool, PooledStoreMatchesInlineBytes) {
  // Regrouping the stream by object — ascending or descending key order,
  // each object's own ops still in submission order — must not change a
  // byte: cross-object order is invisible.
  const std::vector<StoreOp> ops = mixed_ops(500, 16);
  JournalStore interleaved;
  feed(interleaved, ops);

  for (const bool descending : {false, true}) {
    std::vector<StoreOp> grouped = ops;
    std::stable_sort(grouped.begin(), grouped.end(),
                     [descending](const StoreOp& a, const StoreOp& b) {
                       return descending ? b.key < a.key : a.key < b.key;
                     });
    JournalStore regrouped;
    feed(regrouped, grouped);
    EXPECT_EQ(store_bytes(interleaved), store_bytes(regrouped))
        << (descending ? "descending" : "ascending") << " key grouping";
  }
}

TEST(ApplyPool, SameKeyOpsStaySequenced) {
  // Every op hits one key and removes interleave with adds, so the folded
  // OR-Set depends on order: it must equal a sequential fold of the same
  // stream, with the whole stream journalled.
  JournalStore store;
  OrSet mirror;
  for (std::size_t i = 0; i < 200; ++i) {
    const Dot dot{3, static_cast<std::uint64_t>(i + 1)};
    const std::string elem = "x" + std::to_string(i % 7);
    const Bytes op = i % 3 == 2 ? mirror.prepare_remove(elem)
                                : OrSet::prepare_add(elem, dot);
    mirror.apply(op);
    store.apply(key_n(0), CrdtType::kOrSet, dot, op);
  }
  const auto* folded = dynamic_cast<const OrSet*>(store.current(key_n(0)));
  ASSERT_NE(folded, nullptr);
  EXPECT_EQ(folded->snapshot(), mirror.snapshot());
  EXPECT_LT(folded->size(), 7u);  // some removes took effect
  EXPECT_EQ(store.journal_length(key_n(0)), 200u);
}

TEST(ApplyPool, ReadersFlushDefensively) {
  // No barrier stands between an apply and a read: the touched key reads
  // back its folded value at once, and reads of any key change nothing.
  JournalStore store;
  store.apply(key_n(1), CrdtType::kPnCounter, Dot{1, 1},
              PnCounter::prepare_add(5));
  const Bytes before = store_bytes(store);

  EXPECT_EQ(store.current(key_n(2)), nullptr);
  EXPECT_FALSE(store.has(key_n(2)));
  const auto* counter =
      dynamic_cast<const PnCounter*>(store.current(key_n(1)));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 5);
  EXPECT_EQ(store_bytes(store), before);
}

TEST(ApplyPool, MaskedPooledAppliesJournalOnly) {
  // A masked apply is journalled, not folded — and stays hidden across an
  // encode/decode round trip of the store.
  JournalStore store;
  store.apply(key_n(0), CrdtType::kPnCounter, Dot{1, 1},
              PnCounter::prepare_add(9), /*masked=*/true);
  EXPECT_EQ(store.journal_length(key_n(0)), 1u);

  JournalStore restored;
  const Bytes bytes = store_bytes(store);
  Decoder dec(bytes);
  restored.decode(dec);
  ASSERT_TRUE(dec.ok() && dec.done());
  for (const JournalStore* s : {&store, &restored}) {
    const auto* counter = dynamic_cast<const PnCounter*>(s->current(key_n(0)));
    ASSERT_NE(counter, nullptr);
    EXPECT_EQ(counter->value(), 0);  // masked: journalled, not folded
    EXPECT_EQ(s->journal_length(key_n(0)), 1u);
  }
}

TEST(ApplyPool, BakedDotsSkippedBeforeHandoff) {
  // A re-delivered op whose dot is baked into an imported snapshot is
  // dropped on arrival: the store's bytes do not change at all.
  JournalStore store;
  ObjectSnapshot snap;
  snap.key = key_n(0);
  snap.type = CrdtType::kPnCounter;
  PnCounter seeded;
  seeded.apply(PnCounter::prepare_add(4));
  snap.state = seeded.snapshot();
  snap.applied = {Dot{1, 1}};
  store.import_snapshot(snap);
  const Bytes before = store_bytes(store);

  store.apply(key_n(0), CrdtType::kPnCounter, Dot{1, 1},
              PnCounter::prepare_add(4));  // duplicate of a baked dot
  EXPECT_EQ(store_bytes(store), before);
  EXPECT_EQ(store.journal_length(key_n(0)), 0u);
  const auto* counter =
      dynamic_cast<const PnCounter*>(store.current(key_n(0)));
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->value(), 4);
}

/// The engine-level contract: a backlog delivered newest-first parks in the
/// visibility engine and drains, once its root arrives, to exactly the
/// state of in-order delivery — store bytes, engine state, and
/// visibility-log order — with the reference drain agreeing.
TEST(ApplyPool, EngineBacklogDrainEquivalence) {
  const auto run = [](bool reversed) {
    TxnStore txns;
    JournalStore store;
    VisibilityEngine engine(txns, store, 3);
    ReferenceDrain reference(engine);
    engine.set_security_check([](const Transaction& txn) {
      return txn.meta.dot.counter % 7 != 0;  // periodic mask
    });
    std::vector<Transaction> backlog;
    for (Timestamp ts = 1; ts <= 400; ++ts) {
      Transaction txn;
      txn.meta.dot = Dot{100, ts};
      txn.meta.origin = 100;
      txn.meta.snapshot = VersionVector(3);
      txn.meta.snapshot.set(0, ts - 1);
      txn.meta.mark_accepted(0, ts);
      for (int op = 0; op < 4; ++op) {
        txn.ops.push_back(OpRecord{
            key_n((ts + static_cast<Timestamp>(op)) % 24), CrdtType::kOrSet,
            OrSet::prepare_add("m" + std::to_string(ts), Dot{100, ts})});
      }
      backlog.push_back(std::move(txn));
    }
    if (reversed) std::reverse(backlog.begin(), backlog.end());
    for (std::size_t i = 0; i < backlog.size(); ++i) {
      engine.ingest(backlog[i]);
      if (reversed && i + 1 < backlog.size()) {
        EXPECT_EQ(engine.pending_count(), i + 1);  // root not yet here
      }
    }
    EXPECT_EQ(engine.pending_count(), 0u);
    std::string why;
    EXPECT_TRUE(reference.matches(&why)) << why;
    Encoder state;
    engine.encode_state(state);
    return std::tuple{store_bytes(store), state.take(),
                      engine.log()};
  };

  const auto in_order = run(false);
  const auto backlogged = run(true);
  EXPECT_EQ(std::get<0>(in_order), std::get<0>(backlogged));
  EXPECT_EQ(std::get<1>(in_order), std::get<1>(backlogged));
  EXPECT_EQ(std::get<2>(in_order), std::get<2>(backlogged));
}

}  // namespace
}  // namespace colony
