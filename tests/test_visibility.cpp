#include "core/visibility.hpp"

#include <gtest/gtest.h>

#include "crdt/counter.hpp"

namespace colony {
namespace {

const ObjectKey kX{"b", "x"};

Transaction txn_at_dc(DcId dc, Timestamp ts, VersionVector snapshot,
                      std::int64_t delta = 1, UserId user = 0) {
  Transaction txn;
  txn.meta.dot = Dot{100 + dc, ts};
  txn.meta.origin = 100 + dc;
  txn.meta.user = user;
  txn.meta.snapshot = std::move(snapshot);
  txn.meta.mark_accepted(dc, ts);
  txn.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(delta)});
  return txn;
}

std::int64_t value_of(const JournalStore& store) {
  const auto* c = dynamic_cast<const PnCounter*>(store.current(kX));
  return c == nullptr ? 0 : c->value();
}

class VisibilityTest : public ::testing::Test {
 protected:
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine{txns, store, 2};
};

TEST_F(VisibilityTest, AppliesConcreteInOrder) {
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}));
  engine.ingest(txn_at_dc(0, 2, VersionVector{1, 0}));
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 0}));
  EXPECT_EQ(value_of(store), 2);
  EXPECT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.pending_count(), 0u);
}

TEST_F(VisibilityTest, BuffersUntilDependencyArrives) {
  // Second txn arrives first: snapshot [1,0] not yet covered.
  engine.ingest(txn_at_dc(0, 2, VersionVector{1, 0}));
  EXPECT_EQ(value_of(store), 0);
  EXPECT_EQ(engine.pending_count(), 1u);
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}));
  EXPECT_EQ(value_of(store), 2);
  EXPECT_EQ(engine.pending_count(), 0u);
  // Log order respects causality.
  EXPECT_EQ(engine.log()[0], (Dot{100, 1}));
  EXPECT_EQ(engine.log()[1], (Dot{100, 2}));
}

TEST_F(VisibilityTest, CrossDcDependency) {
  engine.ingest(txn_at_dc(1, 1, VersionVector{1, 0}));  // needs DC0's first
  EXPECT_EQ(value_of(store), 0);
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}));
  EXPECT_EQ(value_of(store), 2);
  EXPECT_EQ(engine.state_vector(), (VersionVector{1, 1}));
}

TEST_F(VisibilityTest, DuplicateIngestIsIdempotent) {
  const Transaction txn = txn_at_dc(0, 1, VersionVector{0, 0});
  EXPECT_TRUE(engine.ingest(txn));
  EXPECT_FALSE(engine.ingest(txn));
  EXPECT_EQ(value_of(store), 1);
}

TEST_F(VisibilityTest, LocalApplyBeforeResolution) {
  // An edge transaction with a symbolic commit is visible locally
  // (read-my-writes) but does not advance the state vector.
  Transaction txn;
  txn.meta.dot = Dot{7, 1};
  txn.meta.origin = 7;
  txn.meta.snapshot = VersionVector{0, 0};
  txn.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(5)});
  engine.ingest(txn);
  engine.apply_local(txn.meta.dot);
  EXPECT_EQ(value_of(store), 5);
  EXPECT_EQ(engine.state_vector(), (VersionVector{0, 0}));

  engine.resolve(txn.meta.dot, 0, 1);
  EXPECT_EQ(engine.state_vector(), (VersionVector{1, 0}));
  EXPECT_EQ(value_of(store), 5);  // not applied twice
}

TEST_F(VisibilityTest, ResolveFullInstallsSnapshotAndClearsDeps) {
  Transaction t1;
  t1.meta.dot = Dot{7, 1};
  t1.meta.origin = 7;
  t1.meta.snapshot = VersionVector{0, 0};
  t1.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(1)});
  Transaction t2 = t1;
  t2.meta.dot = Dot{7, 2};
  t2.meta.pending_deps.push_back(t1.meta.dot);

  engine.ingest(t1);
  engine.apply_local(t1.meta.dot);
  engine.ingest(t2);
  engine.apply_local(t2.meta.dot);
  EXPECT_EQ(value_of(store), 2);

  engine.resolve_full(t1.meta.dot, 0, 1, VersionVector{0, 0});
  engine.resolve_full(t2.meta.dot, 0, 2, VersionVector{1, 0});
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 0}));
  EXPECT_TRUE(txns.find(t2.meta.dot)->meta.pending_deps.empty());
}

TEST_F(VisibilityTest, ApplyCausalRequiresSnapshotAndDeps) {
  Transaction remote;
  remote.meta.dot = Dot{8, 1};
  remote.meta.origin = 8;
  remote.meta.snapshot = VersionVector{1, 0};  // ahead of our state
  remote.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(3)});
  txns.add(remote);
  EXPECT_FALSE(engine.apply_causal(remote.meta.dot));

  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}));  // covers [1,0]
  EXPECT_TRUE(engine.apply_causal(remote.meta.dot));
  EXPECT_EQ(value_of(store), 4);

  // Same-origin pending dep gates application.
  Transaction dep_txn;
  dep_txn.meta.dot = Dot{9, 1};
  dep_txn.meta.origin = 9;
  dep_txn.meta.snapshot = VersionVector{0, 0};
  dep_txn.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(1)});
  Transaction dependent = dep_txn;
  dependent.meta.dot = Dot{9, 2};
  dependent.meta.pending_deps.push_back(dep_txn.meta.dot);
  txns.add(dep_txn);
  txns.add(dependent);
  EXPECT_FALSE(engine.apply_causal(dependent.meta.dot));
  EXPECT_TRUE(engine.apply_causal(dep_txn.meta.dot));
  EXPECT_TRUE(engine.apply_causal(dependent.meta.dot));
}

TEST_F(VisibilityTest, VisibleHookFires) {
  std::vector<Dot> seen;
  engine.set_visible_hook(
      [&](const Transaction& txn) { seen.push_back(txn.meta.dot); });
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}));
  engine.ingest(txn_at_dc(0, 2, VersionVector{1, 0}));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (Dot{100, 1}));
}

TEST_F(VisibilityTest, SecurityMaskHidesValuesButAdvancesState) {
  engine.set_security_check(
      [](const Transaction& txn) { return txn.meta.user != 666; });
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}, 1, /*user=*/666));
  EXPECT_EQ(value_of(store), 0);  // masked
  EXPECT_EQ(engine.state_vector(), (VersionVector{1, 0}));  // still delivered
  EXPECT_TRUE(engine.is_masked({100, 1}));

  // A later legitimate txn applies above the masked one.
  engine.ingest(txn_at_dc(1, 1, VersionVector{0, 0}, 10, /*user=*/1));
  EXPECT_EQ(value_of(store), 10);
}

TEST_F(VisibilityTest, TransitiveMasking) {
  engine.set_security_check(
      [](const Transaction& txn) { return txn.meta.user != 666; });
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}, 1, /*user=*/666));
  // A txn that causally depends on the masked one is masked too.
  engine.ingest(txn_at_dc(1, 1, VersionVector{1, 0}, 10, /*user=*/1));
  EXPECT_EQ(value_of(store), 0);
  EXPECT_TRUE(engine.is_masked({101, 1}));
}

TEST_F(VisibilityTest, RecomputeMasksAfterPolicyChange) {
  bool block = false;
  engine.set_security_check(
      [&block](const Transaction& txn) {
        return !(block && txn.meta.user == 666);
      });
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}, 7, /*user=*/666));
  EXPECT_EQ(value_of(store), 7);  // allowed at apply time

  block = true;  // policy changes retroactively
  EXPECT_EQ(engine.recompute_masks(), 1u);
  EXPECT_EQ(value_of(store), 0);  // value masked after rebuild

  block = false;  // policy relaxed again
  EXPECT_EQ(engine.recompute_masks(), 1u);
  EXPECT_EQ(value_of(store), 7);
}

TEST_F(VisibilityTest, VisiblePredicateFiltersMasked) {
  engine.set_security_check(
      [](const Transaction& txn) { return txn.meta.user != 666; });
  engine.ingest(txn_at_dc(0, 1, VersionVector{0, 0}, 1, 666));
  engine.ingest(txn_at_dc(1, 1, VersionVector{0, 0}, 2, 1));
  const auto pred = engine.visible_predicate();
  EXPECT_FALSE(pred(Dot{100, 1}));
  EXPECT_TRUE(pred(Dot{101, 1}));
  EXPECT_FALSE(pred(Dot{9, 9}));  // unknown
}


TEST_F(VisibilityTest, CheckpointHoldsEachAppliedDotOnce) {
  // The log is the applied set: the checkpoint writes each applied dot
  // once (16 bytes), and decoding rebuilds the set from the log.
  engine.set_security_check(
      [](const Transaction& txn) { return txn.meta.user != 666; });
  engine.ingest(txn_at_dc(1, 1, VersionVector{0, 0}, 1, /*user=*/666));
  ASSERT_TRUE(engine.is_masked({101, 1}));
  Transaction local;
  local.meta.dot = Dot{7, 1};
  local.meta.origin = 7;
  local.meta.snapshot = VersionVector{0, 0};
  local.ops.push_back(
      OpRecord{kX, CrdtType::kPnCounter, PnCounter::prepare_add(5)});
  engine.ingest(local);
  engine.apply_local(local.meta.dot);
  engine.ingest(txn_at_dc(1, 3, VersionVector{0, 2}));  // stays pending
  ASSERT_EQ(engine.pending_count(), 1u);

  const auto encoded_size = [this] {
    Encoder enc;
    engine.encode_state(enc);
    return enc.data().size();
  };
  constexpr Timestamp kBatch = 8;
  Timestamp ts = 0;
  const auto apply_batch = [&] {
    for (Timestamp i = 0; i < kBatch; ++i, ++ts) {
      engine.ingest(txn_at_dc(0, ts + 1, VersionVector{ts, 0}));
    }
  };
  apply_batch();
  const std::size_t before = encoded_size();
  apply_batch();
  ASSERT_EQ(engine.log().size(), 2 + 2 * kBatch);
  EXPECT_EQ(encoded_size() - before, kBatch * 16);

  Encoder enc;
  engine.encode_state(enc);
  JournalStore other_store;
  VisibilityEngine restored{txns, other_store, 2};
  Decoder dec(enc.data());
  restored.decode_state(dec);
  ASSERT_TRUE(dec.ok() && dec.done());
  EXPECT_EQ(restored.log(), engine.log());
  EXPECT_EQ(restored.applied_set(), std::unordered_set<Dot>(
                                        engine.log().begin(),
                                        engine.log().end()));
  EXPECT_EQ(restored.applied_set(), engine.applied_set());
  EXPECT_TRUE(restored.is_masked({101, 1}));
  EXPECT_EQ(restored.pending_count(), 1u);
  Encoder again;
  restored.encode_state(again);
  EXPECT_EQ(again.data(), enc.data());
}

}  // namespace
}  // namespace colony
