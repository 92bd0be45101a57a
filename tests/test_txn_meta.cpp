#include "core/txn.hpp"

#include <gtest/gtest.h>

#include "crdt/counter.hpp"
#include "util/codec.hpp"

namespace colony {
namespace {

Transaction make_txn(Dot dot, VersionVector snapshot) {
  Transaction txn;
  txn.meta.dot = dot;
  txn.meta.origin = dot.origin;
  txn.meta.snapshot = std::move(snapshot);
  txn.ops.push_back(OpRecord{{"b", "x"}, CrdtType::kPnCounter,
                             PnCounter::prepare_add(1)});
  return txn;
}

TEST(TxnMeta, CommitVectorViaAcceptingDc) {
  TxnMeta m;
  m.snapshot = VersionVector{1, 2, 0};
  m.mark_accepted(0, 5);
  EXPECT_TRUE(m.concrete);
  EXPECT_TRUE(m.accepted_by(0));
  EXPECT_FALSE(m.accepted_by(1));
  EXPECT_EQ(m.commit_vector_via(0), (VersionVector{5, 2, 0}));
}

TEST(TxnMeta, EquivalentCommitsShareOneVector) {
  // Section 3.8: after migration a transaction may be accepted by two DCs;
  // both timestamps live in one stored vector.
  TxnMeta m;
  m.snapshot = VersionVector{1, 2, 0};
  m.mark_accepted(0, 5);
  m.mark_accepted(2, 9);
  EXPECT_EQ(m.commit_vector_via(0), (VersionVector{5, 2, 0}));
  EXPECT_EQ(m.commit_vector_via(2), (VersionVector{1, 2, 9}));
  EXPECT_EQ(m.commit_lub(), (VersionVector{5, 2, 9}));
}

TEST(TxnMetaDeath, CommitVectorForNonAcceptingDc) {
  TxnMeta m;
  m.mark_accepted(0, 5);
  EXPECT_DEATH(m.commit_vector_via(1), "no commit timestamp");
}

TEST(TxnCodec, RoundTrip) {
  Transaction txn = make_txn(Dot{7, 3}, VersionVector{1, 0, 4});
  txn.meta.user = 55;
  txn.meta.pending_deps.push_back(Dot{7, 2});
  txn.meta.mark_accepted(1, 9);
  const auto back = codec::from_bytes<Transaction>(codec::to_bytes(txn));
  EXPECT_EQ(back.meta.dot, txn.meta.dot);
  EXPECT_EQ(back.meta.user, 55u);
  EXPECT_EQ(back.meta.snapshot, txn.meta.snapshot);
  EXPECT_EQ(back.meta.pending_deps, txn.meta.pending_deps);
  EXPECT_TRUE(back.meta.concrete);
  EXPECT_TRUE(back.meta.accepted_by(1));
  EXPECT_EQ(back.meta.commit.at(1), 9u);
  ASSERT_EQ(back.ops.size(), 1u);
  EXPECT_EQ(back.ops[0].key, (ObjectKey{"b", "x"}));
}

TEST(TxnStore, AddAndFind) {
  TxnStore store;
  EXPECT_TRUE(store.add(make_txn({1, 1}, VersionVector{0})));
  EXPECT_FALSE(store.add(make_txn({1, 1}, VersionVector{0})));  // dup
  EXPECT_TRUE(store.contains({1, 1}));
  EXPECT_NE(store.find({1, 1}), nullptr);
  EXPECT_EQ(store.find({9, 9}), nullptr);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TxnStore, DuplicateMergesCommitInfo) {
  TxnStore store;
  store.add(make_txn({1, 1}, VersionVector{0, 0}));
  Transaction dup = make_txn({1, 1}, VersionVector{0, 0});
  dup.meta.mark_accepted(1, 4);
  EXPECT_FALSE(store.add(dup));
  const Transaction* merged = store.find({1, 1});
  EXPECT_TRUE(merged->meta.concrete);
  EXPECT_TRUE(merged->meta.accepted_by(1));
  EXPECT_EQ(merged->meta.commit.at(1), 4u);
}

TEST(TxnStore, DuplicateAdoptsResolvedSnapshot) {
  TxnStore store;
  Transaction symbolic = make_txn({1, 2}, VersionVector{0, 0});
  symbolic.meta.pending_deps.push_back(Dot{1, 1});
  store.add(symbolic);

  Transaction concrete = make_txn({1, 2}, VersionVector{3, 0});
  concrete.meta.mark_accepted(0, 4);
  store.add(concrete);

  const Transaction* merged = store.find({1, 2});
  EXPECT_TRUE(merged->meta.pending_deps.empty());
  EXPECT_EQ(merged->meta.snapshot, (VersionVector{3, 0}));
}

TEST(TxnStore, EffectiveSnapshotResolvesDeps) {
  TxnStore store;
  Transaction dep = make_txn({1, 1}, VersionVector{0, 0});
  dep.meta.mark_accepted(0, 3);
  store.add(dep);

  Transaction txn = make_txn({1, 2}, VersionVector{0, 1});
  txn.meta.pending_deps.push_back(Dot{1, 1});
  store.add(txn);

  VersionVector eff;
  ASSERT_TRUE(store.effective_snapshot({1, 2}, eff));
  EXPECT_EQ(eff, (VersionVector{3, 1}));
}

TEST(TxnStore, EffectiveSnapshotFailsOnUnresolvedDep) {
  TxnStore store;
  store.add(make_txn({1, 1}, VersionVector{0}));  // still symbolic
  Transaction txn = make_txn({1, 2}, VersionVector{0});
  txn.meta.pending_deps.push_back(Dot{1, 1});
  store.add(txn);
  VersionVector eff;
  EXPECT_FALSE(store.effective_snapshot({1, 2}, eff));
  // Missing dep entirely:
  Transaction orphan = make_txn({2, 1}, VersionVector{0});
  orphan.meta.pending_deps.push_back(Dot{9, 9});
  store.add(orphan);
  EXPECT_FALSE(store.effective_snapshot({2, 1}, eff));
}

TEST(TxnStore, VisibleAtRespectsCommitAndSnapshot) {
  TxnStore store;
  Transaction txn = make_txn({1, 1}, VersionVector{2, 1});
  txn.meta.mark_accepted(0, 3);  // commit vector via DC0 = [3,1]
  store.add(txn);

  EXPECT_TRUE(store.visible_at({1, 1}, VersionVector{3, 1}));
  EXPECT_TRUE(store.visible_at({1, 1}, VersionVector{5, 5}));
  EXPECT_FALSE(store.visible_at({1, 1}, VersionVector{2, 1}));  // ts too low
  EXPECT_FALSE(store.visible_at({1, 1}, VersionVector{3, 0}));  // snap ahead
}

TEST(TxnStore, VisibleAtAnyEquivalentCommit) {
  TxnStore store;
  Transaction txn = make_txn({1, 1}, VersionVector{0, 0});
  txn.meta.mark_accepted(0, 5);
  txn.meta.mark_accepted(1, 2);
  store.add(txn);
  // Visible through DC1's timestamp even where DC0's is not covered.
  EXPECT_TRUE(store.visible_at({1, 1}, VersionVector{0, 2}));
  EXPECT_TRUE(store.visible_at({1, 1}, VersionVector{5, 0}));
  EXPECT_FALSE(store.visible_at({1, 1}, VersionVector{4, 1}));
}

TEST(TxnStore, SymbolicNeverVisible) {
  TxnStore store;
  store.add(make_txn({1, 1}, VersionVector{0}));
  EXPECT_FALSE(store.visible_at({1, 1}, VersionVector{100}));
}

TEST(TxnStore, ResolveMarksAccepted) {
  TxnStore store;
  store.add(make_txn({1, 1}, VersionVector{0, 0}));
  store.resolve({1, 1}, 1, 7);
  EXPECT_TRUE(store.find({1, 1})->meta.concrete);
  EXPECT_TRUE(store.visible_at({1, 1}, VersionVector{0, 7}));
}

TEST(TxnStore, EraseRemoves) {
  TxnStore store;
  store.add(make_txn({1, 1}, VersionVector{0}));
  store.erase({1, 1});
  EXPECT_FALSE(store.contains({1, 1}));
}

}  // namespace
}  // namespace colony
