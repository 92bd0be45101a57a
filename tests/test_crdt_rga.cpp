#include "crdt/rga.hpp"

#include <gtest/gtest.h>

namespace colony {
namespace {

Arb arb(Timestamp ts, NodeId node, std::uint64_t counter) {
  return Arb{ts, Dot{node, counter}};
}

TEST(Rga, AppendChain) {
  Rga seq;
  seq.apply(Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1)));
  seq.apply(Rga::prepare_insert(seq.last_id(), "b", arb(2, 1, 2)));
  seq.apply(Rga::prepare_insert(seq.last_id(), "c", arb(3, 1, 3)));
  EXPECT_EQ(seq.values(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(seq.size(), 3u);
}

TEST(Rga, InsertInMiddle) {
  Rga seq;
  seq.apply(Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1)));
  seq.apply(Rga::prepare_insert(seq.id_at(0), "c", arb(2, 1, 2)));
  // Insert "b" right after "a" (before "c").
  seq.apply(Rga::prepare_insert(seq.id_at(0), "b", arb(3, 1, 3)));
  EXPECT_EQ(seq.values(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Rga, RemoveTombstones) {
  Rga seq;
  seq.apply(Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1)));
  seq.apply(Rga::prepare_insert(seq.last_id(), "b", arb(2, 1, 2)));
  seq.apply(Rga::prepare_remove(seq.id_at(0)));
  EXPECT_EQ(seq.values(), (std::vector<std::string>{"b"}));
  EXPECT_EQ(seq.size(), 1u);
  // Re-delivery of the remove is idempotent.
}

TEST(Rga, InsertAfterTombstonedElement) {
  Rga seq;
  seq.apply(Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1)));
  const Dot a_id = seq.id_at(0);
  seq.apply(Rga::prepare_remove(a_id));
  // A concurrent writer inserts after "a" before learning of the delete.
  seq.apply(Rga::prepare_insert(a_id, "b", arb(2, 2, 1)));
  EXPECT_EQ(seq.values(), (std::vector<std::string>{"b"}));
}

TEST(Rga, ConcurrentInsertsAtSamePositionConverge) {
  // Two replicas insert after the same element concurrently; all replicas
  // must order the siblings identically (by descending arbitration).
  const auto base = Rga::prepare_insert(Dot{}, "base", arb(1, 1, 1));
  Rga probe;
  probe.apply(base);
  const Dot base_id = probe.id_at(0);

  const auto from_a = Rga::prepare_insert(base_id, "A", arb(5, 1, 2));
  const auto from_b = Rga::prepare_insert(base_id, "B", arb(6, 2, 1));

  Rga x, y;
  x.apply(base); x.apply(from_a); x.apply(from_b);
  y.apply(base); y.apply(from_b); y.apply(from_a);
  EXPECT_EQ(x.values(), y.values());
  // Higher arbitration sorts first among siblings.
  EXPECT_EQ(x.values(), (std::vector<std::string>{"base", "B", "A"}));
}

TEST(Rga, InterleavedChainsStayContiguous) {
  // Each writer extends its own message chain; RGA keeps each chain in
  // order (prefix property of conversations).
  const auto m1 = Rga::prepare_insert(Dot{}, "a1", arb(1, 1, 1));
  Rga probe;
  probe.apply(m1);
  const auto m2 = Rga::prepare_insert(Dot{1, 1}, "a2", arb(2, 1, 2));
  const auto n1 = Rga::prepare_insert(Dot{}, "b1", arb(3, 2, 1));

  Rga x;
  x.apply(m1); x.apply(m2); x.apply(n1);
  Rga y;
  y.apply(n1); y.apply(m1); y.apply(m2);
  EXPECT_EQ(x.values(), y.values());
  // "a1" must come directly before "a2".
  const auto vals = x.values();
  const auto a1 = std::find(vals.begin(), vals.end(), "a1");
  ASSERT_NE(a1, vals.end());
  EXPECT_EQ(*(a1 + 1), "a2");
}

TEST(Rga, SnapshotRoundTripWithTombstones) {
  Rga seq;
  seq.apply(Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1)));
  seq.apply(Rga::prepare_insert(seq.last_id(), "b", arb(2, 1, 2)));
  seq.apply(Rga::prepare_remove(seq.id_at(0)));
  Rga restored;
  restored.restore(seq.snapshot());
  EXPECT_EQ(restored.values(), seq.values());
  EXPECT_EQ(restored.size(), 1u);
}

TEST(Rga, LastIdOnEmptyIsSentinel) {
  Rga seq;
  EXPECT_EQ(seq.last_id(), Dot{});
  EXPECT_TRUE(seq.values().empty());
}

TEST(Rga, DuplicateInsertIgnored) {
  Rga seq;
  const auto op = Rga::prepare_insert(Dot{}, "a", arb(1, 1, 1));
  seq.apply(op);
  seq.apply(op);
  EXPECT_EQ(seq.size(), 1u);
}

// An append chain is a path in the insertion tree as deep as the sequence
// is long; no walk may recurse along it.
constexpr std::uint64_t kLongChain = 100'000;

TEST(RgaTest, HundredThousandAppendChainDoesNotOverflow) {
  Rga seq;
  for (std::uint64_t i = 1; i <= kLongChain; ++i) {
    const Dot after = i == 1 ? Dot{} : Dot{1, i - 1};
    seq.apply(Rga::prepare_insert(after, "m", arb(i, 1, i)));
  }
  EXPECT_EQ(seq.last_id(), (Dot{1, kLongChain}));
  EXPECT_EQ(seq.values().size(), kLongChain);
  const Bytes snap = seq.snapshot();
  Rga restored;
  restored.restore(snap);
  EXPECT_EQ(restored.size(), kLongChain);
  EXPECT_EQ(restored.snapshot(), snap);
  const auto copy = seq.clone();
  EXPECT_EQ(copy->snapshot(), snap);
}

TEST(RgaTest, HundredThousandOrphanChainAttachesWhenItsRootArrives) {
  // Delivered last to first: every element but the first waits on its
  // predecessor, and the first one releases the whole chain.
  Rga seq;
  for (std::uint64_t i = kLongChain; i >= 1; --i) {
    const Dot after = i == 1 ? Dot{} : Dot{1, i - 1};
    seq.apply(Rga::prepare_insert(after, "m", arb(i, 1, i)));
  }
  EXPECT_EQ(seq.orphan_count(), 0u);
  EXPECT_EQ(seq.size(), kLongChain);
  EXPECT_EQ(seq.last_id(), (Dot{1, kLongChain}));
}

TEST(RgaDeath, IndexOutOfRange) {
  Rga seq;
  EXPECT_DEATH((void)seq.id_at(0), "out of range");
}

}  // namespace
}  // namespace colony
