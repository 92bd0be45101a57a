// Drain-scheduler equivalence: the indexed wake-list scheduler must compute
// exactly the visibility relation of the fixpoint reference (DESIGN.md §8).
//
// Two layers of evidence:
//   * A randomized sweep (100+ seeds): each seed drives one engine with a
//     ReferenceDrain (tests/support) observing the same event stream —
//     shuffled multi-DC ingest, out-of-order resolutions, pending deps,
//     read-my-writes apply_local, ACL mask flips — and asserts matches()
//     (identical applied set, masked set, state vector, pending set)
//     throughout and at quiescence.
//   * Deterministic wake-guard unit tests, one per guard class: own commit
//     symbolic, dep unknown (admit()), state-vector threshold, within-batch
//     causal order, masked-index rebuild, a restore mid-backlog, and a
//     reference attached mid-backlog.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/visibility.hpp"
#include "crdt/counter.hpp"
#include "support/reference_drain.hpp"
#include "util/rng.hpp"

namespace colony {
namespace {

Transaction chain_txn(DcId dc, Timestamp ts, VersionVector snapshot,
                      const std::string& key, std::int64_t delta = 1) {
  Transaction txn;
  txn.meta.dot = Dot{100 + dc, ts};
  txn.meta.origin = 100 + dc;
  txn.meta.snapshot = std::move(snapshot);
  txn.meta.mark_accepted(dc, ts);
  txn.ops.push_back(OpRecord{{"b", key}, CrdtType::kPnCounter,
                             PnCounter::prepare_add(delta)});
  return txn;
}

// ---------------------------------------------------------------------------
// Randomized sweep.
// ---------------------------------------------------------------------------

/// One seeded run: generate per-DC causal chains with cross-DC snapshot
/// edges, symbolic commits, pending deps and transitive masking; deliver in
/// a shuffled order with resolutions interleaved; verify the reference agrees
/// after every step and that everything drains at the end.
void run_equivalence_seed(std::uint64_t seed) {
  constexpr std::size_t kDcs = 3;
  constexpr Timestamp kChainLen = 24;

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, kDcs);
  ReferenceDrain reference(engine);

  // Every 5th counter value is vetoed; key overlap and same-origin edges
  // then drag causal dependants into the mask transitively — on both sides.
  engine.set_security_check([](const Transaction& txn) {
    return txn.meta.dot.counter % 5 != 0;
  });

  struct Event {
    enum Kind { kIngest, kResolve } kind;
    Transaction txn;   // kIngest
    Dot dot;           // kResolve
    DcId dc = 0;       // kResolve
    Timestamp ts = 0;  // kResolve
  };
  std::vector<Event> events;
  std::vector<Event> resolutions;  // replayed at cleanup so none is lost

  // Generate the history in one interleaved total order: a txn's cross-DC
  // snapshot edges may only reference txns generated before it, so the
  // causal graph is acyclic — exactly what real executions produce (a
  // snapshot reflects state some replica actually observed). Independent
  // random edges could manufacture cyclic wait-for configurations that
  // never drain.
  std::vector<Timestamp> generated(kDcs, 0);
  while (true) {
    std::vector<DcId> open;
    for (DcId dc = 0; dc < kDcs; ++dc) {
      if (generated[dc] < kChainLen) open.push_back(dc);
    }
    if (open.empty()) break;
    const DcId dc = open[rng.below(open.size())];
    const Timestamp ts = ++generated[dc];
    {
      VersionVector snap(kDcs);
      snap.set(dc, ts - 1);  // own-chain predecessor
      for (DcId other = 0; other < kDcs; ++other) {
        if (other != dc && generated[other] > 0 && rng.chance(0.3)) {
          // Cross-DC causal edge to an already-generated point.
          snap.set(other, rng.between(1, generated[other]));
        }
      }
      Transaction txn = chain_txn(
          dc, ts, std::move(snap),
          std::string("k") + static_cast<char>('a' + (ts + dc) % 6));
      if (rng.chance(0.25) && ts > 1) {
        // Name the predecessor as an explicit pending dep: its commit must
        // be concrete before the effective snapshot resolves.
        txn.meta.pending_deps.push_back(Dot{100 + dc, ts - 1});
      }
      if (rng.chance(0.35)) {
        // Symbolic at ingest: the commit timestamp arrives as a separate
        // resolution event, possibly well out of order.
        txn.meta.commit = VersionVector{};
        txn.meta.accepted_mask = 0;
        txn.meta.concrete = false;
        Event res;
        res.kind = Event::kResolve;
        res.dot = txn.meta.dot;
        res.dc = dc;
        res.ts = ts;
        events.push_back(res);
        resolutions.push_back(res);
      }
      Event ing;
      ing.kind = Event::kIngest;
      ing.txn = std::move(txn);
      events.push_back(std::move(ing));
    }
  }

  // Delivery is shuffled below, so the generation interleaving only shapes
  // the causal graph, not the arrival order.

  // Fisher-Yates over the whole stream: resolutions can precede their
  // ingest (resolve() drops them; the cleanup replay below re-issues).
  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.below(i)]);
  }

  std::string why;
  std::size_t step = 0;
  for (Event& ev : events) {
    if (ev.kind == Event::kIngest) {
      const Dot dot = ev.txn.meta.dot;
      const bool symbolic = !ev.txn.meta.concrete;
      engine.ingest(std::move(ev.txn));
      if (symbolic && rng.chance(0.3)) {
        engine.apply_local(dot);  // read-my-writes before resolution
      }
    } else {
      engine.resolve(ev.dot, ev.dc, ev.ts);
    }
    ++step;
    ASSERT_TRUE(reference.matches(&why))
        << "seed " << seed << " diverged at step " << step << ": " << why;
  }

  // Mid-run ACL flip: unmask everything, then re-mask a different slice.
  engine.set_security_check(nullptr);
  engine.recompute_masks();
  ASSERT_TRUE(reference.matches(&why))
      << "seed " << seed << " diverged after unmask: " << why;
  engine.set_security_check([](const Transaction& txn) {
    return txn.meta.dot.counter % 7 != 0;
  });
  engine.recompute_masks();
  ASSERT_TRUE(reference.matches(&why))
      << "seed " << seed << " diverged after re-mask: " << why;

  // Cleanup: replay every resolution (some were shuffled ahead of their
  // ingest and dropped), then require full drain on both sides.
  for (const Event& res : resolutions) {
    engine.resolve(res.dot, res.dc, res.ts);
  }
  engine.drain();
  ASSERT_TRUE(reference.matches(&why))
      << "seed " << seed << " diverged at quiescence: " << why;
  EXPECT_EQ(engine.pending_count(), 0u) << "seed " << seed;
  EXPECT_EQ(engine.applied_set().size(), kDcs * kChainLen) << "seed " << seed;
  EXPECT_EQ(engine.state_vector(),
            (VersionVector{kChainLen, kChainLen, kChainLen}))
      << "seed " << seed;
}

class DrainEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DrainEquivalenceSweep, IndexedMatchesReference) {
  run_equivalence_seed(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrainEquivalenceSweep,
                         ::testing::Range<std::uint64_t>(1, 121),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Wake-guard unit tests.
// ---------------------------------------------------------------------------

class WakeGuardTest : public ::testing::Test {
 protected:
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine{txns, store, 2};
};

TEST_F(WakeGuardTest, SymbolicCommitsResolvedOutOfOrder) {
  // Both txns symbolic: nothing can apply until resolutions arrive, and
  // they arrive inverted — ts=2 first (stays blocked on the state guard
  // for ts=1), then ts=1 (cascades both, in causal order).
  for (Timestamp ts : {Timestamp{1}, Timestamp{2}}) {
    Transaction txn;
    txn.meta.dot = Dot{7, ts};
    txn.meta.origin = 7;
    txn.meta.snapshot = VersionVector{ts - 1, 0};
    txn.ops.push_back(
        OpRecord{{"b", "x"}, CrdtType::kPnCounter, PnCounter::prepare_add(1)});
    engine.ingest(txn);
  }
  EXPECT_EQ(engine.pending_count(), 2u);

  engine.resolve(Dot{7, 2}, 0, 2);
  EXPECT_EQ(engine.pending_count(), 2u);  // still waiting on state_[0] >= 1
  EXPECT_EQ(engine.state_vector(), (VersionVector{0, 0}));

  engine.resolve(Dot{7, 1}, 0, 1);
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 0}));
  ASSERT_EQ(engine.log().size(), 2u);
  EXPECT_EQ(engine.log()[0], (Dot{7, 1}));
  EXPECT_EQ(engine.log()[1], (Dot{7, 2}));
}

TEST_F(WakeGuardTest, AdmitWakesDependantThroughGuardChain) {
  // B names A as a pending dep before A is even known: B parks on the
  // dep-unknown guard. admit(A) (the consensus-ordered peer-group path —
  // stored, not scheduled) must re-examine B, which then re-parks on the
  // state guard until apply_causal(A) advances the vector.
  Transaction a;
  a.meta.dot = Dot{7, 1};
  a.meta.origin = 7;
  a.meta.snapshot = VersionVector{0, 0};
  a.meta.mark_accepted(0, 1);
  a.ops.push_back(
      OpRecord{{"b", "x"}, CrdtType::kPnCounter, PnCounter::prepare_add(1)});

  Transaction b = a;
  b.meta.dot = Dot{7, 2};
  b.meta.pending_deps.push_back(a.meta.dot);
  b.meta.mark_accepted(0, 2);

  engine.ingest(b);
  EXPECT_EQ(engine.pending_count(), 1u);  // dep unknown

  EXPECT_TRUE(engine.admit(a));
  EXPECT_EQ(engine.pending_count(), 1u);  // re-examined, now state-guarded
  EXPECT_FALSE(engine.is_applied(Dot{7, 1}));

  EXPECT_TRUE(engine.apply_causal(Dot{7, 1}));
  EXPECT_EQ(engine.pending_count(), 0u);  // state wake cascaded B
  EXPECT_TRUE(engine.is_applied(Dot{7, 2}));
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 0}));
}

TEST_F(WakeGuardTest, StateThresholdWakesOnExactComponent) {
  // A cross-DC reader blocked on state_[0] >= 2 must wake exactly when the
  // second DC0 txn applies — not before, and without any rescans between.
  engine.ingest(chain_txn(1, 1, VersionVector{2, 0}, "y"));
  EXPECT_EQ(engine.pending_count(), 1u);

  engine.ingest(chain_txn(0, 1, VersionVector{0, 0}, "x"));
  EXPECT_EQ(engine.pending_count(), 1u);  // threshold 2 not reached at 1
  engine.ingest(chain_txn(0, 2, VersionVector{1, 0}, "x"));
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 1}));
}

TEST_F(WakeGuardTest, BatchOrderDefersBehindCoveredPendingPredecessor) {
  // Seeding a cut can make several pending txns applicable at once, and
  // the wake order examines the causal SUCCESSOR first (both guards sit on
  // dc0 >= 1; equal multimap keys pop in insertion order, successor
  // first). The within-batch rule must defer it behind the still-pending
  // predecessor so the log stays in causal order.
  TxnStore t3;
  JournalStore s3;
  VisibilityEngine wide(t3, s3, 3);

  Transaction pred;  // committed at dc1 slot 5
  pred.meta.dot = Dot{100, 1};
  pred.meta.origin = 100;
  pred.meta.snapshot = VersionVector{1, 4, 0};
  pred.meta.mark_accepted(1, 5);
  pred.ops.push_back(
      OpRecord{{"b", "x"}, CrdtType::kPnCounter, PnCounter::prepare_add(1)});

  Transaction succ = pred;  // snapshot covers pred's commit
  succ.meta.dot = Dot{100, 2};
  succ.meta.snapshot = VersionVector{1, 5, 0};
  succ.meta.commit = VersionVector{};
  succ.meta.accepted_mask = 0;
  succ.meta.concrete = false;
  succ.meta.mark_accepted(1, 6);

  wide.ingest(succ);  // parked first: wakes first on the dc0 threshold
  wide.ingest(pred);
  EXPECT_EQ(wide.pending_count(), 2u);

  wide.seed_state(VersionVector{1, 5, 0});  // checkout import premise
  wide.drain();
  EXPECT_EQ(wide.pending_count(), 0u);
  ASSERT_EQ(wide.log().size(), 2u);
  EXPECT_EQ(wide.log()[0], (Dot{100, 1}));
  EXPECT_EQ(wide.log()[1], (Dot{100, 2}));
}

TEST_F(WakeGuardTest, MaskFlipRebuildsIndexAndValues) {
  TxnStore t2;
  JournalStore s2;
  VisibilityEngine masked_engine(t2, s2, 2);
  ReferenceDrain reference(masked_engine);
  masked_engine.set_security_check(
      [](const Transaction& txn) { return txn.meta.origin != 100; });

  masked_engine.ingest(chain_txn(0, 1, VersionVector{0, 0}, "x", 10));
  // Same key, different origin: transitively masked through data flow.
  masked_engine.ingest(chain_txn(1, 1, VersionVector{1, 0}, "x", 5));
  EXPECT_TRUE(masked_engine.is_masked(Dot{100, 1}));
  EXPECT_TRUE(masked_engine.is_masked(Dot{101, 1}));
  const auto* c = dynamic_cast<const PnCounter*>(s2.current({"b", "x"}));
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value(), 0);

  std::string why;
  EXPECT_TRUE(reference.matches(&why)) << why;

  // ACL change: unmask everything. The per-origin/per-key buckets must be
  // rebuilt (not just the masked set) or later transitive checks would
  // consult stale dots.
  masked_engine.set_security_check(nullptr);
  EXPECT_EQ(masked_engine.recompute_masks(), 2u);
  EXPECT_FALSE(masked_engine.is_masked(Dot{100, 1}));
  EXPECT_EQ(dynamic_cast<const PnCounter*>(s2.current({"b", "x"}))->value(),
            15);
  EXPECT_TRUE(reference.matches(&why)) << why;

  // New txn on the same key must NOT inherit a mask from the old buckets.
  masked_engine.ingest(chain_txn(0, 2, VersionVector{1, 1}, "x", 1));
  EXPECT_FALSE(masked_engine.is_masked(Dot{100, 2}));
  EXPECT_EQ(dynamic_cast<const PnCounter*>(s2.current({"b", "x"}))->value(),
            16);
  EXPECT_TRUE(reference.matches(&why)) << why;
}

TEST_F(WakeGuardTest, RestoreMidBacklogRebuildsAndDrains) {
  // Park a blocked backlog, round-trip the engine through encode_state /
  // decode_state (the crash-restart path: the wake index is rebuilt from
  // the pending set), then unblock it. The reference re-syncs from the
  // restored engine and must agree before and after the drain.
  ReferenceDrain reference(engine);
  engine.ingest(chain_txn(0, 3, VersionVector{2, 0}, "x"));
  engine.ingest(chain_txn(0, 2, VersionVector{1, 0}, "x"));
  engine.ingest(chain_txn(1, 2, VersionVector{0, 1}, "y"));
  EXPECT_EQ(engine.pending_count(), 3u);

  Encoder enc;
  engine.encode_state(enc);
  Decoder dec(enc.data());
  engine.decode_state(dec);
  ASSERT_TRUE(dec.ok() && dec.done());
  EXPECT_EQ(engine.pending_count(), 3u);  // rebuild alone unblocks nothing
  std::string why;
  EXPECT_TRUE(reference.matches(&why)) << why;

  engine.ingest(chain_txn(0, 1, VersionVector{0, 0}, "x"));
  engine.ingest(chain_txn(1, 1, VersionVector{0, 0}, "y"));
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.state_vector(), (VersionVector{3, 2}));
  EXPECT_TRUE(reference.matches(&why)) << why;
}

TEST_F(WakeGuardTest, SetDrainModeMidRunRebuildsAndDrains) {
  // Attach the reference mid-run, with a blocked backlog parked (it
  // rebuilds its arrival list from the pending set), unblock there, then
  // detach it and attach a fresh one with a new blocked txn outstanding.
  engine.ingest(chain_txn(0, 3, VersionVector{2, 0}, "x"));
  engine.ingest(chain_txn(0, 2, VersionVector{1, 0}, "x"));
  EXPECT_EQ(engine.pending_count(), 2u);

  std::string why;
  {
    ReferenceDrain reference(engine);
    EXPECT_EQ(engine.pending_count(), 2u);  // attaching unblocks nothing
    EXPECT_TRUE(reference.matches(&why)) << why;
    engine.ingest(chain_txn(0, 1, VersionVector{0, 0}, "x"));
    EXPECT_EQ(engine.pending_count(), 0u);
    EXPECT_EQ(engine.state_vector(), (VersionVector{3, 0}));
    EXPECT_TRUE(reference.matches(&why)) << why;
    engine.ingest(chain_txn(1, 2, VersionVector{0, 1}, "y"));
    EXPECT_EQ(engine.pending_count(), 1u);
  }

  ReferenceDrain reference(engine);
  EXPECT_EQ(engine.pending_count(), 1u);
  EXPECT_TRUE(reference.matches(&why)) << why;
  engine.ingest(chain_txn(1, 1, VersionVector{0, 0}, "y"));
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.state_vector(), (VersionVector{3, 2}));
  EXPECT_TRUE(reference.matches(&why)) << why;
}

TEST_F(WakeGuardTest, DuplicateIngestWithNewCommitSlotsWakesWaiters) {
  // A symbolic txn re-delivered with commit info (migration duplicate,
  // section 3.8) must wake both itself and dependants via the txn event —
  // the original guard registration is stale after the merge.
  Transaction sym = chain_txn(0, 1, VersionVector{0, 0}, "x");
  sym.meta.commit = VersionVector{};
  sym.meta.accepted_mask = 0;
  sym.meta.concrete = false;
  engine.ingest(sym);
  engine.ingest(chain_txn(0, 2, VersionVector{1, 0}, "x"));
  EXPECT_EQ(engine.pending_count(), 2u);

  Transaction resolved = chain_txn(0, 1, VersionVector{0, 0}, "x");
  EXPECT_FALSE(engine.ingest(resolved));  // duplicate dot, merged metadata
  EXPECT_EQ(engine.pending_count(), 0u);
  EXPECT_EQ(engine.state_vector(), (VersionVector{2, 0}));
}

}  // namespace
}  // namespace colony
