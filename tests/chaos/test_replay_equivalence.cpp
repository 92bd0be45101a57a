// Replay equivalence sweep: determinism beneath the event boundary means one
// seeded history must converge to byte-identical state whether or not a
// passive observer is attached, and to the same visible state across a
// mid-history encode/decode restore. A restore rebuilds the wake index from
// an unordered pending set, so it may release concurrent transactions in a
// different order (log and journal order), never a different outcome.
//
// The suite names date from the retired threaded apply pool, whose
// equivalence sweeps these were; the seeded histories are unchanged, the
// pool sizes are replaced by the replays below.
//
// Two layers of evidence:
//   * An engine-level sweep (100+ seeds, fast): each seed generates a
//     shuffled multi-DC history — causal chains with cross-DC snapshot
//     edges, out-of-order symbolic resolutions, pending deps, read-my-writes
//     apply_local, ACL masking — and replays it through a fresh
//     VisibilityEngine plain and with a ReferenceDrain observing,
//     byte-comparing the journal-store encoding, the engine state encoding,
//     and the visibility-log order; and with the engine and store restored
//     from their encodings halfway through, comparing the applied set,
//     masked set, state vector, and every object's folded value.
//   * A full-cluster chaos sweep (heavier): the same fault schedule +
//     workload run plain, again plain, and with a reference drain attached
//     to every engine, comparing the converged digest, the commit count, and
//     every DC's encode_durable bytes — the exact image crash-recovery
//     replays from.
//
// Seed range overrides (read when the binary runs):
//   COLONY_REPLAY_EQ_SEED_BASE     first engine-level seed (default 1)
//   COLONY_REPLAY_EQ_SEEDS         engine-level seed count (default 100)
//   COLONY_REPLAY_CHAOS_SEED_BASE  first chaos seed (default 1)
//   COLONY_REPLAY_CHAOS_SEEDS      chaos seed count (default 100)
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "chaos_harness.hpp"
#include "core/visibility.hpp"
#include "crdt/counter.hpp"
#include "crdt/or_set.hpp"
#include "support/reference_drain.hpp"
#include "util/rng.hpp"

namespace colony {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::uint64_t parsed = std::strtoull(v, nullptr, 10);
  return parsed == 0 ? fallback : parsed;
}

std::vector<std::uint64_t> seeds_from_env(const char* base_name,
                                          const char* count_name,
                                          std::uint64_t default_count) {
  const std::uint64_t base = env_u64(base_name, 1);
  const std::uint64_t count = env_u64(count_name, default_count);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

// ---------------------------------------------------------------------------
// Engine-level sweep.
// ---------------------------------------------------------------------------

/// Everything a run can externalize. `visible` is the order-free part:
/// sorted applied and masked dots, the state vector, and each object's
/// folded value.
struct RunImage {
  Bytes store;
  Bytes engine;
  std::vector<Dot> log;
  Bytes visible;
};

Bytes visible_image(const VisibilityEngine& engine, const JournalStore& store) {
  Encoder enc;
  for (const auto* dots : {&engine.applied_set(), &engine.masked_set()}) {
    std::vector<Dot> sorted(dots->begin(), dots->end());
    std::sort(sorted.begin(), sorted.end());
    enc.u32(static_cast<std::uint32_t>(sorted.size()));
    for (const Dot& dot : sorted) dot.encode(enc);
  }
  engine.state_vector().encode(enc);
  for (const ObjectKey& key : store.keys()) {  // key order
    enc.str(key.full());
    enc.bytes(store.current(key)->snapshot());
  }
  return enc.take();
}

enum class Replay {
  kPlain,          // nothing attached, no restore
  kObserved,       // a ReferenceDrain observes every event
  kRestoredMidway  // engine + store round-trip their encodings halfway
};

/// Replay one seeded history through a fresh engine. The Rng is consumed
/// identically on every call — the replay variant is invisible to
/// generation and delivery, so any divergence in the returned image is the
/// variant's fault.
RunImage run_history(std::uint64_t seed, Replay replay) {
  constexpr std::size_t kDcs = 3;
  constexpr Timestamp kChainLen = 20;

  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, kDcs);
  std::unique_ptr<ReferenceDrain> reference;
  if (replay == Replay::kObserved) {
    reference = std::make_unique<ReferenceDrain>(engine);
  }
  engine.set_security_check([](const Transaction& txn) {
    return txn.meta.dot.counter % 5 != 0;  // periodic ACL veto
  });

  struct Event {
    enum Kind { kIngest, kResolve } kind;
    Transaction txn;   // kIngest
    Dot dot;           // kResolve
    DcId dc = 0;       // kResolve
    Timestamp ts = 0;  // kResolve
  };
  std::vector<Event> events;
  std::vector<Event> resolutions;

  // Interleaved generation keeps the causal graph acyclic (snapshot edges
  // only point at already-generated txns) — see test_drain_equivalence.
  std::vector<Timestamp> generated(kDcs, 0);
  while (true) {
    std::vector<DcId> open;
    for (DcId dc = 0; dc < kDcs; ++dc) {
      if (generated[dc] < kChainLen) open.push_back(dc);
    }
    if (open.empty()) break;
    const DcId dc = open[rng.below(open.size())];
    const Timestamp ts = ++generated[dc];
    VersionVector snap(kDcs);
    snap.set(dc, ts - 1);
    for (DcId other = 0; other < kDcs; ++other) {
      if (other != dc && generated[other] > 0 && rng.chance(0.3)) {
        snap.set(other, rng.between(1, generated[other]));
      }
    }
    Transaction txn;
    txn.meta.dot = Dot{100 + dc, ts};
    txn.meta.origin = 100 + dc;
    txn.meta.snapshot = std::move(snap);
    txn.meta.mark_accepted(dc, ts);
    // Multi-op body over a small hot key set: counters collide across DCs
    // and OR-Set journals pin per-key FIFO order in the encoding.
    txn.ops.push_back(
        OpRecord{{"eq", "c" + std::to_string((ts + dc) % 4)},
                 CrdtType::kPnCounter,
                 PnCounter::prepare_add(static_cast<std::int64_t>(ts % 7))});
    txn.ops.push_back(OpRecord{
        {"eq", "s" + std::to_string((ts * 3 + dc) % 8)}, CrdtType::kOrSet,
        OrSet::prepare_add("e" + std::to_string(ts) + "-" + std::to_string(dc),
                           txn.meta.dot)});
    if (rng.chance(0.25) && ts > 1) {
      txn.meta.pending_deps.push_back(Dot{100 + dc, ts - 1});
    }
    if (rng.chance(0.35)) {
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

  for (std::size_t i = events.size(); i > 1; --i) {
    std::swap(events[i - 1], events[rng.below(i)]);
  }

  const std::size_t restore_at = events.size() / 2;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (replay == Replay::kRestoredMidway && i == restore_at) {
      // The crash-restart path, in place: every event has drained, so the
      // pending set is genuinely blocked and the restore applies nothing.
      Encoder store_enc;
      store.encode(store_enc);
      Encoder engine_enc;
      engine.encode_state(engine_enc);
      Decoder store_dec(store_enc.data());
      store.decode(store_dec);
      EXPECT_TRUE(store_dec.ok() && store_dec.done()) << "seed " << seed;
      Decoder engine_dec(engine_enc.data());
      engine.decode_state(engine_dec);
      EXPECT_TRUE(engine_dec.ok() && engine_dec.done()) << "seed " << seed;
    }
    Event& ev = events[i];
    if (ev.kind == Event::kIngest) {
      const Dot dot = ev.txn.meta.dot;
      const bool symbolic = !ev.txn.meta.concrete;
      engine.ingest(std::move(ev.txn));
      if (symbolic && rng.chance(0.3)) {
        engine.apply_local(dot);  // read-my-writes mid-history
      }
    } else {
      engine.resolve(ev.dot, ev.dc, ev.ts);
    }
  }

  // Mid-run ACL flip: recompute_masks() rebuilds CRDT values from journals.
  engine.set_security_check([](const Transaction& txn) {
    return txn.meta.dot.counter % 7 != 0;
  });
  engine.recompute_masks();

  for (const Event& res : resolutions) {
    engine.resolve(res.dot, res.dc, res.ts);
  }
  engine.drain();
  EXPECT_EQ(engine.pending_count(), 0u) << "seed " << seed;
  if (reference != nullptr) {
    std::string why;
    EXPECT_TRUE(reference->matches(&why)) << "seed " << seed << ": " << why;
  }

  RunImage image;
  Encoder store_enc;
  store.encode(store_enc);
  image.store = store_enc.take();
  Encoder engine_enc;
  engine.encode_state(engine_enc);
  image.engine = engine_enc.take();
  image.log = engine.log();
  image.visible = visible_image(engine, store);
  return image;
}

class PoolEquivalenceSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PoolEquivalenceSweep, EveryPoolSizeMatchesInline) {
  const std::uint64_t seed = GetParam();
  const RunImage base = run_history(seed, Replay::kPlain);
  EXPECT_FALSE(base.log.empty()) << "seed " << seed << " applied nothing";
  const RunImage observed = run_history(seed, Replay::kObserved);
  EXPECT_EQ(base.store, observed.store)
      << "seed " << seed << " store bytes diverged when observed";
  EXPECT_EQ(base.engine, observed.engine)
      << "seed " << seed << " engine state diverged when observed";
  EXPECT_EQ(base.log, observed.log)
      << "seed " << seed << " visibility-log order diverged when observed";
  const RunImage restored = run_history(seed, Replay::kRestoredMidway);
  EXPECT_EQ(base.visible, restored.visible)
      << "seed " << seed << " visible state diverged when restored midway";
  EXPECT_EQ(base.log.size(), restored.log.size()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PoolEquivalenceSweep,
    ::testing::ValuesIn(seeds_from_env("COLONY_REPLAY_EQ_SEED_BASE",
                                       "COLONY_REPLAY_EQ_SEEDS", 100)),
    [](const auto& info) { return "seed" + std::to_string(info.param); });

// ---------------------------------------------------------------------------
// Full-cluster chaos sweep.
// ---------------------------------------------------------------------------

struct ClusterImage {
  std::string digest;
  std::uint64_t commits = 0;
  std::vector<Bytes> durable;  // encode_durable per DC, the recovery image
};

ClusterImage observe_cluster(std::uint64_t seed, bool reference_drain) {
  chaos_test::HarnessConfig cfg;
  cfg.seed = seed;
  cfg.reference_drain = reference_drain;
  // Each seed runs three full clusters; a slightly shorter schedule than
  // the main chaos sweep keeps 100 seeds affordable (coverage comes from
  // seed count, not per-seed duration).
  cfg.chaos.epochs = 2;
  chaos_test::Harness harness(cfg);
  const chaos_test::RunResult result = harness.run();
  EXPECT_TRUE(result.ok()) << "seed " << seed
                           << (reference_drain ? " with" : " without")
                           << " reference drain:\n"
                           << result.report.to_string();
  ClusterImage image;
  image.digest = result.final_digest;
  image.commits = result.commits;
  for (DcId d = 0; d < static_cast<DcId>(cfg.num_dcs); ++d) {
    image.durable.push_back(harness.cluster().dc(d).durable_bytes());
  }
  return image;
}

class PoolChaosEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PoolChaosEquivalence, ChaosRunMatchesAcrossPoolSizes) {
  const std::uint64_t seed = GetParam();
  const ClusterImage base = observe_cluster(seed, false);
  EXPECT_GT(base.commits, 0u) << "seed " << seed << " produced no commits";
  for (const bool reference_drain : {false, true}) {
    const char* run = reference_drain ? "with reference drain" : "on rerun";
    const ClusterImage got = observe_cluster(seed, reference_drain);
    EXPECT_EQ(base.digest, got.digest)
        << "seed " << seed << " converged digest diverged " << run;
    EXPECT_EQ(base.commits, got.commits)
        << "seed " << seed << " commit count diverged " << run;
    ASSERT_EQ(base.durable.size(), got.durable.size());
    for (std::size_t d = 0; d < base.durable.size(); ++d) {
      EXPECT_EQ(base.durable[d], got.durable[d])
          << "seed " << seed << " dc" << d << " durable bytes diverged "
          << run;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, PoolChaosEquivalence,
    ::testing::ValuesIn(seeds_from_env("COLONY_REPLAY_CHAOS_SEED_BASE",
                                       "COLONY_REPLAY_CHAOS_SEEDS", 100)),
    [](const auto& info) { return "seed" + std::to_string(info.param); });

}  // namespace
}  // namespace colony
