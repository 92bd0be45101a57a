// Wall-clock micro-costs of the visibility layer: transaction ingest with
// causal checks, visibility tests against a cut, K-stable predicate
// evaluation, security-mask recomputation over a history, and the engine
// and store checkpoint round trips.
#include <benchmark/benchmark.h>

#include <string>

#include "core/visibility.hpp"
#include "crdt/counter.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"

namespace colony {
namespace {

Transaction make_txn(DcId dc, Timestamp ts, std::size_t num_dcs) {
  Transaction txn;
  txn.meta.dot = Dot{100 + dc, ts};
  txn.meta.origin = 100 + dc;
  txn.meta.snapshot = VersionVector(num_dcs);
  txn.meta.snapshot.set(dc, ts - 1);
  txn.meta.mark_accepted(dc, ts);
  txn.ops.push_back(OpRecord{{"b", "x"}, CrdtType::kPnCounter,
                             PnCounter::prepare_add(1)});
  return txn;
}

void BM_EngineIngestSequential(benchmark::State& state) {
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, 3);
  Timestamp ts = 0;
  for (auto _ : state) {
    engine.ingest(make_txn(0, ++ts, 3));
  }
  benchmark::DoNotOptimize(engine.state_vector());
}
BENCHMARK(BM_EngineIngestSequential);

void BM_EngineIngestOutOfOrderWindow(benchmark::State& state) {
  // Deliver windows of 32 transactions in reverse: worst case for the
  // pending-buffer drain.
  Timestamp base = 0;
  for (auto _ : state) {
    state.PauseTiming();
    TxnStore txns;
    JournalStore store;
    VisibilityEngine engine(txns, store, 3);
    std::vector<Transaction> window;
    for (Timestamp i = 1; i <= 32; ++i) {
      window.push_back(make_txn(0, base + i, 3));
    }
    state.ResumeTiming();
    for (auto it = window.rbegin(); it != window.rend(); ++it) {
      engine.ingest(*it);
    }
    benchmark::DoNotOptimize(engine.pending_count());
  }
}
BENCHMARK(BM_EngineIngestOutOfOrderWindow);

void BM_VisibleAtCut(benchmark::State& state) {
  TxnStore txns;
  for (Timestamp ts = 1; ts <= 1024; ++ts) {
    Transaction txn = make_txn(ts % 3, ts, 3);
    txns.add(txn);
  }
  const VersionVector cut{500, 500, 500};
  Timestamp probe = 0;
  for (auto _ : state) {
    const Dot dot{100 + (probe % 3), (probe % 1024) + 1};
    benchmark::DoNotOptimize(txns.visible_at(dot, cut));
    ++probe;
  }
}
BENCHMARK(BM_VisibleAtCut);

void BM_RecomputeMasksOverHistory(benchmark::State& state) {
  const auto history = static_cast<Timestamp>(state.range(0));
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, 3);
  bool block = false;
  engine.set_security_check([&block](const Transaction& txn) {
    return !(block && txn.meta.dot.counter % 7 == 0);
  });
  for (Timestamp ts = 1; ts <= history; ++ts) {
    engine.ingest(make_txn(0, ts, 3));
  }
  for (auto _ : state) {
    block = !block;  // flip the policy: every recompute changes masks
    benchmark::DoNotOptimize(engine.recompute_masks());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RecomputeMasksOverHistory)->Range(64, 1024)->Complexity();

void BM_ReapplyMissing(benchmark::State& state) {
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, 3);
  for (Timestamp ts = 1; ts <= 256; ++ts) {
    engine.ingest(make_txn(0, ts, 3));
  }
  const auto snap = store.export_snapshot({"b", "x"});
  ObjectSnapshot empty = *snap;
  empty.applied.clear();  // pretend the fetched copy has nothing
  empty.state = PnCounter().snapshot();
  for (auto _ : state) {
    store.import_snapshot(empty);
    engine.reapply_missing({"b", "x"}, empty);
  }
}
BENCHMARK(BM_ReapplyMissing);

void BM_EngineCheckpoint(benchmark::State& state) {
  // encode_state + decode_state of an engine holding N applied dots: the
  // engine's share of every edge and DC checkpoint and recovery.
  const auto applied = static_cast<Timestamp>(state.range(0));
  TxnStore txns;
  JournalStore store;
  VisibilityEngine engine(txns, store, 3);
  for (Timestamp ts = 1; ts <= applied; ++ts) {
    engine.ingest(make_txn(0, ts, 3));
  }
  JournalStore restored_store;
  VisibilityEngine restored(txns, restored_store, 3);
  for (auto _ : state) {
    Encoder enc;
    engine.encode_state(enc);
    Decoder dec(enc.data());
    restored.decode_state(dec);
    benchmark::DoNotOptimize(restored.log().size());
  }
}
BENCHMARK(BM_EngineCheckpoint)->Arg(1000)->Arg(10000);

void BM_StoreCheckpoint(benchmark::State& state) {
  // encode + decode of a TxnStore and a JournalStore holding N objects, the
  // rest of every node checkpoint: counters, LWW registers and RGAs in
  // turn, four ops each, the first two baked into the base version and the
  // last two journalled, with one transaction record per op.
  constexpr std::uint64_t kOpsPerObject = 4;
  const auto objects = static_cast<std::uint64_t>(state.range(0));
  TxnStore txns;
  JournalStore store;
  for (std::uint64_t i = 0; i < objects; ++i) {
    const ObjectKey key{"b", "o" + std::to_string(i)};
    const CrdtType type = i % 3 == 0   ? CrdtType::kPnCounter
                          : i % 3 == 1 ? CrdtType::kLwwRegister
                                       : CrdtType::kRga;
    Dot after;
    for (std::uint64_t k = 1; k <= kOpsPerObject; ++k) {
      const Dot dot{1 + i % 8, i * kOpsPerObject + k};
      const Arb arb{dot.counter, dot};
      Bytes op;
      if (type == CrdtType::kPnCounter) {
        op = PnCounter::prepare_add(static_cast<std::int64_t>(k));
      } else if (type == CrdtType::kLwwRegister) {
        op = LwwRegister::prepare_assign("value " + std::to_string(k), arb);
      } else {
        op = Rga::prepare_insert(after, "message " + std::to_string(k), arb);
        after = dot;
      }
      store.apply(key, type, dot, op);
      Transaction txn;
      txn.meta.dot = dot;
      txn.meta.origin = dot.origin;
      txn.meta.snapshot = VersionVector(3);
      txn.meta.mark_accepted(0, dot.counter);
      txn.ops.push_back(OpRecord{key, type, std::move(op)});
      txns.add(std::move(txn));
    }
    store.advance_base(key, [](const Dot& d) {
      return (d.counter - 1) % kOpsPerObject < 2;
    });
  }
  TxnStore restored_txns;
  JournalStore restored_store;
  for (auto _ : state) {
    Encoder enc;
    txns.encode(enc);
    store.encode(enc);
    Decoder dec(enc.data());
    restored_txns.decode(dec);
    restored_store.decode(dec);
    benchmark::DoNotOptimize(restored_txns.size());
  }
}
BENCHMARK(BM_StoreCheckpoint)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace colony
