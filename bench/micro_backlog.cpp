// Backlog-scale drain benchmark: the reconnect burst. A replica receives a
// large backlog of transactions in reverse causal order (every push pends
// until its predecessor arrives), then everything cascades. This is the
// workload the indexed wake-list scheduler exists for.
//
// Variants: backlog size 1k/5k/20k, with and without ACL masking (masking
// exercises the per-origin/per-key masked-write index).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "core/visibility.hpp"
#include "crdt/counter.hpp"

namespace colony {
namespace {

Transaction make_txn(DcId dc, Timestamp ts, std::size_t num_dcs) {
  Transaction txn;
  txn.meta.dot = Dot{100 + dc, ts};
  txn.meta.origin = 100 + dc;
  txn.meta.snapshot = VersionVector(num_dcs);
  txn.meta.snapshot.set(dc, ts - 1);
  txn.meta.mark_accepted(dc, ts);
  // Spread ops over a handful of keys so key-overlap mask propagation has
  // real buckets to consult.
  txn.ops.push_back(OpRecord{{"b", std::string("k") + char('a' + ts % 8)},
                             CrdtType::kPnCounter,
                             PnCounter::prepare_add(1)});
  return txn;
}

void run_backlog(benchmark::State& state, bool masking) {
  const auto n = static_cast<Timestamp>(state.range(0));
  benchalloc::Scope allocs;
  for (auto _ : state) {
    state.PauseTiming();
    TxnStore txns;
    JournalStore store;
    VisibilityEngine engine(txns, store, 3);
    if (masking) {
      // Every 7th transaction is vetoed; key overlap then drags causal
      // dependants into the mask transitively.
      engine.set_security_check([](const Transaction& txn) {
        return txn.meta.dot.counter % 7 != 0;
      });
    }
    std::vector<Transaction> backlog;
    backlog.reserve(n);
    for (Timestamp ts = 1; ts <= n; ++ts) {
      backlog.push_back(make_txn(0, ts, 3));
    }
    state.ResumeTiming();
    for (auto it = backlog.rbegin(); it != backlog.rend(); ++it) {
      engine.ingest(*it);
    }
    if (engine.pending_count() != 0) {
      state.SkipWithError("backlog did not drain");
      break;
    }
    benchmark::DoNotOptimize(engine.state_vector());
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n));
}

void BM_BacklogDrainIndexed(benchmark::State& state) {
  run_backlog(state, /*masking=*/false);
}
BENCHMARK(BM_BacklogDrainIndexed)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_BacklogDrainMaskedIndexed(benchmark::State& state) {
  run_backlog(state, /*masking=*/true);
}
BENCHMARK(BM_BacklogDrainMaskedIndexed)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace colony
