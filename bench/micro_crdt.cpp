// Wall-clock micro-costs of the CRDT data path (supporting measurements;
// the simulator measures protocol latencies, these measure CPU).
#include <benchmark/benchmark.h>

#include "crdt/counter.hpp"
#include "crdt/maps.hpp"
#include "crdt/or_set.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"

namespace colony {
namespace {

void BM_PnCounterApply(benchmark::State& state) {
  PnCounter counter;
  const Bytes op = PnCounter::prepare_add(1);
  for (auto _ : state) {
    counter.apply(op);
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_PnCounterApply);

void BM_LwwRegisterApply(benchmark::State& state) {
  LwwRegister reg;
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Bytes op =
        LwwRegister::prepare_assign("value", Arb{++n, Dot{1, n}});
    state.ResumeTiming();
    reg.apply(op);
  }
}
BENCHMARK(BM_LwwRegisterApply);

void BM_OrSetAdd(benchmark::State& state) {
  OrSet set;
  std::uint64_t n = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const Bytes op =
        OrSet::prepare_add("element" + std::to_string(n % 64), Dot{1, ++n});
    state.ResumeTiming();
    set.apply(op);
  }
}
BENCHMARK(BM_OrSetAdd);

void BM_OrSetRemovePrepare(benchmark::State& state) {
  OrSet set;
  for (std::uint64_t i = 0; i < 64; ++i) {
    set.apply(OrSet::prepare_add("element" + std::to_string(i), Dot{1, i + 1}));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.prepare_remove("element42"));
  }
}
BENCHMARK(BM_OrSetRemovePrepare);

void BM_GMapNestedUpdate(benchmark::State& state) {
  GMap map;
  const Bytes nested = PnCounter::prepare_add(1);
  for (auto _ : state) {
    map.apply(GMap::prepare_update("field", CrdtType::kPnCounter, nested));
  }
}
BENCHMARK(BM_GMapNestedUpdate);

void BM_RgaAppend(benchmark::State& state) {
  Rga seq;
  std::uint64_t n = 0;
  Dot last{};
  for (auto _ : state) {
    state.PauseTiming();
    const Arb arb{++n, Dot{1, n}};
    const Bytes op = Rga::prepare_insert(last, "message", arb);
    last = arb.dot;
    state.ResumeTiming();
    seq.apply(op);
  }
}
BENCHMARK(BM_RgaAppend);

void BM_RgaMaterialize(benchmark::State& state) {
  Rga seq;
  Dot last{};
  for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(state.range(0));
       ++i) {
    const Arb arb{i, Dot{1, i}};
    seq.apply(Rga::prepare_insert(last, "message", arb));
    last = arb.dot;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(seq.values());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RgaMaterialize)->Range(64, 4096)->Complexity();

void BM_CrdtSnapshotRoundTrip(benchmark::State& state) {
  OrSet set;
  for (std::uint64_t i = 0; i < 256; ++i) {
    set.apply(OrSet::prepare_add("element" + std::to_string(i), Dot{1, i + 1}));
  }
  for (auto _ : state) {
    OrSet copy;
    copy.restore(set.snapshot());
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_CrdtSnapshotRoundTrip);

// An append chain, the shape of a chat channel's message list.
void BM_RgaSnapshotRoundTrip(benchmark::State& state) {
  Rga seq;
  Dot last{};
  for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(state.range(0));
       ++i) {
    const Arb arb{i, Dot{1, i}};
    seq.apply(Rga::prepare_insert(last, "message", arb));
    last = arb.dot;
  }
  for (auto _ : state) {
    Rga copy;
    copy.restore(seq.snapshot());
    benchmark::DoNotOptimize(copy.size());
  }
}
BENCHMARK(BM_RgaSnapshotRoundTrip)->Arg(64)->Arg(4096);

// 64 fields, each a nested LWW register (type tag + nested snapshot) with
// one presence tag.
void BM_AwMapSnapshotRoundTrip(benchmark::State& state) {
  AwMap map;
  for (std::uint64_t i = 1; i <= 64; ++i) {
    map.apply(AwMap::prepare_update(
        "field" + std::to_string(i), CrdtType::kLwwRegister,
        LwwRegister::prepare_assign("value", Arb{i, Dot{1, i}}), Dot{1, i}));
  }
  for (auto _ : state) {
    AwMap copy;
    copy.restore(map.snapshot());
    benchmark::DoNotOptimize(copy.fields().size());
  }
}
BENCHMARK(BM_AwMapSnapshotRoundTrip);

}  // namespace
}  // namespace colony
