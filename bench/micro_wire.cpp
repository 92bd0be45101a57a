// Wire framing round-trip costs. The zero-copy hot path (single-allocation
// frame::encode, decode_view straight out of the delivered buffer) is
// benchmarked against a faithful reimplementation of the seed's owning
// path (trailer re-encode + insert splice on send, payload copy + tail
// copy on receive), so BENCH_micro.json carries before and after numbers —
// both ns/op and allocations per round trip.
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "core/txn.hpp"
#include "crdt/counter.hpp"
#include "sim/network.hpp"
#include "util/codec.hpp"

namespace colony {
namespace {

Transaction make_txn() {
  Transaction txn;
  txn.meta.dot = Dot{7, 42};
  txn.meta.origin = 7;
  txn.meta.snapshot = VersionVector{10, 20, 30};
  txn.meta.mark_accepted(1, 21);
  for (int i = 0; i < 4; ++i) {
    txn.ops.push_back(OpRecord{{"bucket", "key" + std::to_string(i)},
                               CrdtType::kPnCounter,
                               PnCounter::prepare_add(i)});
  }
  return txn;
}

Bytes make_payload() { return codec::to_bytes(make_txn()); }

/// The seed's frame::encode, reimplemented verbatim for comparison: build
/// the header+payload in one encoder, then a second encoder for the crc
/// trailer, spliced on with insert.
Bytes legacy_encode(std::uint32_t kind, const Bytes& payload) {
  Encoder enc;
  enc.u32(kind);
  enc.u32(static_cast<std::uint32_t>(payload.size()));
  enc.raw(payload);
  Bytes frm = enc.take();
  const std::uint32_t crc = sim::frame::crc32c(frm);
  Encoder trailer;
  trailer.u32(crc);
  frm.insert(frm.end(), trailer.data().begin(), trailer.data().end());
  return frm;
}

void BM_FrameRoundTripZeroCopy(benchmark::State& state) {
  const Bytes payload = make_payload();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    const Bytes frm = sim::frame::encode(17, payload);
    const auto view = sim::frame::decode_view(frm);
    // Receive side: RPC envelope peeled as views, no payload copy.
    Decoder dec(view->payload);
    benchmark::DoNotOptimize(dec.tail_view());
    benchmark::DoNotOptimize(view->kind);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FrameRoundTripZeroCopy);

void BM_FrameRoundTripOwningSeed(benchmark::State& state) {
  const Bytes payload = make_payload();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    const Bytes frm = legacy_encode(17, payload);
    const auto view = sim::frame::decode_view(frm);
    const Bytes owned(view->payload.begin(), view->payload.end());
    // Receive side as seeded: the dispatcher tail()-copied the envelope.
    Decoder dec(owned);
    benchmark::DoNotOptimize(dec.tail());
    benchmark::DoNotOptimize(view->kind);
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FrameRoundTripOwningSeed);

void BM_FrameTypedRoundTrip(benchmark::State& state) {
  // End to end: encode a transaction, seal, open, decode the transaction.
  // Dominated by the typed codec (which must own its Bytes fields), so the
  // framing win shows up as a smaller but real delta.
  const Bytes payload = make_payload();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    const Bytes frm = sim::frame::encode(17, payload);
    const auto view = sim::frame::decode_view(frm);
    benchmark::DoNotOptimize(codec::from_bytes<Transaction>(view->payload));
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FrameTypedRoundTrip);

void BM_FrameEncodeOnly(benchmark::State& state) {
  const Bytes payload = make_payload();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::frame::encode(17, payload));
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FrameEncodeOnly);

/// The transaction codec alone, without framing: what every push,
/// replication, edge commit and WAL record of a transaction pays.
void BM_TxnEncode(benchmark::State& state) {
  const Transaction txn = make_txn();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::to_bytes(txn));
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TxnEncode);

void BM_TxnDecode(benchmark::State& state) {
  const Bytes payload = make_payload();
  benchalloc::Scope allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec::from_bytes<Transaction>(payload));
  }
  state.counters["allocs/op"] = benchmark::Counter(
      static_cast<double>(allocs.allocs()), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_TxnDecode);

void run_checksum(benchmark::State& state,
                  std::uint32_t (*checksum)(ByteView)) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

/// The frame checksum alone, over `range(0)` bytes, on the path this CPU
/// selects: the cost every frame pays once on send, once on delivery, and
/// once per WAL append and scan.
void BM_FrameCrc32(benchmark::State& state) {
  run_checksum(state, &sim::frame::crc32c);
}
BENCHMARK(BM_FrameCrc32)->Arg(64)->Arg(1024)->Arg(16 * 1024);

/// The slicing-by-8 path, which CPUs without SSE4.2 run.
void BM_FrameCrc32Portable(benchmark::State& state) {
  run_checksum(state, &sim::frame::detail::crc32c_portable);
}
BENCHMARK(BM_FrameCrc32Portable)->Arg(64)->Arg(1024)->Arg(16 * 1024);

}  // namespace
}  // namespace colony
