// Wall-clock micro-costs of the durability layer: WAL append throughput,
// checkpoint write, full recovery scans at small and large log sizes, and
// an edge node's replay of its record tail (the recovery numbers bound how
// long a crash-restarted node blocks before serving again).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "storage/wal.hpp"

namespace colony::storage {
namespace {

Bytes payload_of(std::size_t size) { return Bytes(size, 0xAB); }

void BM_WalAppend(benchmark::State& state) {
  const Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  Wal wal;
  for (auto _ : state) {
    wal.append(1, payload);
    // Keep the simulated disk bounded so the benchmark measures framing +
    // CRC cost, not unbounded vector growth.
    if (wal.log_bytes() > (64u << 20)) {
      state.PauseTiming();
      wal.clear();
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024);

void BM_WalCheckpoint(benchmark::State& state) {
  const Bytes snapshot = payload_of(16 * 1024);
  for (auto _ : state) {
    state.PauseTiming();
    Wal wal;
    wal.append(1, payload_of(128));
    state.ResumeTiming();
    wal.write_checkpoint(snapshot);
  }
}
BENCHMARK(BM_WalCheckpoint);

/// Recovery scan of a log with `range(0)` records (no checkpoint: the
/// worst case, a genesis replay).
void BM_WalRecover(benchmark::State& state) {
  Wal wal;
  const Bytes payload = payload_of(128);
  const auto records = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < records; ++i) wal.append(1, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.recover());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WalRecover)->Arg(1000)->Arg(20000)->Complexity();

/// Recovery when a fresh checkpoint covers most of the log: the common
/// restart case — scan cost is dominated by the snapshot copy plus the
/// short tail.
void BM_WalRecoverCheckpointed(benchmark::State& state) {
  Wal wal;
  const Bytes payload = payload_of(128);
  const auto records = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < records; ++i) wal.append(1, payload);
  wal.write_checkpoint(payload_of(16 * 1024));
  for (std::uint64_t i = 0; i < 32; ++i) wal.append(1, payload);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.recover());
  }
}
BENCHMARK(BM_WalRecoverCheckpointed)->Arg(20000);

/// Checkpoint truncation of a log with `range(0)` records below the newest
/// checkpoint: the periodic-compaction cost a DC pays right after writing a
/// checkpoint. Dominated by the prefix erase + checkpoint-stream rescan.
void BM_WalTruncateToCheckpoint(benchmark::State& state) {
  Wal pristine;
  const Bytes payload = payload_of(128);
  const auto records = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < records; ++i) pristine.append(1, payload);
  pristine.write_checkpoint(payload_of(16 * 1024));
  for (std::uint64_t i = 0; i < 32; ++i) pristine.append(1, payload);
  std::uint64_t reclaimed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Wal wal = pristine;  // truncation mutates; copy outside the clock
    state.ResumeTiming();
    reclaimed = wal.truncate_to_checkpoint();
    benchmark::DoNotOptimize(reclaimed);
  }
  state.counters["reclaimed_bytes"] = static_cast<double>(reclaimed);
}
BENCHMARK(BM_WalTruncateToCheckpoint)->Arg(1000)->Arg(20000);

/// Recovery of an offline replica from a copy of a client-cache edge's WAL
/// holding at least `range(0)` records and no checkpoint: the edge's own
/// commits with their DC acks, and the DC's pushes of a writer's commits
/// to the edge's interest. This is the replay a crash-restart (or
/// EdgeNode::verify_recovery) runs through the edge's record handlers.
void BM_EdgeRecover(benchmark::State& state) {
  ClusterConfig cluster_cfg;
  cluster_cfg.num_dcs = 1;
  Cluster cluster(cluster_cfg);
  EdgeNode& writer = cluster.add_edge(ClientMode::kCloudOnly, 0, 1);

  constexpr NodeId kEdgeId = 90'000;
  Wal disk;
  EdgeConfig cfg;
  cfg.mode = ClientMode::kClientCache;
  cfg.dc = cluster.dc_node_id(0);
  cfg.user = 2;
  cfg.disk = &disk;
  cfg.checkpoint_interval = 3600 * kSecond;  // the whole history is tail
  EdgeNode edge(cluster.network(), kEdgeId, cfg);
  cluster.network().connect(kEdgeId, cfg.dc, cluster_cfg.edge_uplink);
  Session session(edge);
  std::vector<ObjectKey> keys;
  for (int i = 0; i < 16; ++i) keys.push_back({"bench", std::to_string(i)});
  session.subscribe(keys, [](Result<void>) {});
  cluster.run_for(1 * kSecond);

  const auto records = static_cast<std::uint64_t>(state.range(0));
  for (std::size_t i = 0; disk.records_since_checkpoint() < records; ++i) {
    auto txn = session.begin();
    session.increment(txn, keys[i % keys.size()], 1);
    (void)session.commit(std::move(txn));
    writer.cloud_execute({},
                         {OpRecord{keys[(i + 7) % keys.size()],
                                   CrdtType::kPnCounter,
                                   PnCounter::prepare_add(1)}},
                         [](Result<proto::DcExecuteResp>) {});
    cluster.run_for(5 * kMillisecond);
  }

  for (auto _ : state) {
    state.PauseTiming();
    Wal copy(disk);
    sim::Scheduler scheduler;
    sim::Network net(scheduler, /*seed=*/1);
    EdgeConfig replica_cfg = cfg;
    replica_cfg.disk = &copy;
    state.ResumeTiming();
    EdgeNode replica(net, kEdgeId, replica_cfg);
    replica.recover(/*reconnect=*/false);
    benchmark::DoNotOptimize(replica.commits_issued());
  }
  state.counters["records"] =
      static_cast<double>(disk.records_since_checkpoint());
}
BENCHMARK(BM_EdgeRecover)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace colony::storage
