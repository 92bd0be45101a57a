// Wall-clock cost of a DC's session push round: one DC commit and the
// round it triggers, with N caught-up client-cache sessions of 20 interest
// keys each. Each commit touches one key that exactly one session watches,
// so the push work is constant and what grows with N is the per-session
// part of the round.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "crdt/counter.hpp"
#include "dc/dc_node.hpp"
#include "dc/shard.hpp"
#include "edge/edge_node.hpp"

namespace colony {
namespace {

constexpr std::size_t kKeysPerSession = 20;

ObjectKey session_key(std::size_t session, std::size_t k) {
  return ObjectKey{"s" + std::to_string(session), "k" + std::to_string(k)};
}

void BM_DcPushRound(benchmark::State& state) {
  const auto sessions = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  sim::Network net(sched, /*seed=*/1);
  constexpr NodeId kDc = 1;
  constexpr NodeId kShard = 101;
  ShardServer shard(net, kShard);
  net.connect(kDc, kShard, sim::latency::kIntraDc);
  DcConfig dc_cfg;
  dc_cfg.gossip_interval = 24 * 3600 * kSecond;  // no tick inside the run
  DcNode dc(net, kDc, dc_cfg, {}, {kShard});

  // No disks: neither the DC nor the edges write WALs or checkpoints.
  std::vector<std::unique_ptr<EdgeNode>> edges;
  for (std::size_t i = 0; i < sessions; ++i) {
    EdgeConfig cfg;
    cfg.dc = kDc;
    cfg.user = i + 1;
    edges.push_back(std::make_unique<EdgeNode>(net, 10'000 + i, cfg));
    net.connect(edges.back()->id(), kDc, sim::latency::kIntraDc);
    std::vector<ObjectKey> keys;
    for (std::size_t k = 0; k < kKeysPerSession; ++k) {
      keys.push_back(session_key(i, k));
    }
    edges.back()->subscribe(std::move(keys), [](Result<void>) {});
  }
  EdgeConfig writer_cfg;
  writer_cfg.mode = ClientMode::kCloudOnly;
  writer_cfg.dc = kDc;
  EdgeNode writer(net, 9'000, writer_cfg);
  net.connect(writer.id(), kDc, sim::latency::kIntraDc);
  sched.run_until(sched.now() + 100 * kMillisecond);

  std::size_t i = 0;
  for (auto _ : state) {
    writer.cloud_execute(
        {},
        {OpRecord{session_key(i % sessions, i % kKeysPerSession),
                  CrdtType::kPnCounter, PnCounter::prepare_add(1)}},
        [](Result<proto::DcExecuteResp>) {});
    // Commit, push, and the subscriber's ack all land well inside 5 ms.
    sched.run_until(sched.now() + 5 * kMillisecond);
    benchmark::DoNotOptimize(dc.committed());
    ++i;
  }
  if (dc.committed() != i) state.SkipWithError("a commit did not land");
}
BENCHMARK(BM_DcPushRound)->Arg(32)->Arg(300);

}  // namespace
}  // namespace colony
