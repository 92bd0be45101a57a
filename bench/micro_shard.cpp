// Shard reads of a chat channel (an RGA of n messages) over the RPC path:
// the read the cloud-only baseline sends for every action. A read of an
// unchanged object ships the bytes kept from the previous read; a read
// right after an apply encodes the object again.
#include <benchmark/benchmark.h>

#include "crdt/rga.hpp"
#include "dc/shard.hpp"

namespace colony {
namespace {

constexpr NodeId kShard = 2;
constexpr NodeId kClient = 3;
const ObjectKey kChannel{"ws", "channel"};

struct Client final : sim::RpcActor {
  Client(sim::Network& net, NodeId id) : RpcActor(net, id) {}
  void on_message(NodeId, std::uint32_t, ByteView) override {}
  void on_request(NodeId, std::uint32_t, ByteView, ReplyFn reply) override {
    reply(Error{Error::Code::kInvalidArgument, "not a server"});
  }
};

class ShardChannel {
 public:
  explicit ShardChannel(std::uint64_t messages) {
    net_.connect(kShard, kClient, sim::LatencyModel{kMillisecond, 0});
    for (std::uint64_t i = 1; i <= messages; ++i) {
      const Dot after = i == 1 ? Dot{} : Dot{1, i - 1};
      apply(OpRecord{kChannel, CrdtType::kRga,
                     Rga::prepare_insert(after, "message",
                                         Arb{i, Dot{1, i}})});
    }
  }

  /// One op at the next seq, under a fresh dot.
  void apply(OpRecord op) {
    ++seq_;
    proto::ShardApplyMsg msg;
    msg.seq = seq_;
    msg.dot = Dot{2, seq_};
    msg.ops.push_back(std::move(op));
    net_.send(kClient, kShard, proto::kShardApply, codec::to_bytes(msg));
    sched_.run_until(sched_.now() + 2 * kMillisecond);
  }

  /// Size of the state one read returns.
  std::size_t read() {
    std::size_t bytes = 0;
    bool done = false;
    client_.call(kShard, proto::kShardRead,
                 proto::ShardReadReq{kChannel, seq_}, [&](Result<Bytes> r) {
                   bytes = r.ok() ? r.value().size() : 0;
                   done = true;
                 });
    while (!done && sched_.step()) {
    }
    return bytes;
  }

 private:
  sim::Scheduler sched_;
  sim::Network net_{sched_, 1};
  ShardServer shard_{net_, kShard};
  Client client_{net_, kClient};
  std::uint64_t seq_ = 0;
};

void BM_ShardReadRga(benchmark::State& state) {
  ShardChannel channel(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(channel.read());
}
BENCHMARK(BM_ShardReadRga)->Arg(64)->Arg(1024);

/// Each read follows an op on the channel (a remove of its first message,
/// so the size stays n).
void BM_ShardReadRgaAfterApply(benchmark::State& state) {
  ShardChannel channel(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    channel.apply(OpRecord{kChannel, CrdtType::kRga,
                           Rga::prepare_remove(Dot{1, 1})});
    benchmark::DoNotOptimize(channel.read());
  }
}
BENCHMARK(BM_ShardReadRgaAfterApply)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace colony
