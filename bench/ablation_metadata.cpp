// Metadata-size ablation (paper sections 3.3-3.5): Colony bounds causal
// metadata to one vector entry per *DC*, whereas a precise representation
// of happened-before among N concurrent writers needs a vector of size N
// (Charron-Bost). The analytic table quantifies that design claim; the
// measured tables come from the framed byte transport — a small cluster
// runs a replicated workload and the network's wire counters report the
// bytes every message kind actually put on the links.
#include <cstdio>
#include <cstdint>

#include "bench_util.hpp"
#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "core/txn.hpp"
#include "crdt/counter.hpp"
#include "dc/messages.hpp"
#include "sim/network.hpp"

namespace {

void print_wire_table(const colony::WireStats& stats) {
  using colony::sim::frame::kOverheadBytes;
  std::printf("%-18s %8s %12s %10s %10s\n", "kind", "frames", "bytes",
              "B/frame", "share");
  const double total = static_cast<double>(stats.total().bytes);
  for (const auto& [kind, counter] : stats.per_kind()) {
    std::printf("%-18s %8llu %12llu %10.1f %9.1f%%\n",
                colony::proto::kind_name(kind),
                static_cast<unsigned long long>(counter.frames),
                static_cast<unsigned long long>(counter.bytes),
                static_cast<double>(counter.bytes) /
                    static_cast<double>(counter.frames),
                100.0 * static_cast<double>(counter.bytes) / total);
  }
  std::printf("%-18s %8llu %12llu   (frame overhead: %zu B each)\n", "total",
              static_cast<unsigned long long>(stats.total().frames),
              static_cast<unsigned long long>(stats.total().bytes),
              kOverheadBytes);
}

}  // namespace

int main() {
  using namespace colony;
  benchutil::header("Metadata ablation: per-DC vs per-replica vectors",
                    "Toumlilt et al., Middleware'21, sections 3.3-3.5 "
                    "(design claim) + measured wire traffic");

  constexpr std::size_t kDcs = 3;
  // A transaction carries a snapshot vector, a commit vector and a dot
  // (section 3.5); each vector component is 8 bytes (footnote 2).
  const std::size_t colony_meta =
      2 * VersionVector(kDcs).wire_size() + 2 * sizeof(std::uint64_t);

  benchutil::section("per-transaction causality metadata (bytes, analytic)");
  std::printf("%12s %18s %18s %10s\n", "replicas", "per-replica(B)",
              "colony per-DC(B)", "ratio");
  for (const std::size_t replicas :
       {10ul, 100ul, 1'000ul, 10'000ul, 100'000ul, 1'000'000ul}) {
    const std::size_t naive =
        2 * VersionVector(replicas).wire_size() + 2 * sizeof(std::uint64_t);
    std::printf("%12zu %18zu %18zu %9.0fx\n", replicas, naive, colony_meta,
                static_cast<double>(naive) /
                    static_cast<double>(colony_meta));
  }

  // --- measured: a replicated workload over the framed transport -----------
  //
  // 3 DCs (K=2), one writer edge and one reader edge. Every frame any
  // message put on a link was metered by the network at send time; the
  // per-kind table below is measurement, not offline re-encoding.
  ClusterConfig cfg;
  cfg.num_dcs = kDcs;
  cfg.k_stability = 2;
  Cluster cluster(cfg);
  EdgeNode& writer = cluster.add_edge(ClientMode::kClientCache, 0, 1);
  EdgeNode& reader = cluster.add_edge(ClientMode::kClientCache, 1, 2);
  const ObjectKey key{"chat", "ws.0.ch.5.msgs"};

  Session ws(writer), rs(reader);
  rs.subscribe({key}, [](Result<void>) {});
  cluster.run_for(kSecond);
  cluster.network().wire_stats().clear();  // drop setup traffic

  constexpr int kTxns = 50;
  for (int i = 0; i < kTxns; ++i) {
    auto txn = ws.begin();
    ws.increment(txn, key, 1);
    ws.commit(std::move(txn));
    cluster.run_for(200 * kMillisecond);
  }
  cluster.quiesce(30 * kSecond);

  const WireStats& stats = cluster.network().wire_stats();
  benchutil::section("measured wire traffic per kind (50 txns, 3 DCs, K=2)");
  print_wire_table(stats);

  benchutil::section("measured per-transaction replication cost");
  const WireStats::Counter repl = stats.for_kind(proto::kReplicateTxn);
  const WireStats::Counter push = stats.for_kind(proto::kPushTxn);
  const WireStats::Counter commit = stats.for_kind(proto::kEdgeCommit);
  if (repl.frames > 0) {
    std::printf("replicate-txn: %.1f B/frame — each commit crosses the DC "
                "mesh %.1f times\n",
                static_cast<double>(repl.bytes) /
                    static_cast<double>(repl.frames),
                static_cast<double>(repl.frames) / kTxns);
  }
  if (push.frames > 0) {
    std::printf("push-txn:      %.1f B/frame to session subscribers\n",
                static_cast<double>(push.bytes) /
                    static_cast<double>(push.frames));
  }
  if (commit.frames > 0) {
    std::printf("edge-commit:   %.1f B/frame (request+response average)\n",
                static_cast<double>(commit.bytes) /
                    static_cast<double>(commit.frames));
  }
  std::printf("metadata share of a minimal 1-op transaction: %zu B of %zu B "
              "encoded\n",
              colony_meta, [] {
                Transaction txn;
                txn.meta.dot = Dot{12345, 1};
                txn.meta.origin = 12345;
                txn.meta.user = 42;
                txn.meta.snapshot = VersionVector(kDcs);
                txn.meta.mark_accepted(0, 7);
                txn.ops.push_back(OpRecord{{"chat", "ws.0.ch.5.msgs"},
                                           CrdtType::kPnCounter,
                                           PnCounter::prepare_add(1)});
                return codec::to_bytes(txn).size();
              }());

  benchutil::section("equivalent-commit optimisation (section 3.8)");
  // After migration a transaction may hold up to N commit timestamps; the
  // compact encoding stores them in one vector + a 4-byte mask instead of
  // N full vectors.
  TxnMeta meta;
  meta.snapshot = VersionVector(kDcs);
  meta.mark_accepted(0, 5);
  meta.mark_accepted(2, 9);
  const std::size_t compact = codec::to_bytes(meta).size();
  const std::size_t naive_equiv =
      VersionVector(kDcs).wire_size() * 2  // snapshot + 1st commit vector
      + VersionVector(kDcs).wire_size()    // 2nd equivalent commit vector
      + 2 * sizeof(std::uint64_t);
  std::printf("2 equivalent commits, compact encoding: %zu bytes "
              "(naive per-vector: %zu bytes)\n",
              compact, naive_equiv);
  return 0;
}
