#include "check/invariants.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "crdt/counter.hpp"

namespace colony::check {

namespace {

std::string replica_name(DcId dc) { return "dc" + std::to_string(dc); }

std::string replica_name(const EdgeNode& edge) {
  return "edge" + std::to_string(edge.id());
}

/// Byte-identical state comparison via the CRDT checkpoint encoding.
bool same_state(const Crdt& a, const Crdt& b) {
  return a.type() == b.type() && a.snapshot() == b.snapshot();
}

const PnCounter* as_counter(const Crdt* c) {
  return dynamic_cast<const PnCounter*>(c);
}

void check_no_duplicate_dots(const JournalStore& store,
                             const std::string& replica, Report& report) {
  for (const ObjectKey& key : store.keys()) {
    const std::vector<Dot> dots = store.applied_dots(key);
    std::unordered_set<Dot> unique(dots.begin(), dots.end());
    if (unique.size() != dots.size()) {
      report.add("exactly-once",
                 replica + " applied a dot twice into " + key.full() +
                     " (" + std::to_string(dots.size()) + " entries, " +
                     std::to_string(unique.size()) + " distinct)");
    }
  }
}

/// Per-origin dot counters must appear in strictly increasing order in any
/// causally-correct visibility log: same-origin transactions are chained by
/// their pending-dependency links (section 3.7).
void check_origin_order(const std::vector<Dot>& log, const std::string& replica,
                        Report& report) {
  std::unordered_map<NodeId, std::uint64_t> last;
  for (const Dot& dot : log) {
    auto [it, fresh] = last.try_emplace(dot.origin, dot.counter);
    if (!fresh) {
      if (dot.counter <= it->second) {
        report.add("causal-order",
                   replica + " log applies " + dot.to_string() +
                       " after counter " + std::to_string(it->second) +
                       " of the same origin");
      }
      it->second = dot.counter;
    }
  }
}

}  // namespace

std::string Report::to_string() const {
  std::string s;
  for (const Violation& v : violations_) {
    s += v.invariant + ": " + v.detail + "\n";
  }
  return s;
}

void check_convergence(const Cluster& cluster, Report& report) {
  const DcNode& reference = cluster.dc(0);

  // DC state vectors must agree at quiescence.
  for (DcId d = 1; d < cluster.num_dcs(); ++d) {
    if (!(cluster.dc(d).state_vector() == reference.state_vector())) {
      report.add("convergence",
                 replica_name(d) + " state vector " +
                     cluster.dc(d).state_vector().to_string() +
                     " != dc0 " + reference.state_vector().to_string());
    }
  }

  // Union of keys over all DCs; every DC must hold every key, byte-equal.
  std::vector<ObjectKey> all_keys;
  {
    std::unordered_set<ObjectKey> seen;
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      for (const ObjectKey& key : cluster.dc(d).store().keys()) {
        if (seen.insert(key).second) all_keys.push_back(key);
      }
    }
    std::sort(all_keys.begin(), all_keys.end());
  }
  for (const ObjectKey& key : all_keys) {
    const Crdt* ref = reference.store().current(key);
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      const Crdt* val = cluster.dc(d).store().current(key);
      if (val == nullptr) {
        report.add("convergence",
                   replica_name(d) + " is missing object " + key.full());
        continue;
      }
      if (ref != nullptr && !same_state(*ref, *val)) {
        report.add("convergence", replica_name(d) + " diverges from dc0 on " +
                                      key.full());
      }
    }
  }

  // Every cached edge object agrees with the DCs.
  for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
    const EdgeNode& edge = cluster.edge(i);
    for (const ObjectKey& key : edge.store().keys()) {
      const Crdt* local = edge.store().current(key);
      const Crdt* ref = reference.store().current(key);
      if (local == nullptr) continue;
      if (ref == nullptr) {
        report.add("convergence", replica_name(edge) + " caches " +
                                      key.full() + " unknown to dc0");
        continue;
      }
      if (!same_state(*ref, *local)) {
        report.add("convergence", replica_name(edge) +
                                      " diverges from the DCs on " +
                                      key.full());
      }
    }
  }
}

void check_causal_order(const Cluster& cluster, Report& report) {
  // Exact audit at each DC: a DC starts from the empty causal cut and its
  // state advances only by applying transactions, so every log entry's
  // effective snapshot must be covered by its predecessors' commits.
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    const DcNode& dc = cluster.dc(d);
    VersionVector running(cluster.num_dcs());
    std::size_t position = 0;
    for (const Dot& dot : dc.engine().log()) {
      const Transaction* txn = dc.txns().find(dot);
      if (txn == nullptr) {
        report.add("causal-order", replica_name(d) + " log entry " +
                                       dot.to_string() + " has no record");
        ++position;
        continue;
      }
      VersionVector effective;
      if (!dc.txns().effective_snapshot(dot, effective)) {
        report.add("causal-order",
                   replica_name(d) + " applied " + dot.to_string() +
                       " with an unresolvable snapshot");
      } else if (!effective.leq(running)) {
        report.add("causal-order",
                   replica_name(d) + " applied " + dot.to_string() +
                       " at position " + std::to_string(position) +
                       " with snapshot " + effective.to_string() +
                       " not covered by prior commits " +
                       running.to_string());
      }
      running.merge(txn->meta.commit_lub());
      ++position;
    }
    check_origin_order(dc.engine().log(), replica_name(d), report);
  }

  // Edges seed their baseline from checkout/fetch cuts, so the running-
  // vector audit does not apply; instead assert the log is inversion-free:
  // no entry causally depends on a later entry.
  for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
    const EdgeNode& edge = cluster.edge(i);
    const auto& entries = edge.engine().log();
    check_origin_order(entries, replica_name(edge), report);

    std::vector<const Transaction*> txns(entries.size(), nullptr);
    std::vector<VersionVector> snapshots(entries.size());
    std::vector<bool> resolved(entries.size(), false);
    for (std::size_t j = 0; j < entries.size(); ++j) {
      txns[j] = edge.txns().find(entries[j]);
      if (txns[j] != nullptr) {
        resolved[j] = edge.txns().effective_snapshot(entries[j], snapshots[j]);
      }
    }
    for (std::size_t a = 0; a < entries.size(); ++a) {
      if (!resolved[a]) continue;
      // Read-my-writes exemption: the edge applies its own commits eagerly
      // against its local view, but their *concrete* snapshot is resolved
      // later by the DC and may legitimately cover foreign transactions
      // the edge only displays once they are K-stable.
      if (entries[a].origin == edge.id()) continue;
      for (std::size_t b = a + 1; b < entries.size(); ++b) {
        if (txns[b] == nullptr || !txns[b]->meta.concrete) continue;
        if (txns[b]->meta.commit_lub().leq(snapshots[a])) {
          report.add("causal-order",
                     replica_name(edge) + " applied " +
                         entries[a].to_string() + " before " +
                         entries[b].to_string() +
                         " it causally depends on");
        }
      }
    }
  }
}

void check_atomic_visibility(const Cluster& cluster, Report& report) {
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    const DcNode& dc = cluster.dc(d);
    // Per-key dot index, to answer "is this dot reflected in that key?".
    std::unordered_map<ObjectKey, std::unordered_set<Dot>> reflected;
    for (const ObjectKey& key : dc.store().keys()) {
      const std::vector<Dot> dots = dc.store().applied_dots(key);
      reflected.emplace(key,
                        std::unordered_set<Dot>(dots.begin(), dots.end()));
    }
    for (const Dot& dot : dc.engine().applied_set()) {
      if (dc.engine().is_masked(dot)) continue;
      const Transaction* txn = dc.txns().find(dot);
      if (txn == nullptr) {
        report.add("atomic-visibility", replica_name(d) + " applied " +
                                            dot.to_string() +
                                            " without a record");
        continue;
      }
      for (const OpRecord& op : txn->ops) {
        const auto it = reflected.find(op.key);
        if (it == reflected.end() || !it->second.contains(dot)) {
          report.add("atomic-visibility",
                     replica_name(d) + " applied " + dot.to_string() +
                         " but its update to " + op.key.full() +
                         " is missing — partial transaction");
        }
      }
    }
  }
}

void check_k_stability(const Cluster& cluster, Report& report) {
  // Ground truth: the DCs' actual engine state vectors (not the gossiped
  // views, which lag). State vectors only grow, so any transaction visible
  // at an edge must already be K-stable under them. A crash-restarted DC
  // breaks that monotonicity *in memory only* — its knowledge survives on
  // disk and comes back at recovery — so a sample taken while a DC is down
  // is unsound and is skipped (the quiescent audit restarts every node
  // before the barrier, so the invariant is still enforced end-to-end).
  std::vector<VersionVector> states;
  states.reserve(cluster.num_dcs());
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    if (cluster.dc(d).crashed()) return;
    states.push_back(cluster.dc(d).state_vector());
  }
  const VersionVector cut =
      k_stable_cut(states, cluster.config().k_stability);

  for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
    const EdgeNode& edge = cluster.edge(i);
    // Peer groups propagate member commits below the threshold by design.
    if (edge.in_group()) continue;
    for (const Dot& dot : edge.engine().applied_set()) {
      if (dot.origin == edge.id()) continue;  // read-my-writes exemption
      const Transaction* txn = edge.txns().find(dot);
      if (txn == nullptr) continue;
      if (!txn->meta.concrete) {
        report.add("k-stability",
                   replica_name(edge) + " shows foreign txn " +
                       dot.to_string() + " without a concrete commit");
        continue;
      }
      if (!edge.txns().visible_at(dot, cut)) {
        report.add("k-stability",
                   replica_name(edge) + " shows " + dot.to_string() +
                       " which is not K-stable (K=" +
                       std::to_string(cluster.config().k_stability) +
                       ", cut " + cut.to_string() + ")");
      }
    }
  }
}

void check_exactly_once(const Cluster& cluster, Report& report) {
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    check_no_duplicate_dots(cluster.dc(d).store(), replica_name(d), report);
  }
  for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
    check_no_duplicate_dots(cluster.edge(i).store(),
                            replica_name(cluster.edge(i)), report);
  }
}

void check_durability(const Cluster& cluster, Report& report) {
  std::string why;
  for (const storage::DurableNode* node : cluster.durable_nodes()) {
    if (!node->verify_recovery(&why)) {
      report.add("durability", "recovery diverges: " + why);
    }
  }
}

void check_counter_totals(const Cluster& cluster,
                          const std::map<ObjectKey, std::int64_t>& expected,
                          Report& report) {
  for (const auto& [key, total] : expected) {
    for (DcId d = 0; d < cluster.num_dcs(); ++d) {
      const PnCounter* c = as_counter(cluster.dc(d).store().current(key));
      const std::int64_t got = c == nullptr ? 0 : c->value();
      if (got != total) {
        report.add("counter-ledger",
                   replica_name(d) + " has " + key.full() + " = " +
                       std::to_string(got) + ", workload committed " +
                       std::to_string(total));
      }
    }
    for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
      const EdgeNode& edge = cluster.edge(i);
      if (!edge.is_cached(key)) continue;
      const PnCounter* c = as_counter(edge.cached(key));
      const std::int64_t got = c == nullptr ? 0 : c->value();
      if (got != total) {
        report.add("counter-ledger",
                   replica_name(edge) + " has " + key.full() + " = " +
                       std::to_string(got) + ", workload committed " +
                       std::to_string(total));
      }
    }
  }
}

void check_safety(const Cluster& cluster, Report& report) {
  check_causal_order(cluster, report);
  check_k_stability(cluster, report);
  check_exactly_once(cluster, report);
}

void check_quiescent(const Cluster& cluster,
                     const std::map<ObjectKey, std::int64_t>& expected,
                     Report& report) {
  check_safety(cluster, report);
  check_convergence(cluster, report);
  check_atomic_visibility(cluster, report);
  check_durability(cluster, report);
  check_counter_totals(cluster, expected, report);
}

}  // namespace colony::check
