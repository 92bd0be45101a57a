// Chaos harness: drives a simulated cluster through a deterministic fault
// schedule while a seeded multi-client workload commits, and audits the
// TCC+ invariants at every epoch barrier (and samples the mid-run-safe
// checkers inside epochs).
//
// One Harness instance is one run: construct, call run() (or
// run(events) to replay an explicit — possibly shrunk — schedule), inspect
// the RunResult. The whole run is a pure function of HarnessConfig, so a
// failing seed reproduces byte-for-byte and shrinking can re-execute
// candidate schedules in fresh harnesses.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "crdt/counter.hpp"
#include "support/chaos.hpp"
#include "support/reference_drain.hpp"
#include "util/rng.hpp"

namespace colony::chaos_test {

struct HarnessConfig {
  std::uint64_t seed = 1;

  // Topology.
  std::size_t num_dcs = 3;
  std::size_t k_stability = 2;
  std::size_t num_edges = 4;
  std::size_t num_counters = 2;  // independent shared PN-counters
  /// Attach a fixpoint reference drain to every DC and edge engine before
  /// the settle period (dc_reference / edge_reference read them back).
  bool reference_drain = false;

  // Fault schedule (chaos.seed is overwritten with `seed`).
  sim::ChaosConfig chaos;

  // Workload pacing.
  SimTime settle = 1 * kSecond;            // subscribe + warm caches
  SimTime think_mean = 150 * kMillisecond;  // mean gap between commits
  double pair_txn_prob = 0.3;               // two-key atomic increment
  SimTime sample_interval = 400 * kMillisecond;
  SimTime quiesce_wait = 60 * kSecond;
};

struct RunResult {
  check::Report report;    // mid-run samples are tagged "@<time>us"
  bool quiesced = true;    // every barrier reached structural idleness
  std::uint64_t commits = 0;
  /// Order-stable digest of the converged state (dc0 state vector plus the
  /// final counter values): two runs of the same seed must agree exactly.
  std::string final_digest;

  [[nodiscard]] bool ok() const { return report.ok() && quiesced; }
};

class Harness {
 public:
  explicit Harness(const HarnessConfig& cfg)
      : cfg_(cfg), wl_rng_(cfg.seed ^ 0x9e3779b97f4a7c15ull) {
    cfg_.chaos.seed = cfg_.seed;
    ClusterConfig cluster_cfg;
    cluster_cfg.num_dcs = cfg_.num_dcs;
    cluster_cfg.k_stability = cfg_.k_stability;
    cluster_cfg.seed = cfg_.seed;
    cluster_ = std::make_unique<Cluster>(cluster_cfg);

    pair_keys_ = {ObjectKey{"chaos", "pair_a"}, ObjectKey{"chaos", "pair_b"}};
    for (std::size_t c = 0; c < cfg_.num_counters; ++c) {
      counter_keys_.push_back(ObjectKey{"chaos", "c" + std::to_string(c)});
    }
    std::vector<ObjectKey> all_keys = pair_keys_;
    all_keys.insert(all_keys.end(), counter_keys_.begin(),
                    counter_keys_.end());

    for (std::size_t i = 0; i < cfg_.num_edges; ++i) {
      EdgeNode& edge = cluster_->add_edge(
          ClientMode::kClientCache, static_cast<DcId>(i % cfg_.num_dcs),
          static_cast<UserId>(100 + i));
      sessions_.push_back(std::make_unique<Session>(edge));
      sessions_.back()->subscribe(all_keys, [](Result<void>) {});
    }
    if (cfg_.reference_drain) {
      for (DcId d = 0; d < cluster_->num_dcs(); ++d) {
        dc_refs_.push_back(
            std::make_unique<ReferenceDrain>(cluster_->dc(d).engine()));
      }
      for (std::size_t i = 0; i < cluster_->num_edges(); ++i) {
        edge_refs_.push_back(
            std::make_unique<ReferenceDrain>(cluster_->edge(i).engine()));
      }
    }
    cluster_->run_for(cfg_.settle);
  }

  [[nodiscard]] sim::ChaosSchedule schedule() const {
    sim::ChaosTopology topo{cluster_->dc_node_ids(),
                            cluster_->edge_node_ids()};
    return sim::ChaosSchedule::generate(cfg_.chaos, topo);
  }

  RunResult run() { return run(schedule().events); }

  /// Replay an explicit event list (used by the shrinker). Call once.
  RunResult run(const std::vector<sim::ChaosEvent>& events) {
    sim::ChaosRunner runner(cluster_->network(), events);
    runner.crash_hook = [this](NodeId node) { cluster_->crash_node(node); };
    runner.restart_hook = [this](NodeId node) {
      cluster_->restart_node(node);
    };
    runner.migrate_hook = [this](NodeId node, std::size_t dc_index) {
      for (std::size_t i = 0; i < cluster_->num_edges(); ++i) {
        if (cluster_->edge(i).id() == node) {
          cluster_->edge(i).migrate_to_dc(
              cluster_->dc_node_id(static_cast<DcId>(dc_index)),
              [](Result<void>) {});  // failure = stays pending; chaos goes on
        }
      }
    };
    // Reordering is only sound on the DC full mesh: edge<->DC session
    // channels carry FIFO-dependent push/state-update pairs, while the DC
    // replication plane buffers out-of-order transactions by design.
    const std::set<NodeId> dc_ids = [this] {
      const auto v = cluster_->dc_node_ids();
      return std::set<NodeId>(v.begin(), v.end());
    }();
    cluster_->network().set_reorder_filter([dc_ids](NodeId from, NodeId to) {
      return dc_ids.contains(from) && dc_ids.contains(to);
    });

    std::vector<SimTime> barriers;
    for (const sim::ChaosEvent& e : events) {
      if (e.type == sim::ChaosEventType::kHealAll) barriers.push_back(e.at);
    }
    if (barriers.empty()) {
      barriers.push_back(cfg_.chaos.epochs * cfg_.chaos.epoch_length);
    }

    RunResult result;
    SimTime origin = 0;
    for (const SimTime barrier : barriers) {
      runner.arm_window(origin, barrier);
      start_workload();
      const SimTime epoch_end = cluster_->now() + (barrier - origin);
      while (cluster_->now() < epoch_end) {
        cluster_->run_until(
            std::min(epoch_end, cluster_->now() + cfg_.sample_interval));
        sample_safety(result);
      }
      stop_workload();
      runner.reset();
      if (!cluster_->quiesce(cfg_.quiesce_wait)) {
        result.quiesced = false;
        result.report.add("liveness",
                          "cluster failed to quiesce at barrier @" +
                              std::to_string(barrier) + "us");
      }
      audit_quiescent(result, barrier);
      origin = barrier;
    }

    result.commits = commits_;
    result.final_digest = digest();
    return result;
  }

  [[nodiscard]] const Cluster& cluster() const { return *cluster_; }
  [[nodiscard]] const ReferenceDrain& dc_reference(DcId d) const {
    return *dc_refs_.at(d);
  }
  [[nodiscard]] const ReferenceDrain& edge_reference(std::size_t i) const {
    return *edge_refs_.at(i);
  }

 private:
  // --- workload ------------------------------------------------------------

  void start_workload() {
    ++generation_;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      schedule_action(i, generation_);
    }
  }

  void stop_workload() { ++generation_; }

  void schedule_action(std::size_t i, std::uint64_t gen) {
    const SimTime think = std::max<SimTime>(
        static_cast<SimTime>(
            wl_rng_.exponential(static_cast<double>(cfg_.think_mean))),
        1);
    cluster_->scheduler().after(think, [this, i, gen] {
      if (gen != generation_) return;  // epoch ended; client paused
      act(i);
      schedule_action(i, gen);
    });
  }

  void act(std::size_t i) {
    Session& session = *sessions_[i];
    auto txn = session.begin();
    std::vector<std::pair<ObjectKey, std::int64_t>> deltas;
    if (wl_rng_.chance(cfg_.pair_txn_prob)) {
      // Atomic two-key increment: pair_a and pair_b move in lock-step, so
      // any replica where they differ saw a torn transaction.
      const auto delta =
          static_cast<std::int64_t>(wl_rng_.between(1, 3));
      session.increment(txn, pair_keys_[0], delta);
      session.increment(txn, pair_keys_[1], delta);
      deltas = {{pair_keys_[0], delta}, {pair_keys_[1], delta}};
    } else {
      const ObjectKey& key =
          counter_keys_[wl_rng_.below(counter_keys_.size())];
      session.increment(txn, key, 1);
      deltas = {{key, 1}};
    }
    if (session.commit(std::move(txn)).ok()) {
      ++commits_;
      for (const auto& [key, delta] : deltas) ledger_[key] += delta;
    }
  }

  // --- auditing ------------------------------------------------------------

  /// Mid-run samples only run the partition-tolerant checkers; repeated
  /// sightings of the same violation are collapsed.
  void sample_safety(RunResult& result) {
    check::Report sample;
    check::check_safety(*cluster_, sample);
    check_pairs(sample);
    merge_fresh(sample, "@" + std::to_string(cluster_->now()) + "us ",
                result);
  }

  void audit_quiescent(RunResult& result, SimTime barrier) {
    check::Report audit;
    check::check_quiescent(*cluster_, ledger_, audit);
    check_pairs(audit);
    merge_fresh(audit, "barrier@" + std::to_string(barrier) + "us ", result);
  }

  /// Atomic visibility at the value level: the two pair counters are only
  /// ever incremented together, so they must be equal at every replica that
  /// holds both — at any instant, not just at quiescence.
  void check_pairs(check::Report& report) {
    auto value_of = [](const Crdt* c) -> std::int64_t {
      const auto* counter = dynamic_cast<const PnCounter*>(c);
      return counter == nullptr ? 0 : counter->value();
    };
    for (DcId d = 0; d < cluster_->num_dcs(); ++d) {
      const auto& store = cluster_->dc(d).store();
      const Crdt* a = store.current(pair_keys_[0]);
      const Crdt* b = store.current(pair_keys_[1]);
      if (a == nullptr || b == nullptr) continue;
      if (value_of(a) != value_of(b)) {
        report.add("atomic-visibility",
                   "dc" + std::to_string(d) + " pair torn: " +
                       std::to_string(value_of(a)) + " vs " +
                       std::to_string(value_of(b)));
      }
    }
    for (std::size_t i = 0; i < cluster_->num_edges(); ++i) {
      const EdgeNode& edge = cluster_->edge(i);
      if (!edge.is_cached(pair_keys_[0]) || !edge.is_cached(pair_keys_[1])) {
        continue;
      }
      const std::int64_t a = value_of(edge.cached(pair_keys_[0]));
      const std::int64_t b = value_of(edge.cached(pair_keys_[1]));
      if (a != b) {
        report.add("atomic-visibility",
                   "edge" + std::to_string(edge.id()) + " pair torn: " +
                       std::to_string(a) + " vs " + std::to_string(b));
      }
    }
  }

  void merge_fresh(const check::Report& sub, const std::string& tag,
                   RunResult& result) {
    for (const check::Violation& v : sub.violations()) {
      const std::string fingerprint = v.invariant + "|" + v.detail;
      if (seen_violations_.insert(fingerprint).second) {
        result.report.add(v.invariant, tag + v.detail);
      }
    }
  }

  [[nodiscard]] std::string digest() const {
    std::string s = "state=" + cluster_->dc(0).state_vector().to_string();
    auto append_value = [&](const ObjectKey& key) {
      const auto* c = dynamic_cast<const PnCounter*>(
          cluster_->dc(0).store().current(key));
      s += " " + key.full() + "=" +
           std::to_string(c == nullptr ? 0 : c->value());
    };
    for (const ObjectKey& key : pair_keys_) append_value(key);
    for (const ObjectKey& key : counter_keys_) append_value(key);
    s += " commits=" + std::to_string(commits_);
    return s;
  }

  HarnessConfig cfg_;
  Rng wl_rng_;  // workload randomness, independent of the schedule stream
  std::unique_ptr<Cluster> cluster_;
  // Declared after cluster_, so they detach before the engines go away.
  std::vector<std::unique_ptr<ReferenceDrain>> dc_refs_;
  std::vector<std::unique_ptr<ReferenceDrain>> edge_refs_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<ObjectKey> pair_keys_;
  std::vector<ObjectKey> counter_keys_;
  std::map<ObjectKey, std::int64_t> ledger_;
  std::set<std::string> seen_violations_;
  std::uint64_t generation_ = 0;
  std::uint64_t commits_ = 0;
};

/// The sweep test's failure handler: rerun-from-scratch predicate for the
/// shrinker. A candidate schedule "still fails" if a fresh harness running
/// it reports any violation or fails to quiesce.
inline std::vector<sim::ChaosEvent> shrink_against(
    const HarnessConfig& cfg, const std::vector<sim::ChaosEvent>& events,
    std::size_t max_trials = 64) {
  return sim::shrink_schedule(
      events,
      [&cfg](const std::vector<sim::ChaosEvent>& candidate) {
        Harness trial(cfg);
        return !trial.run(candidate).ok();
      },
      max_trials);
}

}  // namespace colony::chaos_test
