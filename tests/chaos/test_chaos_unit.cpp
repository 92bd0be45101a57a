// ChaosSchedule generation, schedule shrinking, ChaosRunner application,
// and end-to-end determinism of the harness itself.
#include <gtest/gtest.h>

#include <algorithm>

#include "chaos_harness.hpp"
#include "support/chaos.hpp"

namespace colony::sim {
namespace {

ChaosTopology small_topology() {
  return ChaosTopology{{1, 2, 3}, {10'005, 10'006, 10'007, 10'008}};
}

std::size_t fault_count(const std::vector<ChaosEvent>& events) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [](const ChaosEvent& e) {
        return e.type != ChaosEventType::kHealAll;
      }));
}

TEST(ChaosSchedule, SameSeedYieldsByteIdenticalSchedule) {
  ChaosConfig cfg;
  cfg.seed = 0xDEADBEEF;
  const ChaosSchedule a = ChaosSchedule::generate(cfg, small_topology());
  const ChaosSchedule b = ChaosSchedule::generate(cfg, small_topology());
  EXPECT_EQ(a.to_string(), b.to_string());
  EXPECT_EQ(a.events, b.events);
}

TEST(ChaosSchedule, DifferentSeedsDiverge) {
  ChaosConfig a_cfg, b_cfg;
  a_cfg.seed = 7;
  b_cfg.seed = 8;
  const ChaosSchedule a = ChaosSchedule::generate(a_cfg, small_topology());
  const ChaosSchedule b = ChaosSchedule::generate(b_cfg, small_topology());
  EXPECT_NE(a.to_string(), b.to_string());
}

TEST(ChaosSchedule, OneBarrierPerEpochAtEpochEnd) {
  ChaosConfig cfg;
  cfg.epochs = 4;
  cfg.epoch_length = 2 * kSecond;
  const ChaosSchedule s = ChaosSchedule::generate(cfg, small_topology());
  const std::vector<SimTime> barriers = s.barriers();
  ASSERT_EQ(barriers.size(), 4u);
  for (std::size_t i = 0; i < barriers.size(); ++i) {
    EXPECT_EQ(barriers[i], (i + 1) * cfg.epoch_length);
  }
}

TEST(ChaosSchedule, EventsSortedAndRepairsPrecedeTheirBarrier) {
  ChaosConfig cfg;
  cfg.seed = 99;
  cfg.faults_per_second = 8.0;
  const ChaosSchedule s = ChaosSchedule::generate(cfg, small_topology());
  ASSERT_GT(fault_count(s.events), 0u);
  for (std::size_t i = 1; i < s.events.size(); ++i) {
    EXPECT_LE(s.events[i - 1].at, s.events[i].at);
  }
  // Every event falls inside the run and repair events never collide with
  // a barrier (outages landing past the epoch end are subsumed by it).
  const SimTime total = cfg.epochs * cfg.epoch_length;
  for (const ChaosEvent& e : s.events) {
    EXPECT_LE(e.at, total);
    if (e.type == ChaosEventType::kLinkUp ||
        e.type == ChaosEventType::kNodeRecover) {
      EXPECT_NE(e.at % cfg.epoch_length, 0u) << e.to_string();
    }
  }
}

TEST(ChaosShrink, ReducesToTheCulpritChunk) {
  ChaosConfig cfg;
  cfg.seed = 1234;
  cfg.epochs = 3;
  cfg.faults_per_second = 10.0;  // a dense schedule worth shrinking
  ChaosSchedule s = ChaosSchedule::generate(cfg, small_topology());
  const std::size_t original = fault_count(s.events);
  ASSERT_GE(original, 20u);

  // Plant a known culprit: the failure "reproduces" iff the schedule still
  // partitions the 1<->2 DC link. The shrinker must isolate that event.
  const auto culprit = [](const std::vector<ChaosEvent>& events) {
    return std::any_of(events.begin(), events.end(), [](const ChaosEvent& e) {
      return e.type == ChaosEventType::kLinkDown &&
             ((e.a == 1 && e.b == 2) || (e.a == 2 && e.b == 1));
    });
  };
  if (!culprit(s.events)) {
    GTEST_SKIP() << "seed produced no 1<->2 partition";
  }

  const std::vector<ChaosEvent> shrunk = shrink_schedule(s.events, culprit);
  EXPECT_TRUE(culprit(shrunk));
  // Greedy halving must get well under a quarter of the original faults.
  EXPECT_LE(fault_count(shrunk) * 4, original);
  // Barriers are structural and never dropped.
  ChaosSchedule min;
  min.events = shrunk;
  EXPECT_EQ(min.barriers().size(), cfg.epochs);
}

TEST(ChaosShrink, KeepsEverythingWhenAllEventsMatter) {
  ChaosConfig cfg;
  cfg.seed = 5;
  ChaosSchedule s = ChaosSchedule::generate(cfg, small_topology());
  const std::size_t original = fault_count(s.events);
  ASSERT_GT(original, 0u);
  // Failure requires the complete fault set: nothing can be dropped.
  const auto needs_all = [original](const std::vector<ChaosEvent>& events) {
    return fault_count(events) == original;
  };
  const std::vector<ChaosEvent> shrunk = shrink_schedule(s.events, needs_all);
  EXPECT_EQ(fault_count(shrunk), original);
}

TEST(ChaosRunner, AppliesAndResetsNetworkFaults) {
  Scheduler sched;
  Network net(sched, 1);
  net.connect(1, 2, LatencyModel{1 * kMillisecond, 0});

  ChaosRunner runner(net, {});
  runner.apply({0, ChaosEventType::kLinkDown, 1, 2, 0});
  EXPECT_FALSE(net.link_up(1, 2));
  runner.apply({0, ChaosEventType::kNodeCrash, 2, 0, 0});
  EXPECT_FALSE(net.node_up(2));
  runner.apply({0, ChaosEventType::kDuplicateOn, 0, 0, 500'000});
  runner.apply({0, ChaosEventType::kClockSkew, 2, 0, 250});
  EXPECT_EQ(net.local_now(2), net.now() + 250);

  runner.reset();
  EXPECT_TRUE(net.link_up(1, 2));
  EXPECT_TRUE(net.node_up(2));
  EXPECT_EQ(net.local_now(2), net.now());
}

TEST(ChaosRunner, MigrateEventReachesTheHook) {
  Scheduler sched;
  Network net(sched, 1);
  NodeId migrated = 0;
  std::size_t target = 99;
  ChaosRunner runner(net, {});
  runner.migrate_hook = [&](NodeId node, std::size_t dc_index) {
    migrated = node;
    target = dc_index;
  };
  runner.apply({0, ChaosEventType::kMigrateEdge, 10'005, 0, 2});
  EXPECT_EQ(migrated, 10'005u);
  EXPECT_EQ(target, 2u);
}

}  // namespace
}  // namespace colony::sim

namespace colony::chaos_test {
namespace {

TEST(ChaosHarness, SameSeedReplaysByteForByte) {
  HarnessConfig cfg;
  cfg.seed = 42;
  cfg.chaos.epochs = 2;

  Harness first(cfg);
  Harness second(cfg);
  EXPECT_EQ(first.schedule().to_string(), second.schedule().to_string());

  const RunResult a = first.run();
  const RunResult b = second.run();
  EXPECT_TRUE(a.ok()) << a.report.to_string();
  EXPECT_TRUE(b.ok()) << b.report.to_string();
  EXPECT_EQ(a.final_digest, b.final_digest);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_EQ(a.report.to_string(), b.report.to_string());
}

TEST(ChaosHarness, WorkloadCommitsAndConverges) {
  HarnessConfig cfg;
  cfg.seed = 7;
  cfg.chaos.epochs = 1;

  Harness harness(cfg);
  const RunResult result = harness.run();
  EXPECT_TRUE(result.ok()) << result.report.to_string();
  EXPECT_GT(result.commits, 0u);
  EXPECT_NE(result.final_digest.find("commits="), std::string::npos);
}

}  // namespace
}  // namespace colony::chaos_test
