// Chaos-level drain equivalence: run the full fault-schedule sweep with a
// fixpoint reference drain (tests/support/reference_drain.hpp) attached to
// EVERY DC and edge visibility engine, and require the indexed scheduler
// to agree with the reference on applied set, masked set, state vector,
// and pending set at the end of each run — under partitions, duplication,
// reordering, migration, crash-restart, and reconnection backlogs.
//
// This complements tests/test_drain_equivalence.cpp (pure-engine seeded
// histories, per-event assertions): here the event stream is whatever the
// real protocol stack produces.
//
// Seed range overrides, as in test_chaos_sweep.cpp:
//   COLONY_DRAIN_SHADOW_SEED_BASE  first seed (default 1)
//   COLONY_DRAIN_SHADOW_SEEDS      how many consecutive seeds (default 100)
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "chaos_harness.hpp"

namespace colony::chaos_test {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::uint64_t parsed = std::strtoull(v, nullptr, 10);
  return parsed == 0 ? fallback : parsed;
}

std::vector<std::uint64_t> shadow_seeds() {
  const std::uint64_t base = env_u64("COLONY_DRAIN_SHADOW_SEED_BASE", 1);
  const std::uint64_t count = env_u64("COLONY_DRAIN_SHADOW_SEEDS", 100);
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) seeds.push_back(base + i);
  return seeds;
}

class DrainShadowSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DrainShadowSweep, IndexedDrainMatchesReferenceUnderChaos) {
  HarnessConfig cfg;
  cfg.seed = GetParam();
  cfg.reference_drain = true;

  Harness harness(cfg);
  const RunResult result = harness.run();
  EXPECT_TRUE(result.ok()) << "seed " << cfg.seed
                           << " baseline invariants failed:\n"
                           << result.report.to_string();

  const Cluster& cluster = harness.cluster();
  std::string why;
  for (DcId d = 0; d < cluster.num_dcs(); ++d) {
    EXPECT_TRUE(harness.dc_reference(d).matches(&why))
        << "seed " << cfg.seed << " dc" << d
        << " diverged from reference drain: " << why;
  }
  for (std::size_t i = 0; i < cluster.num_edges(); ++i) {
    EXPECT_TRUE(harness.edge_reference(i).matches(&why))
        << "seed " << cfg.seed << " edge" << i
        << " diverged from reference drain: " << why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DrainShadowSweep,
                         ::testing::ValuesIn(shadow_seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace colony::chaos_test
