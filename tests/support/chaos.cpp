#include "support/chaos.hpp"

#include <algorithm>
#include <optional>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace colony::sim {

const char* to_string(ChaosEventType t) {
  switch (t) {
    case ChaosEventType::kLinkDown:
      return "link-down";
    case ChaosEventType::kLinkUp:
      return "link-up";
    case ChaosEventType::kNodeCrash:
      return "node-crash";
    case ChaosEventType::kNodeRecover:
      return "node-recover";
    case ChaosEventType::kDuplicateOn:
      return "duplicate-on";
    case ChaosEventType::kDuplicateOff:
      return "duplicate-off";
    case ChaosEventType::kReorderOn:
      return "reorder-on";
    case ChaosEventType::kReorderOff:
      return "reorder-off";
    case ChaosEventType::kClockSkew:
      return "clock-skew";
    case ChaosEventType::kMigrateEdge:
      return "migrate-edge";
    case ChaosEventType::kHealAll:
      return "heal-all";
    case ChaosEventType::kCorruptOn:
      return "corrupt-on";
    case ChaosEventType::kCorruptOff:
      return "corrupt-off";
    case ChaosEventType::kCrashRestart:
      return "crash-restart";
    case ChaosEventType::kRestart:
      return "restart";
  }
  return "?";
}

std::string ChaosEvent::to_string() const {
  std::string s = "@" + std::to_string(at) + "us " +
                  colony::sim::to_string(type);
  if (a != 0) s += " a=" + std::to_string(a);
  if (b != 0) s += " b=" + std::to_string(b);
  if (arg != 0) s += " arg=" + std::to_string(arg);
  return s;
}

namespace {

// Fault classes drawn inside an epoch's fault window, in weight order.
enum Class : std::size_t {
  kClassPartition = 0,
  kClassCrash,
  kClassDuplicate,
  kClassReorder,
  kClassCorrupt,
  kClassSkew,
  kClassMigrate,
  kClassCrashRestart,
  kNumClasses,
};

}  // namespace

ChaosSchedule ChaosSchedule::generate(const ChaosConfig& config,
                                      const ChaosTopology& topo) {
  COLONY_ASSERT(!topo.dcs.empty(), "chaos needs at least one DC");
  COLONY_ASSERT(config.epochs >= 1, "chaos needs at least one epoch");
  Rng rng(config.seed);
  ChaosSchedule schedule;
  schedule.seed = config.seed;

  std::vector<double> weights(kNumClasses, 0.0);
  weights[kClassPartition] =
      (topo.dcs.size() >= 2 || !topo.edges.empty()) ? config.w_partition : 0;
  weights[kClassCrash] = config.w_crash;
  weights[kClassDuplicate] = config.w_duplicate;
  weights[kClassReorder] = config.w_reorder;
  weights[kClassCorrupt] = config.w_corrupt;
  weights[kClassSkew] = topo.edges.empty() ? 0 : config.w_skew;
  weights[kClassMigrate] =
      (topo.dcs.size() >= 2 && !topo.edges.empty()) ? config.w_migrate : 0;
  weights[kClassCrashRestart] = config.w_crash_restart;
  const Weighted pick_class(weights);

  const double mean_gap_us =
      1e6 / std::max(config.faults_per_second, 1e-6);

  auto outage = [&](SimTime at, SimTime epoch_end) -> std::optional<SimTime> {
    const SimTime d = rng.between(config.min_outage, config.max_outage);
    // A repair landing past the barrier is subsumed by its heal-all; skip
    // it so shrunk schedules stay free of stray repair events.
    if (at + d >= epoch_end) return std::nullopt;
    return at + d;
  };
  auto pick_node = [&](const std::vector<NodeId>& v) {
    return v[rng.below(v.size())];
  };

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    const SimTime start = epoch * config.epoch_length;
    const SimTime end = start + config.epoch_length;
    const SimTime window_end =
        start + static_cast<SimTime>(config.fault_fraction *
                                     static_cast<double>(config.epoch_length));
    SimTime t = start;
    while (true) {
      t += std::max<SimTime>(
          static_cast<SimTime>(rng.exponential(mean_gap_us)), 1);
      if (t >= window_end) break;

      switch (pick_class.sample(rng)) {
        case kClassPartition: {
          NodeId a, b;
          // Partition the DC mesh or an edge uplink, whichever the
          // topology offers (both: 50/50).
          const bool mesh =
              topo.dcs.size() >= 2 && (topo.edges.empty() || rng.chance(0.5));
          if (mesh) {
            const std::size_t i = rng.below(topo.dcs.size());
            std::size_t j = rng.below(topo.dcs.size() - 1);
            if (j >= i) ++j;
            a = topo.dcs[i];
            b = topo.dcs[j];
          } else {
            a = pick_node(topo.edges);
            b = pick_node(topo.dcs);
          }
          schedule.events.push_back(
              {t, ChaosEventType::kLinkDown, a, b, 0});
          if (const auto up = outage(t, end)) {
            schedule.events.push_back(
                {*up, ChaosEventType::kLinkUp, a, b, 0});
          }
          break;
        }
        case kClassCrash: {
          const bool dc = topo.edges.empty() || rng.chance(0.5);
          const NodeId node = dc ? pick_node(topo.dcs) : pick_node(topo.edges);
          schedule.events.push_back(
              {t, ChaosEventType::kNodeCrash, node, 0, 0});
          if (const auto up = outage(t, end)) {
            schedule.events.push_back(
                {*up, ChaosEventType::kNodeRecover, node, 0, 0});
          }
          break;
        }
        case kClassDuplicate: {
          const std::uint64_t ppm = rng.between(1, config.max_dup_ppm);
          schedule.events.push_back(
              {t, ChaosEventType::kDuplicateOn, 0, 0, ppm});
          if (const auto off = outage(t, end)) {
            schedule.events.push_back(
                {*off, ChaosEventType::kDuplicateOff, 0, 0, 0});
          }
          break;
        }
        case kClassReorder: {
          const std::uint64_t ppm = rng.between(1, config.max_reorder_ppm);
          schedule.events.push_back(
              {t, ChaosEventType::kReorderOn, 0, 0, ppm});
          if (const auto off = outage(t, end)) {
            schedule.events.push_back(
                {*off, ChaosEventType::kReorderOff, 0, 0, 0});
          }
          break;
        }
        case kClassCorrupt: {
          const std::uint64_t ppm = rng.between(1, config.max_corrupt_ppm);
          schedule.events.push_back(
              {t, ChaosEventType::kCorruptOn, 0, 0, ppm});
          if (const auto off = outage(t, end)) {
            schedule.events.push_back(
                {*off, ChaosEventType::kCorruptOff, 0, 0, 0});
          }
          break;
        }
        case kClassSkew: {
          schedule.events.push_back({t, ChaosEventType::kClockSkew,
                                     pick_node(topo.edges), 0,
                                     rng.between(1, config.max_skew_us)});
          break;
        }
        case kClassMigrate: {
          schedule.events.push_back({t, ChaosEventType::kMigrateEdge,
                                     pick_node(topo.edges), 0,
                                     rng.below(topo.dcs.size())});
          break;
        }
        case kClassCrashRestart: {
          const bool dc = topo.edges.empty() || rng.chance(0.5);
          const NodeId node = dc ? pick_node(topo.dcs) : pick_node(topo.edges);
          schedule.events.push_back(
              {t, ChaosEventType::kCrashRestart, node, 0, 0});
          if (const auto up = outage(t, end)) {
            schedule.events.push_back(
                {*up, ChaosEventType::kRestart, node, 0, 0});
          }
          break;
        }
        default:
          break;
      }
    }
    schedule.events.push_back({end, ChaosEventType::kHealAll, 0, 0, 0});
  }

  std::stable_sort(schedule.events.begin(), schedule.events.end(),
                   [](const ChaosEvent& x, const ChaosEvent& y) {
                     return x.at < y.at;
                   });
  return schedule;
}

std::vector<SimTime> ChaosSchedule::barriers() const {
  std::vector<SimTime> out;
  for (const ChaosEvent& e : events) {
    if (e.type == ChaosEventType::kHealAll) out.push_back(e.at);
  }
  return out;
}

std::string ChaosSchedule::to_string() const {
  std::string s = "chaos-schedule seed=" + std::to_string(seed) +
                  " events=" + std::to_string(events.size()) + "\n";
  for (const ChaosEvent& e : events) {
    s += "  " + e.to_string() + "\n";
  }
  return s;
}

std::vector<ChaosEvent> shrink_schedule(
    std::vector<ChaosEvent> events,
    const std::function<bool(const std::vector<ChaosEvent>&)>& still_fails,
    std::size_t max_trials) {
  const auto fault_indexes = [](const std::vector<ChaosEvent>& ev) {
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      if (ev[i].type != ChaosEventType::kHealAll) idx.push_back(i);
    }
    return idx;
  };

  std::size_t trials = 0;
  std::size_t chunk = std::max<std::size_t>(fault_indexes(events).size() / 2,
                                            1);
  while (trials < max_trials) {
    const auto faults = fault_indexes(events);
    if (faults.empty()) break;
    chunk = std::min(chunk, faults.size());

    bool removed = false;
    for (std::size_t pos = 0; pos < faults.size() && trials < max_trials;
         pos += chunk) {
      const std::size_t n = std::min(chunk, faults.size() - pos);
      // Drop fault events faults[pos..pos+n).
      std::vector<ChaosEvent> trial;
      trial.reserve(events.size() - n);
      std::size_t next = pos;
      for (std::size_t i = 0; i < events.size(); ++i) {
        if (next < pos + n && i == faults[next]) {
          ++next;
          continue;
        }
        trial.push_back(events[i]);
      }
      ++trials;
      if (still_fails(trial)) {
        events = std::move(trial);
        removed = true;
        break;  // re-derive fault indexes against the smaller schedule
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(chunk / 2, 1);
    }
  }
  return events;
}

void ChaosRunner::arm() {
  const SimTime base = net_.now();
  for (const ChaosEvent& e : events_) {
    if (e.type == ChaosEventType::kHealAll) continue;
    net_.scheduler().at(base + e.at, [this, e] { apply(e); });
  }
}

void ChaosRunner::arm_window(SimTime origin, SimTime until) {
  const SimTime base = net_.now();
  for (const ChaosEvent& e : events_) {
    if (e.type == ChaosEventType::kHealAll) continue;
    if (e.at < origin || e.at >= until) continue;
    net_.scheduler().at(base + (e.at - origin), [this, e] { apply(e); });
  }
}

void ChaosRunner::apply(const ChaosEvent& event) {
  switch (event.type) {
    case ChaosEventType::kLinkDown:
      net_.set_link_up(event.a, event.b, false);
      break;
    case ChaosEventType::kLinkUp:
      net_.set_link_up(event.a, event.b, true);
      break;
    case ChaosEventType::kNodeCrash:
      net_.set_node_up(event.a, false);
      break;
    case ChaosEventType::kNodeRecover:
      net_.set_node_up(event.a, true);
      break;
    case ChaosEventType::kDuplicateOn:
      net_.set_duplicate_rate(static_cast<double>(event.arg) / 1e6);
      break;
    case ChaosEventType::kDuplicateOff:
      net_.set_duplicate_rate(0);
      break;
    case ChaosEventType::kReorderOn:
      net_.set_reorder_rate(static_cast<double>(event.arg) / 1e6);
      break;
    case ChaosEventType::kReorderOff:
      net_.set_reorder_rate(0);
      break;
    case ChaosEventType::kCorruptOn:
      net_.set_corrupt_rate(static_cast<double>(event.arg) / 1e6);
      break;
    case ChaosEventType::kCorruptOff:
      net_.set_corrupt_rate(0);
      break;
    case ChaosEventType::kClockSkew:
      net_.set_clock_skew(event.a, event.arg);
      skewed_.push_back(event.a);
      break;
    case ChaosEventType::kMigrateEdge:
      if (migrate_hook) migrate_hook(event.a, event.arg);
      break;
    case ChaosEventType::kCrashRestart:
      net_.set_node_up(event.a, false);
      if (crash_hook) {
        crash_hook(event.a);
        if (std::find(crashed_.begin(), crashed_.end(), event.a) ==
            crashed_.end()) {
          crashed_.push_back(event.a);
        }
      }
      break;
    case ChaosEventType::kRestart:
      if (restart_hook) {
        restart_hook(event.a);
        std::erase(crashed_, event.a);
      }
      net_.set_node_up(event.a, true);
      break;
    case ChaosEventType::kHealAll:
      reset();
      break;
  }
}

void ChaosRunner::reset() {
  // Restart crashed nodes BEFORE healing the fabric: recovery must work
  // from durable state alone, not from traffic that slips in first.
  for (const NodeId node : crashed_) {
    if (restart_hook) restart_hook(node);
    net_.set_node_up(node, true);
  }
  crashed_.clear();
  net_.heal();
  net_.set_duplicate_rate(0);
  net_.set_reorder_rate(0);
  net_.set_corrupt_rate(0);
  for (const NodeId node : skewed_) net_.set_clock_skew(node, 0);
  skewed_.clear();
}

}  // namespace colony::sim
