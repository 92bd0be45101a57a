// ColonyChat workload driver: runs the synthetic Mattermost-style trace
// against a Cluster in one of the three client configurations and collects
// the metrics the paper's figures plot (latency by hit class, throughput,
// time series).
//
// Closed-loop load: every client thinks, performs an action (open/read a
// channel, possibly post), waits for the response, and repeats. Activity is
// Pareto-skewed across clients; bots are write-heavy.
#pragma once

#include <memory>
#include <vector>

#include "chat/model.hpp"
#include "chat/trace.hpp"
#include "colony/cluster.hpp"
#include "colony/session.hpp"
#include "util/metrics.hpp"

namespace colony::chat {

struct ChatDriverConfig {
  ClientMode mode = ClientMode::kPeerGroup;
  std::size_t clients = 36;
  /// Peer-group mode: members per group (0 = all clients in one group).
  std::size_t group_size = 12;
  TraceConfig trace;
  SimTime think_time = 100 * kMillisecond;
  SimTime day_length = 60 * kSecond;  // diurnal period when trace.diurnal
  std::size_t cache_capacity = 64;    // objects per client cache
  std::uint64_t seed = 7;
};

class ChatDriver {
 public:
  ChatDriver(Cluster& cluster, ChatDriverConfig config);

  /// Subscribe, join groups, and start the action loops.
  void start();
  /// Stop issuing new actions (in-flight ones finish).
  void stop() { stopped_ = true; }

  // --- metrics ---------------------------------------------------------------

  [[nodiscard]] const LatencyHistogram& latency(ReadSource src) const {
    return latency_[static_cast<std::size_t>(src)];
  }
  [[nodiscard]] const LatencyHistogram& overall_latency() const {
    return overall_;
  }
  [[nodiscard]] const ThroughputCounter& throughput() const {
    return throughput_;
  }
  [[nodiscard]] const Series& series(ReadSource src) const {
    return series_[static_cast<std::size_t>(src)];
  }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t failed_reads() const { return failed_reads_; }
  [[nodiscard]] std::uint64_t stalled_commits() const {
    return stalled_commits_;
  }

  void clear_metrics();

  /// Route one client's latencies into a separate series (the migrating /
  /// disconnected user of Figures 6-7), leaving the rest in the normal
  /// per-source series.
  void spotlight(std::size_t client_index) { spotlight_ = client_index; }
  [[nodiscard]] const Series& spotlight_series() const {
    return spotlight_series_;
  }
  [[nodiscard]] const LatencyHistogram& spotlight_latency() const {
    return spotlight_latency_;
  }

  /// Delay one client's session setup (a user who joins mid-run, Fig. 7).
  void set_start_delay(std::size_t client_index, SimTime delay);

  /// The channel keys a client's script subscribes to (for re-subscribing
  /// after a rejoin).
  [[nodiscard]] std::vector<ObjectKey> client_interest(std::size_t i) const;

  /// Re-attach a client to its group and refresh its cache (reconnection in
  /// Figure 6).
  void rejoin_group(std::size_t client_index);

  // --- topology access (failure injection in the figures) --------------------

  [[nodiscard]] std::size_t group_count() const { return parents_.size(); }
  PeerGroupParent& parent(std::size_t g) { return *parents_.at(g); }
  EdgeNode& client(std::size_t i) { return clients_.at(i).session->node(); }
  [[nodiscard]] std::vector<NodeId> group_node_ids(std::size_t g) const;
  [[nodiscard]] std::size_t group_of(std::size_t client_index) const;

 private:
  struct ClientState {
    std::unique_ptr<Session> session;
    std::unique_ptr<UserScript> script;
    std::size_t group = SIZE_MAX;
    bool running = false;
    SimTime start_delay = 0;
    bool reaction_pending = false;  // bot debounce
  };

  void setup_client(std::size_t i);
  void seed_entities(std::size_t i);
  void install_bot_reactions(std::size_t i);
  void bot_react(std::size_t i, const ObjectKey& channel);
  void schedule_next(std::size_t i);
  void act(std::size_t i);
  void act_cached(std::size_t i, const Action& action);
  void act_cloud(std::size_t i, const Action& action);
  void finish_action(std::size_t i, SimTime started, ReadSource src,
                     bool ok);
  void record_latency(std::size_t i, SimTime started, ReadSource src);

  Cluster& cluster_;
  ChatDriverConfig config_;
  Rng rng_;
  std::vector<ClientState> clients_;
  std::vector<PeerGroupParent*> parents_;
  bool stopped_ = false;

  LatencyHistogram latency_[3];
  LatencyHistogram overall_;
  ThroughputCounter throughput_;
  Series series_[3] = {Series{"client-hit"}, Series{"peer-group-hit"},
                       Series{"dc-hit"}};
  std::uint64_t completed_ = 0;
  std::uint64_t failed_reads_ = 0;
  std::uint64_t stalled_commits_ = 0;
  std::size_t spotlight_ = SIZE_MAX;
  Series spotlight_series_{"spotlight"};
  LatencyHistogram spotlight_latency_;
};

}  // namespace colony::chat
