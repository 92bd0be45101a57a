#include "chat/driver.hpp"

#include <algorithm>

#include "crdt/rga.hpp"
#include "util/assert.hpp"

namespace colony::chat {

ChatDriver::ChatDriver(Cluster& cluster, ChatDriverConfig config)
    : cluster_(cluster), config_(config), rng_(config.seed) {
  // Peer-group parents, one per group, round-robin across DCs.
  std::size_t groups = 0;
  if (config_.mode == ClientMode::kPeerGroup) {
    const std::size_t size =
        config_.group_size == 0 ? config_.clients : config_.group_size;
    groups = (config_.clients + size - 1) / size;
    for (std::size_t g = 0; g < groups; ++g) {
      parents_.push_back(&cluster_.add_group_parent(
          static_cast<DcId>(g % cluster_.num_dcs())));
    }
  }

  clients_.resize(config_.clients);
  for (std::size_t i = 0; i < config_.clients; ++i) {
    const UserId user = 1000 + i;
    std::size_t group = SIZE_MAX;
    DcId dc = static_cast<DcId>(i % cluster_.num_dcs());
    if (config_.mode == ClientMode::kPeerGroup) {
      const std::size_t size =
          config_.group_size == 0 ? config_.clients : config_.group_size;
      group = i / size;
      dc = static_cast<DcId>(group % cluster_.num_dcs());
    }
    EdgeNode& node = cluster_.add_edge(config_.mode, dc, user,
                                       config_.cache_capacity);
    clients_[i].session = std::make_unique<Session>(node);
    clients_[i].script = std::make_unique<UserScript>(config_.trace, user,
                                                      rng_);
    clients_[i].group = group;
  }

  // Wire peer links inside each group (members + parent).
  for (std::size_t g = 0; g < parents_.size(); ++g) {
    cluster_.wire_peer_links(group_node_ids(g));
  }
}

std::vector<NodeId> ChatDriver::group_node_ids(std::size_t g) const {
  std::vector<NodeId> out{parents_.at(g)->id()};
  for (const ClientState& c : clients_) {
    if (c.group == g) out.push_back(c.session->node().id());
  }
  return out;
}

std::size_t ChatDriver::group_of(std::size_t client_index) const {
  return clients_.at(client_index).group;
}

void ChatDriver::clear_metrics() {
  for (auto& h : latency_) h.clear();
  overall_.clear();
}

void ChatDriver::start() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].start_delay > 0) {
      cluster_.scheduler().after(clients_[i].start_delay,
                                 [this, i] { setup_client(i); });
    } else {
      setup_client(i);
    }
  }
}

void ChatDriver::seed_entities(std::size_t i) {
  // Register the user in its workspace and the workspace in the user's
  // profile — atomically, the invariant the paper highlights in section
  // 7.1 ("a user is in a workspace iff the workspace is in the user's
  // profile").
  ClientState& st = clients_[i];
  Session& session = *st.session;
  const UserId user = st.script->user();
  const std::size_t ws = st.script->home_workspace();
  auto txn = session.begin();
  session.add_to_set(txn, workspace_members_key(ws),
                     member_element(user, MemberStatus::kOrdinary));
  session.add_to_set(txn, user_workspaces_key(user), std::to_string(ws));
  session.map_assign(txn, user_profile_key(user), "name",
                     "user" + std::to_string(user));
  (void)session.commit(std::move(txn));
}

void ChatDriver::install_bot_reactions(std::size_t i) {
  // Bots "act randomly upon receiving a message on the channel they have
  // subscribed to" (section 7.1): a reactive watch on the home channel
  // triggers a reply with some probability, debounced so a bot storm
  // cannot run away.
  ClientState& st = clients_[i];
  if (!st.script->is_bot()) return;
  const ObjectKey channel = channel_messages_key(st.script->home_workspace(),
                                                 st.script->home_channel());
  st.session->watch(channel, [this, i, channel](const ObjectKey&) {
    ClientState& bot = clients_[i];
    if (stopped_ || !bot.running || bot.reaction_pending) return;
    if (!rng_.chance(0.3)) return;
    bot.reaction_pending = true;
    cluster_.scheduler().after(rng_.between(10, 200) * kMillisecond,
                               [this, i, channel] { bot_react(i, channel); });
  });
}

void ChatDriver::bot_react(std::size_t i, const ObjectKey& channel) {
  ClientState& bot = clients_[i];
  bot.reaction_pending = false;
  if (stopped_ || !bot.running) return;
  Session& session = *bot.session;
  auto txn = session.begin();
  session.append(txn, channel,
                 "bot" + std::to_string(bot.script->user()) + ": ack");
  if (session.commit(std::move(txn)).ok()) {
    ++completed_;
    throughput_.record(cluster_.now());
  } else {
    ++stalled_commits_;
  }
}

void ChatDriver::set_start_delay(std::size_t client_index, SimTime delay) {
  clients_.at(client_index).start_delay = delay;
}

std::vector<ObjectKey> ChatDriver::client_interest(std::size_t i) const {
  std::vector<ObjectKey> interest;
  for (const auto& [ws, ch] : clients_.at(i).script->subscribed_channels()) {
    interest.push_back(channel_messages_key(ws, ch));
  }
  interest.push_back(user_profile_key(clients_.at(i).script->user()));
  return interest;
}

void ChatDriver::rejoin_group(std::size_t client_index) {
  ClientState& st = clients_.at(client_index);
  if (st.group == SIZE_MAX) return;
  const NodeId parent = parents_.at(st.group)->id();
  EdgeNode& node = st.session->node();
  auto interest = client_interest(client_index);
  node.join_group(parent, [&node, interest](Result<void>) {
    node.subscribe(interest, [](Result<void>) {});
  });
}

void ChatDriver::setup_client(std::size_t i) {
  ClientState& st = clients_[i];
  if (config_.mode == ClientMode::kCloudOnly) {
    st.running = true;
    schedule_next(i);
    return;
  }
  std::vector<ObjectKey> interest;
  for (const auto& [ws, ch] : st.script->subscribed_channels()) {
    interest.push_back(channel_messages_key(ws, ch));
  }
  interest.push_back(user_profile_key(st.script->user()));

  auto begin_loop = [this, i] {
    clients_[i].running = true;
    seed_entities(i);
    install_bot_reactions(i);
    schedule_next(i);
  };

  if (config_.mode == ClientMode::kPeerGroup) {
    const NodeId parent = parents_.at(st.group)->id();
    st.session->join_group(parent, [this, i, interest,
                                    begin_loop](Result<void> r) {
      // Subscribe through the group whether or not the join succeeded (a
      // refused join degrades to direct DC attachment).
      (void)r;
      clients_[i].session->subscribe(interest,
                                     [begin_loop](Result<void>) {
                                       begin_loop();
                                     });
    });
    return;
  }
  st.session->subscribe(interest,
                        [begin_loop](Result<void>) { begin_loop(); });
}

void ChatDriver::schedule_next(std::size_t i) {
  if (stopped_) return;
  ClientState& st = clients_[i];
  // More active users think less (Pareto skew); bots are quick. The clamp
  // keeps even the hottest user at human-scale action rates, so offered
  // load is think-time-bound, as in the paper's trace.
  double think = static_cast<double>(config_.think_time);
  think /= std::clamp(st.script->activity(), 1.0, 3.0);
  if (config_.trace.diurnal) {
    think *= diurnal_factor(cluster_.now(), config_.day_length);
  }
  const double delay = rng_.exponential(std::max(think, 1.0));
  cluster_.scheduler().after(static_cast<SimTime>(delay),
                             [this, i] { act(i); });
}

void ChatDriver::act(std::size_t i) {
  if (stopped_) return;
  const Action action = clients_[i].script->next(rng_);
  if (config_.mode == ClientMode::kCloudOnly) {
    act_cloud(i, action);
  } else {
    act_cached(i, action);
  }
}

void ChatDriver::record_latency(std::size_t i, SimTime started,
                                ReadSource src) {
  const SimTime latency = cluster_.now() - started;
  if (spotlight_ == i) {
    spotlight_latency_.record(latency);
    spotlight_series_.add(cluster_.now(),
                          static_cast<double>(latency) / kMillisecond);
    return;
  }
  latency_[static_cast<std::size_t>(src)].record(latency);
  overall_.record(latency);
  series_[static_cast<std::size_t>(src)].add(
      cluster_.now(), static_cast<double>(latency) / kMillisecond);
}

void ChatDriver::finish_action(std::size_t i, SimTime /*started*/,
                               ReadSource /*src*/, bool ok) {
  if (ok) {
    ++completed_;
    throughput_.record(cluster_.now());
  }
  schedule_next(i);
}

void ChatDriver::act_cached(std::size_t i, const Action& action) {
  ClientState& st = clients_[i];
  Session& session = *st.session;
  const SimTime started = cluster_.now();
  const ObjectKey key = channel_messages_key(action.workspace,
                                             action.channel);

  auto txn = std::make_shared<Session::Txn>(session.begin());
  session.read_sequence(
      *txn, key,
      [this, i, txn, key, action, started](
          Result<std::vector<std::string>> r, ReadSource src) {
        ClientState& client = clients_[i];
        if (!r.ok()) {
          ++failed_reads_;
          schedule_next(i);
          return;
        }
        record_latency(i, started, src);

        Session& session = *client.session;
        if (action.kind == ActionKind::kPostMessage) {
          session.append(*txn, key,
                         "u" + std::to_string(client.script->user()) + ":" +
                             std::to_string(completed_));
        } else if (action.kind == ActionKind::kUpdateProfile) {
          session.map_assign(*txn,
                             user_profile_key(client.script->user()),
                             "status", "s" + std::to_string(completed_));
        }
        const Result<Dot> c = session.commit(std::move(*txn));
        if (!c.ok()) {
          // Commit backlog full ("out of storage"): back off.
          ++stalled_commits_;
          schedule_next(i);
          return;
        }
        finish_action(i, started, src, true);
      });
}

void ChatDriver::act_cloud(std::size_t i, const Action& action) {
  ClientState& st = clients_[i];
  EdgeNode& node = st.session->node();
  const SimTime started = cluster_.now();
  const ObjectKey key = channel_messages_key(action.workspace,
                                             action.channel);

  node.cloud_execute(
      {key}, {},
      [this, i, key, action, started](Result<proto::DcExecuteResp> r) {
        if (!r.ok()) {
          ++failed_reads_;
          schedule_next(i);
          return;
        }
        if (action.kind != ActionKind::kPostMessage) {
          record_latency(i, started, ReadSource::kDc);
          finish_action(i, started, ReadSource::kDc, true);
          return;
        }
        // Interactive update: prepare the append against the value just
        // read, then a second round trip to commit it at the DC.
        EdgeNode& node = clients_[i].session->node();
        Rga sequence;
        const ObjectSnapshot& snap = r.value().read_values[0];
        if (!snap.state.empty()) sequence.restore(snap.state);
        OpRecord op{key, CrdtType::kRga,
                    Rga::prepare_insert(
                        sequence.last_id(),
                        "u" + std::to_string(clients_[i].script->user()),
                        node.make_arb())};
        node.cloud_execute(
            {}, {op},
            [this, i, started](Result<proto::DcExecuteResp> r2) {
              if (!r2.ok()) {
                ++failed_reads_;
                schedule_next(i);
                return;
              }
              record_latency(i, started, ReadSource::kDc);
              finish_action(i, started, ReadSource::kDc, true);
            });
      });
}

}  // namespace colony::chat
