#include "consensus/epaxos.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace colony::consensus {

bool Command::interferes(const Command& other) const {
  for (const ObjectKey& a : keys) {
    for (const ObjectKey& b : other.keys) {
      if (a == b) return true;
    }
  }
  return false;
}

Epaxos::Epaxos(NodeId self, std::vector<NodeId> members, SendFn send,
               DeliverFn deliver)
    : self_(self),
      members_(std::move(members)),
      send_(std::move(send)),
      deliver_(std::move(deliver)) {
  COLONY_ASSERT(std::find(members_.begin(), members_.end(), self_) !=
                    members_.end(),
                "self must be a member");
}

void Epaxos::broadcast(const EpaxosMsg& msg) {
  for (const NodeId m : members_) {
    if (m != self_) send_(m, msg);
  }
}

void Epaxos::local_attributes(const Command& cmd, std::uint64_t& seq,
                              std::set<InstanceId>& deps,
                              const InstanceId& self_inst) const {
  // Deps are per-row watermarks: keep only the highest interfering slot of
  // each replica row. A dep on (q, j) orders this command after all of row
  // q up to j (within-row interference is chained by q itself).
  std::map<NodeId, std::uint64_t> watermark;
  for (const auto& [inst, record] : instances_) {
    if (inst == self_inst) continue;
    if (!record.cmd.id.valid()) continue;
    if (!record.cmd.interferes(cmd)) continue;
    seq = std::max(seq, record.seq + 1);
    auto& w = watermark[inst.replica];
    w = std::max(w, inst.slot);
  }
  for (const auto& [replica, slot] : watermark) {
    deps.insert(InstanceId{replica, slot});
  }
}

InstanceId Epaxos::propose(Command cmd) {
  const InstanceId inst{self_, next_slot_++};
  Instance& record = instances_[inst];
  record.cmd = cmd;
  record.seq = 1;
  record.leading = true;
  local_attributes(cmd, record.seq, record.deps, inst);
  record.status = InstanceStatus::kPreAccepted;
  record.merged_seq = record.seq;
  record.merged_deps = record.deps;

  if (members_.size() == 1) {
    commit_instance(inst, record.cmd, record.seq, record.deps,
                    /*broadcast_commit=*/false);
    ++fast_;
    return inst;
  }

  broadcast(PreAcceptMsg{inst, std::move(cmd), record.seq, record.deps});
  return inst;
}

void Epaxos::on_message(NodeId from, const EpaxosMsg& msg) {
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, PreAcceptMsg>) {
          handle_pre_accept(from, m);
        } else if constexpr (std::is_same_v<T, PreAcceptReplyMsg>) {
          handle_pre_accept_reply(m);
        } else if constexpr (std::is_same_v<T, AcceptMsg>) {
          handle_accept(from, m);
        } else if constexpr (std::is_same_v<T, AcceptReplyMsg>) {
          handle_accept_reply(m);
        } else if constexpr (std::is_same_v<T, CommitMsg>) {
          handle_commit(m);
        }
      },
      msg);
}

void Epaxos::handle_pre_accept(NodeId from, const PreAcceptMsg& msg) {
  Instance& record = instances_[msg.inst];
  if (record.status >= InstanceStatus::kAccepted) {
    // Already past pre-accept (e.g. commit raced ahead); ignore.
    return;
  }
  record.cmd = msg.cmd;
  std::uint64_t seq = msg.seq;
  std::set<InstanceId> deps = msg.deps;
  local_attributes(msg.cmd, seq, deps, msg.inst);
  const bool changed = seq != msg.seq || deps != msg.deps;
  record.seq = seq;
  record.deps = deps;
  record.status = InstanceStatus::kPreAccepted;
  send_(from, PreAcceptReplyMsg{msg.inst, seq, std::move(deps), changed});
  try_execute();
}

void Epaxos::handle_pre_accept_reply(const PreAcceptReplyMsg& msg) {
  const auto it = instances_.find(msg.inst);
  if (it == instances_.end()) return;
  Instance& record = it->second;
  if (!record.leading || record.decided) return;

  ++record.pre_accept_replies;
  record.merged_seq = std::max(record.merged_seq, msg.seq);
  record.merged_deps.insert(msg.deps.begin(), msg.deps.end());
  record.any_changed = record.any_changed || msg.changed;

  if (record.pre_accept_replies >= fast_quorum() && !record.any_changed) {
    // Fast path: every replica agreed with the leader's attributes.
    record.decided = true;
    ++fast_;
    commit_instance(msg.inst, record.cmd, record.merged_seq,
                    record.merged_deps, /*broadcast_commit=*/true);
    return;
  }
  if (record.pre_accept_replies >= fast_quorum() && record.any_changed) {
    // Slow path: fix the merged attributes via an accept round.
    record.decided = true;
    record.accept_replies = 0;
    record.seq = record.merged_seq;
    record.deps = record.merged_deps;
    record.status = InstanceStatus::kAccepted;
    broadcast(AcceptMsg{msg.inst, record.cmd, record.seq, record.deps});
  }
}

bool Epaxos::nudge(const InstanceId& inst) {
  const auto it = instances_.find(inst);
  if (it == instances_.end()) return false;
  Instance& record = it->second;
  if (!record.leading || record.decided ||
      record.status != InstanceStatus::kPreAccepted) {
    return false;
  }
  // Leader counts itself towards the slow quorum.
  if (record.pre_accept_replies + 1 < slow_quorum()) return false;
  record.decided = true;
  record.accept_replies = 0;
  record.seq = record.merged_seq;
  record.deps = record.merged_deps;
  record.status = InstanceStatus::kAccepted;
  broadcast(AcceptMsg{inst, record.cmd, record.seq, record.deps});
  return true;
}

void Epaxos::handle_accept(NodeId from, const AcceptMsg& msg) {
  Instance& record = instances_[msg.inst];
  if (record.status < InstanceStatus::kCommitted) {
    record.cmd = msg.cmd;
    record.seq = msg.seq;
    record.deps = msg.deps;
    record.status = InstanceStatus::kAccepted;
  }
  send_(from, AcceptReplyMsg{msg.inst});
}

void Epaxos::handle_accept_reply(const AcceptReplyMsg& msg) {
  const auto it = instances_.find(msg.inst);
  if (it == instances_.end()) return;
  Instance& record = it->second;
  if (!record.leading || record.status >= InstanceStatus::kCommitted) return;
  ++record.accept_replies;
  // Leader counts itself: accept_replies + 1 >= slow quorum.
  if (record.accept_replies + 1 >= slow_quorum()) {
    ++slow_;
    commit_instance(msg.inst, record.cmd, record.seq, record.deps,
                    /*broadcast_commit=*/true);
  }
}

void Epaxos::handle_commit(const CommitMsg& msg) {
  commit_instance(msg.inst, msg.cmd, msg.seq, msg.deps,
                  /*broadcast_commit=*/false);
}

void Epaxos::commit_instance(const InstanceId& inst, const Command& cmd,
                             std::uint64_t seq,
                             const std::set<InstanceId>& deps,
                             bool broadcast_commit) {
  Instance& record = instances_[inst];
  if (record.status >= InstanceStatus::kCommitted) return;
  record.cmd = cmd;
  record.seq = seq;
  record.deps = deps;
  record.status = InstanceStatus::kCommitted;
  ++committed_count_;
  if (broadcast_commit) {
    broadcast(CommitMsg{inst, cmd, seq, deps});
  }
  try_execute();
}

InstanceStatus Epaxos::status(const InstanceId& inst) const {
  const auto it = instances_.find(inst);
  return it == instances_.end() ? InstanceStatus::kNone : it->second.status;
}

// ---------------------------------------------------------------------------
// Execution: Tarjan SCC over committed-but-unexecuted instances, components
// in reverse-topological completion order; within a component, commands run
// in (seq, instance id) order. A component touching an unknown or
// uncommitted dependency is deferred until that dependency commits.
// ---------------------------------------------------------------------------

namespace {

struct TarjanState {
  std::map<InstanceId, int> index;
  std::map<InstanceId, int> low;
  std::set<InstanceId> on_stack;
  std::vector<InstanceId> stack;
  int next_index = 0;
};

}  // namespace

void Epaxos::try_execute() {
  // Iterate to a fixpoint: executing one batch can unblock another.
  bool progress = true;
  while (progress) {
    progress = false;

    // Expand watermark deps into edges among committed-unexecuted
    // instances. blocked(inst) = some dep slot unknown or uncommitted.
    std::map<InstanceId, std::vector<InstanceId>> edges;
    std::set<InstanceId> blocked;
    std::vector<InstanceId> nodes;

    for (const auto& [inst, record] : instances_) {
      if (record.status != InstanceStatus::kCommitted) continue;
      nodes.push_back(inst);
      auto& out = edges[inst];
      for (const InstanceId& dep : record.deps) {
        for (std::uint64_t s = dep.slot; s >= 1; --s) {
          const InstanceId d{dep.replica, s};
          const auto dit = instances_.find(d);
          if (dit == instances_.end() ||
              dit->second.status < InstanceStatus::kCommitted) {
            blocked.insert(inst);
            break;
          }
          if (dit->second.status == InstanceStatus::kExecuted) {
            // Everything below is executed too (rows execute bottom-up in
            // this loop because lower slots are deps of higher ones via the
            // leader's own chaining; treat as satisfied).
            break;
          }
          out.push_back(d);
        }
      }
    }

    // Iterative Tarjan.
    TarjanState ts;
    std::vector<std::vector<InstanceId>> components;  // completion order

    for (const InstanceId& root : nodes) {
      if (ts.index.contains(root)) continue;

      struct Frame {
        InstanceId v;
        std::size_t child = 0;
      };
      std::vector<Frame> call_stack{{root, 0}};
      ts.index[root] = ts.low[root] = ts.next_index++;
      ts.stack.push_back(root);
      ts.on_stack.insert(root);

      while (!call_stack.empty()) {
        Frame& frame = call_stack.back();
        const auto& out = edges[frame.v];
        if (frame.child < out.size()) {
          const InstanceId w = out[frame.child++];
          if (!ts.index.contains(w)) {
            ts.index[w] = ts.low[w] = ts.next_index++;
            ts.stack.push_back(w);
            ts.on_stack.insert(w);
            call_stack.push_back({w, 0});
          } else if (ts.on_stack.contains(w)) {
            ts.low[frame.v] = std::min(ts.low[frame.v], ts.index[w]);
          }
        } else {
          if (ts.low[frame.v] == ts.index[frame.v]) {
            std::vector<InstanceId> component;
            for (;;) {
              const InstanceId w = ts.stack.back();
              ts.stack.pop_back();
              ts.on_stack.erase(w);
              component.push_back(w);
              if (w == frame.v) break;
            }
            components.push_back(std::move(component));
          }
          const InstanceId v = frame.v;
          call_stack.pop_back();
          if (!call_stack.empty()) {
            ts.low[call_stack.back().v] =
                std::min(ts.low[call_stack.back().v], ts.low[v]);
          }
        }
      }
    }

    // Components complete in reverse topological order (dependencies
    // first). Execute each component whose members are all unblocked and
    // whose external deps are executed; since dependencies complete first,
    // a linear pass suffices. A blocked member poisons its component and,
    // transitively, the components that depend on it.
    std::set<InstanceId> poisoned;
    for (const auto& component : components) {
      bool ok = true;
      for (const InstanceId& inst : component) {
        if (blocked.contains(inst) || poisoned.contains(inst)) {
          ok = false;
          break;
        }
        for (const InstanceId& dep : edges[inst]) {
          const bool internal =
              std::find(component.begin(), component.end(), dep) !=
              component.end();
          if (internal) continue;
          if (poisoned.contains(dep) ||
              instances_.at(dep).status != InstanceStatus::kExecuted) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
      }
      if (!ok) {
        poisoned.insert(component.begin(), component.end());
        continue;
      }
      std::vector<InstanceId> ordered = component;
      std::sort(ordered.begin(), ordered.end(),
                [this](const InstanceId& a, const InstanceId& b) {
                  const Instance& ia = instances_.at(a);
                  const Instance& ib = instances_.at(b);
                  if (ia.seq != ib.seq) return ia.seq < ib.seq;
                  return a < b;
                });
      for (const InstanceId& inst : ordered) {
        Instance& record = instances_.at(inst);
        record.status = InstanceStatus::kExecuted;
        ++executed_count_;
        deliver_(record.cmd);
        progress = true;
      }
    }
  }
}

}  // namespace colony::consensus
