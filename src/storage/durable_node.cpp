#include "storage/durable_node.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace colony::storage {

void DurableNode::start() {
  on_start();
  if (disk_ == nullptr) return;
  after<&DurableNode::checkpoint_tick>(checkpoint_interval_);
}

void DurableNode::checkpoint_tick() {
  if (disk_->records_since_checkpoint() > 0) {
    // Between handlers the node is in a consistent state by construction
    // (the scheduler never preempts a handler), so the snapshot is a clean
    // cut of the record log.
    Encoder snapshot;
    encode_checkpoint(snapshot);
    disk_->write_checkpoint(snapshot.data());
    // The checkpoint makes every earlier record redundant: reclaim the log
    // prefix (and superseded checkpoints) behind it.
    disk_->truncate_to_checkpoint();
  }
  after<&DurableNode::checkpoint_tick>(checkpoint_interval_);
}

void DurableNode::crash() {
  COLONY_ASSERT(disk_ != nullptr, "crash() on a node without durable storage");
  crashed_ = true;
  // Kill the old process image: timers check the incarnation before
  // touching the node, and in-flight RPC continuations are forgotten.
  ++incarnation_;
  abort_pending_calls();
  wipe();
}

void DurableNode::recover(bool reconnect) {
  COLONY_ASSERT(disk_ != nullptr,
                "recover() on a node without durable storage");
  const WalRecovery rec = disk_->recover();
  crashed_ = false;
  recovering_ = true;
  if (rec.checkpoint.has_value()) decode_checkpoint(*rec.checkpoint);
  for (const WalRecord& record : rec.tail) {
    replay_record(record.type, record.payload);
  }
  after_replay();
  recovering_ = false;
  if (rec.torn) disk_->truncate_to(rec.valid_bytes);
  if (reconnect) {
    // A second bump separates the restarted process from the recovery
    // itself: recover() on an already-running node (double restart) kills
    // the previous incarnation's timer chains instead of doubling them.
    ++incarnation_;
    start();
  }
}

Bytes DurableNode::durable_bytes() const {
  Encoder enc;
  encode_durable(enc);
  return enc.take();
}

bool DurableNode::verify_recovery(std::string* why) const {
  if (disk_ == nullptr || crashed_ || !verifiable()) return true;
  // Offline replica: a private scheduler and network so the probe cannot
  // interact with the live simulation, and a copy of the disk so recovery
  // cleanup cannot touch the real streams.
  sim::Scheduler scheduler;
  sim::Network net(scheduler, /*seed=*/1);
  Wal disk(*disk_);
  const std::unique_ptr<DurableNode> replica = make_replica(net, disk);
  replica->recover(/*reconnect=*/false);
  const Bytes mine = durable_bytes();
  const Bytes theirs = replica->durable_bytes();
  if (mine == theirs) return true;
  if (why != nullptr) {
    const auto diff = std::mismatch(mine.begin(), mine.end(), theirs.begin(),
                                    theirs.end());
    *why = "node " + std::to_string(id()) + ": live " +
           std::to_string(mine.size()) + "B vs replica " +
           std::to_string(theirs.size()) + "B, first difference at byte " +
           std::to_string(diff.first - mine.begin());
  }
  return false;
}

}  // namespace colony::storage
