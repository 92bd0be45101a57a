// DurableNode: the crash-recovery lifecycle of a node backed by a Wal.
//
// A durable node logs every mutation of its durable state as one WAL record
// and periodically folds the log into a checkpoint. A crash wipes the
// process image and kills its timers and RPC continuations; recover()
// rebuilds the node from the newest intact checkpoint plus the record tail,
// each record handed to the apply function the live path called after
// logging it. A record is a typed value: its payload is that function's
// arguments, written and read by the generic codec. verify_recovery()
// proves the contract in place by recovering an offline replica from a copy
// of the disk and comparing durable projections byte for byte.
//
// The base owns the algorithm: the crashed / recovering / incarnation
// state, the WAL gate, the checkpoint chain, the recovery sequence, and the
// rule that a dead incarnation's timers never touch the reborn node (every
// timer goes through after() / at(), stamped with the incarnation that
// scheduled it). A subclass supplies its record vocabulary and replay, its
// checkpoint (also its durable projection unless it narrows it), the state
// a crash wipes, what a (re)started process schedules, and the replica the
// check recovers.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "sim/rpc.hpp"
#include "storage/wal.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace colony::storage {

class DurableNode : public sim::RpcActor {
 public:
  /// Kill the process: in-memory state is wiped (wipe()) and outstanding
  /// RPC continuations and timers are forgotten. The node stays dead
  /// (traffic is dropped, timers of the old incarnation die) until
  /// recover(). Requires a disk: a node without one has nothing to come
  /// back from.
  void crash();

  /// Rebuild the node from its WAL: newest intact checkpoint, then tail
  /// replay through the apply functions of the records. With
  /// `reconnect` (the live-restart path) the process starts again; the
  /// offline replica of verify_recovery passes false. On an already
  /// running node (a double restart) the previous incarnation's timer
  /// chains die instead of doubling.
  void recover(bool reconnect = true);

  /// Prove recoverability in place: build an offline replica from a copy
  /// of the WAL and compare durable projections byte for byte. Trivially
  /// true without a disk, while crashed, and while !verifiable().
  [[nodiscard]] bool verify_recovery(std::string* why = nullptr) const;

  /// The durable projection as bytes (the recovery invariant surface).
  [[nodiscard]] Bytes durable_bytes() const;

  [[nodiscard]] bool crashed() const { return crashed_; }

 protected:
  /// `disk` is owned by the topology builder (nullptr = no durability).
  DurableNode(sim::Network& net, NodeId id, Wal* disk,
              SimTime checkpoint_interval)
      : RpcActor(net, id),
        disk_(disk),
        checkpoint_interval_(checkpoint_interval) {}

  /// Start the process: the node's own timers (on_start), then the
  /// checkpoint chain. A subclass constructor calls it last; recover()
  /// calls it again on restart.
  void start();

  /// Should a mutation be logged right now? False without a disk, during
  /// WAL replay (records must not re-log themselves), and while crashed.
  [[nodiscard]] bool wal_enabled() const {
    return disk_ != nullptr && !recovering_ && !crashed_;
  }
  /// Replaying the WAL: live side effects (sends, pushes) are suppressed.
  [[nodiscard]] bool recovering() const { return recovering_; }

  /// Append a record of kind `type` whose payload is `parts`, laid out in
  /// order by the generic codec; nothing is encoded while the WAL is off.
  /// The parts of a kind are the arguments of its apply function, so
  /// replay() decodes exactly what was logged.
  template <typename... Parts>
  void log_record(std::uint32_t type, const Parts&... parts) {
    if (!wal_enabled()) return;
    Encoder rec;
    (codec::write(rec, parts), ...);
    disk_->append(type, rec.data());
  }

  /// Decode a record payload as the parameters of `apply`, a member of the
  /// node, and call it with them.
  template <typename Node, typename... Args>
  void replay(ByteView payload, void (Node::*apply)(Args...)) {
    std::tuple<std::decay_t<Args>...> parts;
    Decoder dec(payload);
    std::apply([&dec](auto&... part) { (codec::read_into(dec, part), ...); },
               parts);
    COLONY_ASSERT(dec.ok() && dec.done(), "torn WAL record payload");
    std::apply(
        [this, apply](auto&... part) {
          (static_cast<Node*>(this)->*apply)(std::move(part)...);
        },
        parts);
  }

  /// Timers of this incarnation: `fn` runs only if no crash or restart
  /// happened in between.
  template <typename Fn>
  void at(SimTime when, Fn&& fn) {
    net_.scheduler().at(
        when, [this, inc = incarnation_, fn = std::forward<Fn>(fn)]() mutable {
          if (inc == incarnation_) fn();
        });
  }
  /// A timer of this incarnation that calls the member function `Method`
  /// of this node. The callback holds just the node and the incarnation,
  /// small enough for the scheduler to store without an allocation: the
  /// periodic chains fire thousands of times per simulated second.
  template <auto Method>
  void after(SimTime delay) {
    net_.scheduler().after(delay, [this, inc = incarnation_] {
      if (inc == incarnation_) fire(this, Method);
    });
  }

  // --- what each node supplies ---------------------------------------------

  /// Re-apply one logged record (called with recovering() true): one
  /// replay(payload, &Node::apply_...) per record kind.
  virtual void replay_record(std::uint32_t type, ByteView payload) = 0;
  virtual void encode_checkpoint(Encoder& enc) const = 0;
  virtual void decode_checkpoint(ByteView snapshot) = 0;
  /// The exact-restoration contract: every field recovery must restore.
  /// By default that is the whole checkpoint; a node whose checkpoint
  /// carries state that drifts without records projects it out.
  virtual void encode_durable(Encoder& enc) const { encode_checkpoint(enc); }
  /// Reset every piece of in-memory state to that of a fresh process.
  virtual void wipe() = 0;
  /// Re-derive state no record carries, still inside the replay.
  virtual void after_replay() {}
  /// What a (re)started process schedules and reconnects.
  virtual void on_start() = 0;
  /// An offline twin of this node on `net`, backed by `disk`, as the
  /// constructor would build it before any record was written.
  [[nodiscard]] virtual std::unique_ptr<DurableNode> make_replica(
      sim::Network& net, Wal& disk) const = 0;
  /// False while live state legitimately differs from what the WAL
  /// promises (verify_recovery then passes trivially).
  [[nodiscard]] virtual bool verifiable() const { return true; }

 private:
  template <typename Node>
  static void fire(DurableNode* self, void (Node::*method)()) {
    (static_cast<Node*>(self)->*method)();
  }
  void checkpoint_tick();

  Wal* disk_;
  SimTime checkpoint_interval_;
  bool crashed_ = false;
  bool recovering_ = false;
  /// Stamps every timer; crash() and a restart bump it so callbacks from a
  /// dead incarnation self-cancel instead of mutating the reborn node.
  std::uint64_t incarnation_ = 0;
};

}  // namespace colony::storage
