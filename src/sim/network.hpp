// Simulated network: point-to-point links with configurable latency,
// jitter, bandwidth, loss and partitions.
//
// This substitutes for the paper's testbed transport (RabbitMQ between DCs,
// WebRTC between peers, `tc`-shaped latencies; section 7.2). Every message
// crosses a link as a checksummed byte frame (sim/frame.hpp): senders
// encode, receivers decode, so wire sizes are measured truth (per-link and
// per-kind counters) and transmission delay can be charged as
// size/throughput. Links preserve
// per-link FIFO order (TCP-like); a downed link or node silently drops
// traffic, and a corrupted frame fails its checksum at delivery and is
// dropped too — upper layers see both as loss and recover via RPC timeouts
// or session-channel rewind, exactly the failure signal the real system
// would see.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <unordered_map>

#include "sim/frame.hpp"
#include "sim/scheduler.hpp"
#include "util/binary_codec.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace colony::sim {

/// RPC envelope flag bits, OR-ed onto the protocol kind by the RPC layer so
/// the transport can attribute request/response bytes to the real protocol
/// method (`kind & kRpcKindMask`) in its per-kind counters. Protocol kinds
/// must stay below both flags.
inline constexpr std::uint32_t kRpcRequestFlag = 0x8000'0000u;
inline constexpr std::uint32_t kRpcResponseFlag = 0x4000'0000u;
inline constexpr std::uint32_t kRpcKindMask = 0x3FFF'FFFFu;

/// Latency/bandwidth model of one link class.
struct LatencyModel {
  SimTime mean = kMillisecond;
  SimTime jitter = 0;      // +- uniform jitter, clamped at >= 1us
  double loss_rate = 0.0;  // independent per-message loss
  /// Link throughput in bytes per microsecond; 0 models an unmetered link.
  /// Transmission delay = frame size / throughput, charged on top of the
  /// propagation latency above.
  double bytes_per_us = 0.0;

  [[nodiscard]] SimTime sample(Rng& rng) const;
  [[nodiscard]] SimTime transmission_delay(std::size_t frame_bytes) const;
};

/// The paper's link classes (section 7.2): latency as measured in the
/// authors' testbed, throughput from the corresponding transport class.
namespace latency {
/// Intra-cluster / intra-DC: 0.15 ms, 10 Gbps datacentre fabric.
inline constexpr LatencyModel kIntraDc{150 * kMicrosecond, 50 * kMicrosecond,
                                       0.0, 1250.0};
/// Inter-DC (geo mesh): carrier-grade tens of ms, ~1 Gbps WAN.
inline constexpr LatencyModel kInterDc{30 * kMillisecond, 5 * kMillisecond,
                                       0.0, 125.0};
/// Carrier Ethernet edge uplink: 10 ms mean, ~100 Mbps.
inline constexpr LatencyModel kCarrierEthernet{10 * kMillisecond,
                                               2 * kMillisecond, 0.0, 12.5};
/// Mobile cellular uplink: 50 ms mean, ~20 Mbps.
inline constexpr LatencyModel kCellular{50 * kMillisecond, 10 * kMillisecond,
                                        0.0, 2.5};
/// Peer-to-peer WebRTC link inside a peer group (close proximity, ~50 Mbps).
inline constexpr LatencyModel kPeerLink{2 * kMillisecond, 500 * kMicrosecond,
                                        0.0, 6.25};
/// Local loopback (a node talking to itself, e.g. cache hit path).
inline constexpr LatencyModel kLoopback{10 * kMicrosecond, 0};
}  // namespace latency

class Network;

/// Base class of every simulated process (DC server, edge device, group
/// parent...). Subclasses implement `handle` for decoded frames.
class Actor {
 public:
  Actor(Network& net, NodeId id);
  virtual ~Actor();

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

 protected:
  friend class Network;

  /// A checksum-verified frame: `body` is a view of the payload bytes
  /// (valid for the duration of the call only), which the actor decodes
  /// according to `kind` (decode-at-receive on every hop). Anything kept
  /// past the call must be copied out explicitly.
  virtual void handle(NodeId from, std::uint32_t kind, ByteView body) = 0;

  Network& net_;

 private:
  NodeId id_;
};

/// The network fabric: actor registry, link table, frame delivery.
class Network {
 public:
  Network(Scheduler& sched, std::uint64_t seed)
      : sched_(sched), rng_(seed) {}

  Scheduler& scheduler() { return sched_; }
  [[nodiscard]] SimTime now() const { return sched_.now(); }
  Rng& rng() { return rng_; }

  /// Configure the (bidirectional) link between two nodes. Links are
  /// implicitly up once configured.
  void connect(NodeId a, NodeId b, LatencyModel model);

  /// Bumped by every call that may change a link's or a node's liveness
  /// (connect, set_link_up, set_node_up, heal). While it is unchanged, every
  /// link_up / node_up answer is too, so a poller can skip re-asking.
  [[nodiscard]] std::uint64_t topology_epoch() const { return epoch_; }

  /// Take one direction or both down/up. Messages on a down link vanish.
  void set_link_up(NodeId a, NodeId b, bool up);

  /// Crash / recover a node: all its traffic is dropped while down.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Send a one-way message: the payload is sealed into a checksummed
  /// frame and metered. Drops silently if no link, link down, either
  /// endpoint down, or the loss dice say so.
  void send(NodeId from, NodeId to, std::uint32_t kind, Bytes payload);

  // --- fault injection (chaos testing) -----------------------------------

  /// Independently per message, deliver a second copy after an extra
  /// random delay. Models at-least-once transports / retransmit storms;
  /// upper layers must filter by dot (DotTracker) or correlation id.
  void set_duplicate_rate(double rate) { duplicate_rate_ = rate; }

  /// Independently per message, exempt it from the per-link FIFO rule and
  /// delay it by up to `max_extra`, letting later sends overtake it.
  void set_reorder_rate(double rate, SimTime max_extra = 20 * kMillisecond) {
    reorder_rate_ = rate;
    reorder_max_extra_ = max_extra;
  }

  /// Restrict reorder injection to links the filter admits. Edge sessions
  /// ride one FIFO channel (TCP/WebRTC) by the system's transport model,
  /// while the inter-DC mesh (AMQP over WAN) may genuinely reorder — the
  /// chaos harness admits only the mesh. nullptr admits every link.
  using LinkFilter = std::function<bool(NodeId from, NodeId to)>;
  void set_reorder_filter(LinkFilter filter) {
    reorder_filter_ = std::move(filter);
  }

  /// Independently per message, flip 1-4 random bytes of the frame in
  /// flight. The checksum catches the damage at delivery, so a corrupted
  /// frame surfaces to upper layers as loss — never as a wrong value.
  void set_corrupt_rate(double rate) { corrupt_rate_ = rate; }

  /// Skew a node's physical clock by `offset` sim-time units (only ever
  /// forward; the HLC tolerates arbitrary skew). Read via local_now().
  void set_clock_skew(NodeId node, SimTime offset);
  [[nodiscard]] SimTime local_now(NodeId node) const;

  /// Restore every link and node (fault-free fabric). Injection rates and
  /// clock skews are left to their owners (ChaosRunner resets them).
  void heal();

  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t messages_dropped() const { return dropped_; }
  [[nodiscard]] std::uint64_t messages_duplicated() const {
    return duplicated_;
  }
  [[nodiscard]] std::uint64_t messages_reordered() const { return reordered_; }
  /// Frames damaged by corruption injection (at send time).
  [[nodiscard]] std::uint64_t messages_corrupted() const { return corrupted_; }
  /// Frames rejected by the delivery-time checksum. Every detection also
  /// counts as a drop; detected <= corrupted (a corrupted frame may be
  /// lost or crash-dropped before its checksum is ever checked).
  [[nodiscard]] std::uint64_t corruptions_detected() const {
    return corruption_detected_;
  }

  /// Measured per-link / per-kind byte counters of every frame handed to a
  /// live link (duplicate copies included; they occupy the wire too).
  [[nodiscard]] const WireStats& wire_stats() const { return wire_stats_; }
  WireStats& wire_stats() { return wire_stats_; }

  [[nodiscard]] bool link_exists(NodeId a, NodeId b) const;
  [[nodiscard]] bool link_up(NodeId a, NodeId b) const;

 private:
  friend class Actor;

  struct Link {
    LatencyModel model;
    bool up = true;
    SimTime last_delivery = 0;  // enforces per-link FIFO
    WireStats::Counter* wire = nullptr;  // its wire_stats_ counter, once used
  };

  void register_actor(Actor* actor);
  void unregister_actor(NodeId id);

  Link* find_link(NodeId from, NodeId to);
  [[nodiscard]] const Link* find_link(NodeId from, NodeId to) const;

  void deliver(NodeId from, NodeId to, Bytes frm, SimTime when);

  Scheduler& sched_;
  Rng rng_;
  std::unordered_map<NodeId, Actor*> actors_;
  std::unordered_map<std::pair<NodeId, NodeId>, Link, LinkHash> links_;
  std::set<NodeId> down_nodes_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<NodeId, SimTime> clock_skew_;
  double duplicate_rate_ = 0.0;
  double reorder_rate_ = 0.0;
  double corrupt_rate_ = 0.0;
  LinkFilter reorder_filter_;
  SimTime reorder_max_extra_ = 20 * kMillisecond;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t reordered_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t corruption_detected_ = 0;
  WireStats wire_stats_;
};

}  // namespace colony::sim
