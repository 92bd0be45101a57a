#include "sim/network.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace colony::sim {

SimTime LatencyModel::sample(Rng& rng) const {
  if (jitter == 0) return std::max<SimTime>(mean, 1);
  const SimTime lo = mean > jitter ? mean - jitter : 1;
  const SimTime hi = mean + jitter;
  return std::max<SimTime>(rng.between(lo, hi), 1);
}

SimTime LatencyModel::transmission_delay(std::size_t frame_bytes) const {
  if (bytes_per_us <= 0.0) return 0;
  return static_cast<SimTime>(
      std::ceil(static_cast<double>(frame_bytes) / bytes_per_us));
}

Actor::Actor(Network& net, NodeId id) : net_(net), id_(id) {
  net_.register_actor(this);
}

Actor::~Actor() { net_.unregister_actor(id_); }

void Network::register_actor(Actor* actor) {
  const auto [_, inserted] = actors_.emplace(actor->id(), actor);
  COLONY_ASSERT(inserted, "duplicate actor id registered");
}

void Network::unregister_actor(NodeId id) { actors_.erase(id); }

void Network::connect(NodeId a, NodeId b, LatencyModel model) {
  ++epoch_;
  links_[{a, b}] = Link{model, true, 0};
  links_[{b, a}] = Link{model, true, 0};
}

void Network::set_link_up(NodeId a, NodeId b, bool up) {
  ++epoch_;
  if (Link* l = find_link(a, b)) l->up = up;
  if (Link* l = find_link(b, a)) l->up = up;
}

void Network::set_node_up(NodeId node, bool up) {
  ++epoch_;
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
}

bool Network::node_up(NodeId node) const { return !down_nodes_.contains(node); }

void Network::set_clock_skew(NodeId node, SimTime offset) {
  if (offset == 0) {
    clock_skew_.erase(node);
  } else {
    clock_skew_[node] = offset;
  }
}

SimTime Network::local_now(NodeId node) const {
  const auto it = clock_skew_.find(node);
  return it == clock_skew_.end() ? sched_.now() : sched_.now() + it->second;
}

void Network::heal() {
  ++epoch_;
  for (auto& [_, link] : links_) link.up = true;
  down_nodes_.clear();
}

Network::Link* Network::find_link(NodeId from, NodeId to) {
  const auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : &it->second;
}

const Network::Link* Network::find_link(NodeId from, NodeId to) const {
  const auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : &it->second;
}

bool Network::link_exists(NodeId a, NodeId b) const {
  return find_link(a, b) != nullptr;
}

bool Network::link_up(NodeId a, NodeId b) const {
  const Link* l = find_link(a, b);
  return l != nullptr && l->up;
}

void Network::send(NodeId from, NodeId to, std::uint32_t kind,
                   Bytes payload) {
  if (!node_up(from) || !node_up(to)) {
    ++dropped_;
    return;
  }
  Link* link = find_link(from, to);
  if (link == nullptr || !link->up) {
    ++dropped_;
    return;
  }

  Bytes frm = frame::encode(kind, payload);
  // Meter every frame handed to a live link, attributed to the protocol
  // kind (RPC envelope flags stripped). Loss/corruption happen in flight,
  // after the sender already paid the bytes.
  if (link->wire == nullptr) link->wire = &wire_stats_.link(from, to);
  wire_stats_.record(*link->wire, kind & kRpcKindMask, frm.size());

  if (corrupt_rate_ > 0 && rng_.chance(corrupt_rate_)) {
    ++corrupted_;
    const std::uint64_t flips = rng_.between(1, 4);
    for (std::uint64_t i = 0; i < flips; ++i) {
      frm[rng_.below(frm.size())] ^=
          static_cast<std::uint8_t>(rng_.between(1, 255));
    }
  }

  if (link->model.loss_rate > 0 && rng_.chance(link->model.loss_rate)) {
    ++dropped_;
    return;
  }

  SimTime deliver_at = sched_.now() + link->model.sample(rng_) +
                       link->model.transmission_delay(frm.size());
  // FIFO per link: a later send is never delivered before an earlier one —
  // unless reorder injection exempts this message, in which case it is held
  // back without advancing the FIFO watermark so later sends overtake it.
  if (reorder_rate_ > 0 &&
      (!reorder_filter_ || reorder_filter_(from, to)) &&
      rng_.chance(reorder_rate_)) {
    ++reordered_;
    deliver_at = std::max(deliver_at, link->last_delivery) +
                 rng_.between(1, std::max<SimTime>(reorder_max_extra_, 1));
  } else {
    deliver_at = std::max(deliver_at, link->last_delivery);
    link->last_delivery = deliver_at;
  }

  if (duplicate_rate_ > 0 && rng_.chance(duplicate_rate_)) {
    ++duplicated_;
    const SimTime extra = rng_.between(1, 2 * link->model.mean);
    wire_stats_.record(*link->wire, kind & kRpcKindMask, frm.size());
    deliver(from, to, frm, deliver_at + extra);
  }
  deliver(from, to, std::move(frm), deliver_at);
}

void Network::deliver(NodeId from, NodeId to, Bytes frm, SimTime when) {
  sched_.at(when, [this, from, to, frm = std::move(frm)]() {
    // Re-check liveness at delivery time: a node that crashed in flight
    // does not receive the message.
    if (!node_up(to)) {
      ++dropped_;
      return;
    }
    const auto it = actors_.find(to);
    if (it == actors_.end()) {
      ++dropped_;
      return;
    }
    // Verify the checksum at the receiver: a frame damaged in flight is
    // detected and dropped — corruption degrades to loss, which the upper
    // layers already handle (timeouts, session rewind).
    const auto view = frame::decode_view(frm);
    if (!view) {
      ++dropped_;
      ++corruption_detected_;
      return;
    }
    ++delivered_;
    it->second->handle(from, view->kind, view->payload);
  });
}

}  // namespace colony::sim
