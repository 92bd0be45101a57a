#include "crdt/rga.hpp"

#include <algorithm>
#include <tuple>

#include "util/assert.hpp"

namespace colony {

Bytes Rga::prepare_insert(const Dot& after, const std::string& value,
                          const Arb& arb) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kInsert));
  after.encode(enc);
  enc.str(value);
  arb.encode(enc);
  return enc.take();
}

Bytes Rga::prepare_remove(const Dot& id) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kRemove));
  id.encode(enc);
  return enc.take();
}

void Rga::insert_node(const Dot& parent, const Dot& id, Node node) {
  // Ensure the root sentinel exists.
  nodes_.try_emplace(Dot{});
  if (nodes_.contains(id)) return;  // duplicate delivery, ignore
  if (!nodes_.contains(parent)) {
    // Orphan: the parent has not been seen here (stale snapshot seed);
    // buffer invisibly until it shows up.
    orphan_inserts_.emplace(parent, std::make_pair(id, std::move(node)));
    return;
  }
  attach(parent, id, std::move(node));
}

void Rga::attach(const Dot& parent, const Dot& id, Node node) {
  // Attaching an element can release orphans waiting on it, and they theirs:
  // a work list rather than recursion, since such a chain can be as long as
  // the sequence. It stays empty (unallocated) when nothing was waiting.
  std::vector<std::tuple<Dot, Dot, Node>> released;
  Dot at = parent;
  Dot elem = id;
  for (;;) {
    if (!nodes_.contains(elem)) {
      const Arb arb = node.arb;
      nodes_.emplace(elem, std::move(node));
      ++live_count_;

      auto& children = nodes_.at(at).children;
      const auto pos = std::find_if(
          children.begin(), children.end(),
          [&](const Dot& sibling) { return nodes_.at(sibling).arb < arb; });
      children.insert(pos, elem);

      // A buffered remove may have been waiting for this element.
      if (orphan_removes_.erase(elem) > 0) remove_node(elem);

      const auto range = orphan_inserts_.equal_range(elem);
      for (auto it = range.first; it != range.second; ++it) {
        released.emplace_back(elem, it->second.first,
                              std::move(it->second.second));
      }
      orphan_inserts_.erase(range.first, range.second);
    }
    if (released.empty()) return;
    std::tie(at, elem, node) = std::move(released.back());
    released.pop_back();
  }
}

void Rga::remove_node(const Dot& id) {
  auto& node = nodes_.at(id);
  if (!node.tombstone) {
    node.tombstone = true;
    --live_count_;
  }
}

void Rga::apply(const Bytes& op) {
  Decoder dec(op);
  const auto kind = static_cast<OpKind>(dec.u8());
  switch (kind) {
    case OpKind::kInsert: {
      const Dot after = Dot::decode(dec);
      Node node;
      node.value = dec.str();
      node.arb = Arb::decode(dec);
      insert_node(after, node.arb.dot, std::move(node));
      break;
    }
    case OpKind::kRemove: {
      const Dot id = Dot::decode(dec);
      if (!nodes_.contains(id)) {
        orphan_removes_.insert(id);  // buffered until the insert arrives
        break;
      }
      remove_node(id);
      break;
    }
  }
}

void Rga::walk(std::vector<const Node*>& out_nodes,
               std::vector<Dot>* out_ids) const {
  // Pre-order from the root, siblings in order. An explicit stack: an
  // append chain is as deep as it is long.
  std::vector<Dot> stack{Dot{}};
  while (!stack.empty()) {
    const Dot id = stack.back();
    stack.pop_back();
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) continue;
    const Node& node = it->second;
    if (id.valid() && !node.tombstone) {
      out_nodes.push_back(&node);
      if (out_ids != nullptr) out_ids->push_back(id);
    }
    stack.insert(stack.end(), node.children.rbegin(), node.children.rend());
  }
}

std::vector<std::string> Rga::values() const {
  std::vector<const Node*> ordered;
  walk(ordered, nullptr);
  std::vector<std::string> out;
  out.reserve(ordered.size());
  for (const Node* n : ordered) out.push_back(n->value);
  return out;
}

Dot Rga::id_at(std::size_t index) const {
  std::vector<const Node*> ordered;
  std::vector<Dot> ids;
  walk(ordered, &ids);
  COLONY_ASSERT(index < ids.size(), "RGA index out of range");
  return ids[index];
}

Dot Rga::last_id() const {
  std::vector<const Node*> ordered;
  std::vector<Dot> ids;
  walk(ordered, &ids);
  return ids.empty() ? Dot{} : ids.back();
}

Bytes Rga::snapshot() const {
  // Serialise as a parent-linked edge list in DFS order (parents precede
  // children) so restore can rebuild with insert_node.
  Encoder enc;
  std::vector<std::pair<Dot, Dot>> edges;  // (parent, child)
  std::vector<Dot> stack{Dot{}};
  std::vector<Dot> order;
  while (!stack.empty()) {
    const Dot id = stack.back();
    stack.pop_back();
    order.push_back(id);
    const auto it = nodes_.find(id);
    if (it == nodes_.end()) continue;
    for (const Dot& child : it->second.children) {
      edges.emplace_back(id, child);
      stack.push_back(child);
    }
  }
  enc.u32(static_cast<std::uint32_t>(edges.size()));
  for (const auto& [parent, child] : edges) {
    parent.encode(enc);
    child.encode(enc);
    const Node& node = nodes_.at(child);
    enc.str(node.value);
    node.arb.encode(enc);
    enc.boolean(node.tombstone);
  }
  // Orphan buffers are state too (they may attach after a restore).
  enc.u32(static_cast<std::uint32_t>(orphan_inserts_.size()));
  for (const auto& [parent, entry] : orphan_inserts_) {
    parent.encode(enc);
    entry.first.encode(enc);
    enc.str(entry.second.value);
    entry.second.arb.encode(enc);
  }
  enc.u32(static_cast<std::uint32_t>(orphan_removes_.size()));
  for (const Dot& id : orphan_removes_) id.encode(enc);
  return enc.take();
}

void Rga::restore(const Bytes& snapshot) {
  nodes_.clear();
  orphan_inserts_.clear();
  orphan_removes_.clear();
  live_count_ = 0;
  Decoder dec(snapshot);
  const std::uint32_t n = dec.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const Dot parent = Dot::decode(dec);
    const Dot child = Dot::decode(dec);
    Node node;
    node.value = dec.str();
    node.arb = Arb::decode(dec);
    const bool tombstone = dec.boolean();
    insert_node(parent, child, std::move(node));
    if (tombstone) remove_node(child);
  }
  const std::uint32_t orphans = dec.u32();
  for (std::uint32_t i = 0; i < orphans; ++i) {
    const Dot parent = Dot::decode(dec);
    const Dot id = Dot::decode(dec);
    Node node;
    node.value = dec.str();
    node.arb = Arb::decode(dec);
    insert_node(parent, id, std::move(node));
  }
  const std::uint32_t removes = dec.u32();
  for (std::uint32_t i = 0; i < removes; ++i) {
    const Dot id = Dot::decode(dec);
    if (nodes_.contains(id)) {
      remove_node(id);
    } else {
      orphan_removes_.insert(id);
    }
  }
}

std::unique_ptr<Crdt> Rga::clone() const {
  auto copy = std::make_unique<Rga>();
  copy->nodes_ = nodes_;
  copy->live_count_ = live_count_;
  copy->orphan_inserts_ = orphan_inserts_;
  copy->orphan_removes_ = orphan_removes_;
  return copy;
}

}  // namespace colony
