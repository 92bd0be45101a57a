#include "crdt/rga.hpp"

#include <algorithm>
#include <tuple>

#include "util/assert.hpp"

namespace colony {

namespace {

// The snapshot's records, declared once: the walk writes Viewed references
// to the live nodes, restore decodes Owned values.
// (parent, child, value, arb, tombstone)
template <template <typename> class Hold>
using Edge =
    std::tuple<Hold<Dot>, Hold<Dot>, Hold<std::string>, Hold<Arb>, Hold<bool>>;
// (parent, id, value, arb) of an insert waiting for its parent
template <template <typename> class Hold>
using OrphanInsert =
    std::tuple<Hold<Dot>, Hold<Dot>, Hold<std::string>, Hold<Arb>>;
// edges, orphan inserts, orphan removes
template <template <typename> class Hold>
using Snapshot = std::tuple<Hold<std::vector<Edge<Hold>>>,
                            Hold<std::vector<OrphanInsert<Hold>>>,
                            Hold<std::set<Dot>>>;

}  // namespace

Bytes Rga::prepare_insert(const Dot& after, const std::string& value,
                          const Arb& arb) {
  return kinded_op(OpKind::kInsert, InsertOp<Viewed>{after, value, arb});
}

Bytes Rga::prepare_remove(const Dot& id) {
  return kinded_op(OpKind::kRemove, id);
}

std::optional<Rga::InsertOp<>> Rga::as_insert(const Bytes& op) {
  if (op_kind<OpKind>(op) != OpKind::kInsert) return std::nullopt;
  return op_body<InsertOp<>>(op);
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
  switch (op_kind<OpKind>(op)) {
    case OpKind::kInsert: {
      auto insert = op_body<InsertOp<>>(op);
      insert_node(insert.after, insert.arb.dot,
                  Node{std::move(insert.value), insert.arb});
      break;
    }
    case OpKind::kRemove: {
      const auto id = op_body<Dot>(op);
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
  static const Dot kRoot{};
  std::vector<Edge<Viewed>> edges;
  edges.reserve(nodes_.size());
  std::vector<const Dot*> stack{&kRoot};
  while (!stack.empty()) {
    const auto it = nodes_.find(*stack.back());
    stack.pop_back();
    if (it == nodes_.end()) continue;
    for (const Dot& child : it->second.children) {
      const Node& node = nodes_.at(child);
      edges.emplace_back(it->first, child, node.value, node.arb,
                         node.tombstone);
      stack.push_back(&child);
    }
  }
  // Orphan buffers are state too (they may attach after a restore).
  std::vector<OrphanInsert<Viewed>> orphans;
  orphans.reserve(orphan_inserts_.size());
  for (const auto& [parent, entry] : orphan_inserts_) {
    orphans.emplace_back(parent, entry.first, entry.second.value,
                         entry.second.arb);
  }
  return codec::to_bytes(Snapshot<Viewed>{edges, orphans, orphan_removes_});
}

void Rga::restore(const Bytes& snapshot) {
  auto [edges, orphans, removes] =
      codec::from_bytes<Snapshot<Owned>>(snapshot);
  nodes_.clear();
  orphan_inserts_.clear();
  orphan_removes_.clear();
  live_count_ = 0;
  for (auto& [parent, child, value, arb, tombstone] : edges) {
    insert_node(parent, child, Node{std::move(value), arb});
    if (tombstone) remove_node(child);
  }
  for (auto& [parent, id, value, arb] : orphans) {
    insert_node(parent, id, Node{std::move(value), arb});
  }
  for (const Dot& id : removes) {
    if (nodes_.contains(id)) {
      remove_node(id);
    } else {
      orphan_removes_.insert(id);
    }
  }
}

}  // namespace colony
