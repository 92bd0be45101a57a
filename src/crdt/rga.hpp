// Replicated Growable Array (RGA): a sequence CRDT for ordered content
// such as chat-channel message lists or collaborative text.
//
// Implementation: a timestamped insertion tree. Every element is a node
// whose parent is the element it was inserted after (the sentinel root for
// position 0); siblings are ordered by descending arbitration token, and an
// in-order depth-first walk yields the sequence. Deletion is a tombstone.
// Under causal delivery this converges: a parent always arrives before its
// children, and sibling order is deterministic.
//
// Robustness: an insert whose parent is locally unknown (possible when a
// cache was seeded from a snapshot older than operations the node had
// already observed) is buffered invisibly and attached when the parent
// arrives — the standard RGA orphan-buffer technique. Orphans do not count
// towards size() or values().
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "crdt/crdt.hpp"

namespace colony {

class Rga final : public CrdtOf<Rga, CrdtType::kRga> {
 public:
  /// Insert `value` after element `after` (Dot{} = beginning); the new
  /// element's identity is arb.dot.
  template <template <typename> class Hold = Owned>
  struct InsertOp {
    Hold<Dot> after;
    Hold<std::string> value;
    Hold<Arb> arb;
    auto fields() { return std::tie(after, value, arb); }
  };

  [[nodiscard]] static Bytes prepare_insert(const Dot& after,
                                            const std::string& value,
                                            const Arb& arb);
  [[nodiscard]] static Bytes prepare_remove(const Dot& id);
  /// The insert an op payload carries; nullopt for a remove.
  [[nodiscard]] static std::optional<InsertOp<>> as_insert(const Bytes& op);

  void apply(const Bytes& op) override;
  /// A parent-linked edge list in which every parent precedes its
  /// children, then the orphan buffers, so restore can rebuild with
  /// insert_node.
  [[nodiscard]] Bytes snapshot() const override;
  void restore(const Bytes& snapshot) override;

  /// Visible (non-tombstoned) values in sequence order.
  [[nodiscard]] std::vector<std::string> values() const;
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Identity of the visible element at `index` (for preparing edits).
  [[nodiscard]] Dot id_at(std::size_t index) const;

  /// Identity of the last visible element, Dot{} when empty. Appending is
  /// prepare_insert(last_id(), ...), the common chat-message case.
  [[nodiscard]] Dot last_id() const;

  /// Buffered inserts/removes awaiting a missing parent (diagnostics).
  [[nodiscard]] std::size_t orphan_count() const {
    return orphan_inserts_.size() + orphan_removes_.size();
  }

 private:
  enum class OpKind : std::uint8_t { kInsert = 1, kRemove = 2 };

  struct Node {
    std::string value;
    Arb arb;
    bool tombstone = false;
    std::vector<Dot> children{};  // sorted by descending child arb
  };

  void insert_node(const Dot& parent, const Dot& id, Node node);
  void attach(const Dot& parent, const Dot& id, Node node);
  void remove_node(const Dot& id);
  void walk(std::vector<const Node*>& out_nodes,
            std::vector<Dot>* out_ids) const;

  std::unordered_map<Dot, Node> nodes_;  // root sentinel is Dot{}
  std::size_t live_count_ = 0;
  // parent -> (id, node) waiting for the parent to arrive
  std::multimap<Dot, std::pair<Dot, Node>> orphan_inserts_;
  std::set<Dot> orphan_removes_;  // removes of not-yet-seen elements
};

}  // namespace colony
