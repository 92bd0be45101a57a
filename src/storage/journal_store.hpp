// Versioned object storage: base version + journal of updates.
//
// Paper section 4.1: an object is stored as a base version plus a journal
// of operations since it; materialising a version reads the base and
// applies the missing updates; occasionally the base is advanced.
//
// The store also maintains a `current` materialisation — the value at this
// node's present visibility frontier — because that is what nearly every
// read wants. Reads at older cuts, and reads under a different security
// mask, re-materialise from base + filtered journal.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "clock/dot.hpp"
#include "crdt/crdt.hpp"
#include "util/binary_codec.hpp"
#include "util/types.hpp"

namespace colony {

/// One journalled update: which transaction produced it and the op payload.
struct JournalEntry {
  Dot dot;
  Bytes payload;

  auto fields() { return std::tie(dot, payload); }
};

/// Full-state transfer format for seeding a cache (group join, migration).
struct ObjectSnapshot {
  ObjectKey key;
  CrdtType type{};
  Bytes state;
  std::vector<Dot> applied;  // dots reflected in `state`

  bool operator==(const ObjectSnapshot&) const = default;
  auto fields() { return std::tie(key, type, state, applied); }
};

class JournalStore {
 public:
  using DotPredicate = std::function<bool(const Dot&)>;

  /// Create the object if absent. Returns false if it exists with a
  /// different type (a schema error surfaced to the caller).
  bool ensure(const ObjectKey& key, CrdtType type);

  [[nodiscard]] bool has(const ObjectKey& key) const;
  [[nodiscard]] std::optional<CrdtType> type_of(const ObjectKey& key) const;

  /// Journal an operation and fold it into `current` unless `masked`.
  /// Masked entries stay in the journal (state vs. visibility separation,
  /// paper section 5.3) and can surface later via rebuild_current.
  /// Operations whose dot is already baked into an imported base version
  /// are dropped entirely (they are reflected in the state already).
  void apply(const ObjectKey& key, CrdtType type, const Dot& dot,
             const Bytes& payload, bool masked = false);

  /// The value at this node's visibility frontier (respecting the masks
  /// given to apply/rebuild_current); nullptr if the object is unknown.
  [[nodiscard]] const Crdt* current(const ObjectKey& key) const;

  /// Materialise the value at an arbitrary older cut / mask: base plus the
  /// journal entries `visible` admits. The predicate must admit a causally
  /// closed subset of the journal.
  [[nodiscard]] std::unique_ptr<Crdt> materialize(
      const ObjectKey& key, const DotPredicate& visible) const;

  /// Recompute `current` with a new visibility predicate over the full
  /// journal — used when the security mask set changes (ACL update).
  void rebuild_current(const ObjectKey& key, const DotPredicate& visible);

  /// Bake the journal prefix admitted by `visible` into the base version
  /// and prune those entries (paper: "occasionally, the system advances the
  /// base version"). Entries not admitted remain journalled.
  void advance_base(const ObjectKey& key, const DotPredicate& visible);

  /// Export/import full object state, for cache seeding on join/migration.
  [[nodiscard]] std::optional<ObjectSnapshot> export_snapshot(
      const ObjectKey& key) const;

  /// Export the state at an arbitrary cut: base plus journal entries the
  /// predicate admits (the base must only contain admitted entries — DCs
  /// advance their base with the K-stable predicate to guarantee this).
  [[nodiscard]] std::optional<ObjectSnapshot> export_at(
      const ObjectKey& key, const DotPredicate& visible) const;
  void import_snapshot(const ObjectSnapshot& snap);

  /// Dots journalled for `key` (newest last).
  [[nodiscard]] std::vector<Dot> journalled_dots(const ObjectKey& key) const;

  /// Every dot reflected in the object: base-version dots (in bake order)
  /// followed by journalled dots. Invariant checkers audit this list for
  /// exactly-once application (no dot may appear twice).
  [[nodiscard]] std::vector<Dot> applied_dots(const ObjectKey& key) const;

  [[nodiscard]] std::vector<ObjectKey> keys() const;
  [[nodiscard]] std::size_t journal_length(const ObjectKey& key) const;
  void erase(const ObjectKey& key);

  /// Checkpoint serialization: the full versioned representation of every
  /// object — base snapshot, baked dots in bake order, journal entries,
  /// and the mask-filtered `current` materialisation (which cannot be
  /// recomputed without the historical mask predicates). Deterministic:
  /// objects encode in key order, so identical stores produce identical
  /// bytes. decode() replaces the store's contents; the O(1) baked-dot
  /// set is rebuilt from the baked-dot list.
  void encode(Encoder& enc) const;
  void decode(Decoder& dec);
  void clear();

 private:
  /// A materialisation laid out as its u32-prefixed snapshot, and read
  /// back as an object of the type decoded before it.
  struct Snapshot {
    const CrdtType& type;
    std::unique_ptr<Crdt>& value;

    void encode(Encoder& enc) const;
    void decode(Decoder& dec);
  };

  struct ObjectState {
    CrdtType type{};
    std::unique_ptr<Crdt> base;     // checkpoint
    std::vector<Dot> base_dots;     // dots baked into base, in bake order
    std::unordered_set<Dot> base_dot_set;  // same dots, O(1) lookup
    std::vector<JournalEntry> journal;
    std::unique_ptr<Crdt> current;  // base + visible journal entries

    /// The checkpoint layout; base_dot_set is derived from base_dots.
    std::tuple<CrdtType&, Snapshot, std::vector<Dot>&,
               std::vector<JournalEntry>&, Snapshot>
    fields() {
      return {type, Snapshot{type, base}, base_dots, journal,
              Snapshot{type, current}};
    }
  };

  [[nodiscard]] const ObjectState* find(const ObjectKey& key) const;
  ObjectState* find(const ObjectKey& key);

  /// An ordered map: encode() writes objects in key order, so identical
  /// stores checkpoint to identical bytes.
  std::map<ObjectKey, ObjectState> objects_;
};

}  // namespace colony
