#include "storage/journal_store.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace colony {

bool JournalStore::ensure(const ObjectKey& key, CrdtType type) {
  auto it = objects_.find(key);
  if (it != objects_.end()) return it->second.type == type;
  ObjectState state;
  state.type = type;
  state.base = make_crdt(type);
  state.current = make_crdt(type);
  objects_.emplace(key, std::move(state));
  return true;
}

bool JournalStore::has(const ObjectKey& key) const {
  return objects_.contains(key);
}

std::optional<CrdtType> JournalStore::type_of(const ObjectKey& key) const {
  const ObjectState* s = find(key);
  if (s == nullptr) return std::nullopt;
  return s->type;
}

const JournalStore::ObjectState* JournalStore::find(
    const ObjectKey& key) const {
  const auto it = objects_.find(key);
  return it == objects_.end() ? nullptr : &it->second;
}

JournalStore::ObjectState* JournalStore::find(const ObjectKey& key) {
  const auto it = objects_.find(key);
  return it == objects_.end() ? nullptr : &it->second;
}

void JournalStore::apply(const ObjectKey& key, CrdtType type, const Dot& dot,
                         const Bytes& payload, bool masked) {
  const bool type_ok = ensure(key, type);
  COLONY_ASSERT(type_ok, "object updated with mismatched CRDT type");
  ObjectState* s = find(key);
  if (s->base_dot_set.contains(dot)) return;  // already reflected in base
  s->journal.push_back(JournalEntry{dot, payload});
  if (!masked) s->current->apply(payload);
}

const Crdt* JournalStore::current(const ObjectKey& key) const {
  const ObjectState* s = find(key);
  return s == nullptr ? nullptr : s->current.get();
}

std::unique_ptr<Crdt> JournalStore::materialize(
    const ObjectKey& key, const DotPredicate& visible) const {
  const ObjectState* s = find(key);
  if (s == nullptr) return nullptr;
  auto value = s->base->clone();
  for (const JournalEntry& entry : s->journal) {
    if (visible(entry.dot)) value->apply(entry.payload);
  }
  return value;
}

void JournalStore::rebuild_current(const ObjectKey& key,
                                   const DotPredicate& visible) {
  ObjectState* s = find(key);
  if (s == nullptr) return;
  s->current = materialize(key, visible);
}

void JournalStore::advance_base(const ObjectKey& key,
                                const DotPredicate& visible) {
  ObjectState* s = find(key);
  if (s == nullptr) return;
  std::vector<JournalEntry> kept;
  for (JournalEntry& entry : s->journal) {
    if (visible(entry.dot)) {
      s->base->apply(entry.payload);
      s->base_dots.push_back(entry.dot);
      s->base_dot_set.insert(entry.dot);
    } else {
      kept.push_back(std::move(entry));
    }
  }
  s->journal = std::move(kept);
}

std::optional<ObjectSnapshot> JournalStore::export_snapshot(
    const ObjectKey& key) const {
  const ObjectState* s = find(key);
  if (s == nullptr) return std::nullopt;
  ObjectSnapshot snap;
  snap.key = key;
  snap.type = s->type;
  snap.state = s->current->snapshot();
  snap.applied = s->base_dots;
  for (const JournalEntry& entry : s->journal) {
    snap.applied.push_back(entry.dot);
  }
  return snap;
}

std::optional<ObjectSnapshot> JournalStore::export_at(
    const ObjectKey& key, const DotPredicate& visible) const {
  const ObjectState* s = find(key);
  if (s == nullptr) return std::nullopt;
  ObjectSnapshot snap;
  snap.key = key;
  snap.type = s->type;
  snap.state = materialize(key, visible)->snapshot();
  snap.applied = s->base_dots;
  for (const JournalEntry& entry : s->journal) {
    if (visible(entry.dot)) snap.applied.push_back(entry.dot);
  }
  return snap;
}

void JournalStore::import_snapshot(const ObjectSnapshot& snap) {
  ObjectState state;
  state.type = snap.type;
  state.base = make_crdt(snap.type);
  state.base->restore(snap.state);
  state.base_dots = snap.applied;
  state.base_dot_set.insert(snap.applied.begin(), snap.applied.end());
  state.current = state.base->clone();
  objects_.insert_or_assign(snap.key, std::move(state));
}

std::vector<Dot> JournalStore::journalled_dots(const ObjectKey& key) const {
  const ObjectState* s = find(key);
  std::vector<Dot> out;
  if (s == nullptr) return out;
  out.reserve(s->journal.size());
  for (const JournalEntry& entry : s->journal) out.push_back(entry.dot);
  return out;
}

std::vector<Dot> JournalStore::applied_dots(const ObjectKey& key) const {
  const ObjectState* s = find(key);
  std::vector<Dot> out;
  if (s == nullptr) return out;
  out.reserve(s->base_dots.size() + s->journal.size());
  out.insert(out.end(), s->base_dots.begin(), s->base_dots.end());
  for (const JournalEntry& entry : s->journal) out.push_back(entry.dot);
  return out;
}

std::vector<ObjectKey> JournalStore::keys() const {
  std::vector<ObjectKey> out;
  out.reserve(objects_.size());
  for (const auto& [key, _] : objects_) out.push_back(key);
  return out;
}

std::size_t JournalStore::journal_length(const ObjectKey& key) const {
  const ObjectState* s = find(key);
  return s == nullptr ? 0 : s->journal.size();
}

void JournalStore::erase(const ObjectKey& key) {
  objects_.erase(key);
}

void JournalStore::clear() {
  objects_.clear();
}

void JournalStore::Snapshot::encode(Encoder& enc) const {
  codec::write(enc, value->snapshot());
}

void JournalStore::Snapshot::decode(Decoder& dec) {
  const auto state = codec::read<Bytes>(dec);
  if (!dec.ok()) return;  // never restore from a failed decode
  value = make_crdt(type);
  value->restore(state);
}

void JournalStore::encode(Encoder& enc) const {
  codec::write(enc, objects_);  // std::map: key order
}

void JournalStore::decode(Decoder& dec) {
  codec::read_into(dec, objects_);
  if (!dec.ok()) {
    objects_.clear();  // drop the objects a failed read left half-built
    return;
  }
  for (auto& [key, s] : objects_) {
    s.base_dot_set.insert(s.base_dots.begin(), s.base_dots.end());
  }
}

}  // namespace colony
