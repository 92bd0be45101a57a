#include "crdt/maps.hpp"

#include "util/assert.hpp"

namespace colony {

void NestedCrdt::apply(CrdtType type, const Bytes& op) {
  if (value_ == nullptr) value_ = make_crdt(type);
  COLONY_ASSERT(value_->type() == type,
                "map field updated with mismatched CRDT type");
  value_->apply(op);
}

void NestedCrdt::encode(Encoder& enc) const {
  codec::write(enc, std::forward_as_tuple(value_->type(), value_->snapshot()));
}

NestedCrdt NestedCrdt::decode(Decoder& dec) {
  const auto [type, state] = codec::read<std::pair<CrdtType, Bytes>>(dec);
  NestedCrdt out;
  out.value_ = make_crdt(type);
  out.value_->restore(state);
  return out;
}

Bytes GMap::prepare_update(const std::string& field, CrdtType nested,
                           const Bytes& nested_op) {
  return codec::to_bytes(UpdateOp<Viewed>{field, nested, nested_op});
}

void GMap::apply(const Bytes& op) {
  auto update = codec::from_bytes<UpdateOp<>>(op);
  entries_[std::move(update.field)].apply(update.nested, update.op);
}

const Crdt* GMap::field(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<std::string> GMap::fields() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, _] : entries_) out.push_back(name);
  return out;
}

Bytes AwMap::prepare_update(const std::string& field, CrdtType nested,
                            const Bytes& nested_op, const Dot& dot) {
  return kinded_op(OpKind::kUpdate,
                   UpdateOp<Viewed>{field, nested, nested_op, dot});
}

Bytes AwMap::prepare_remove(const std::string& field) const {
  static const std::set<Dot> kNone;
  const auto it = entries_.find(field);
  return kinded_op(OpKind::kRemove,
                   RemoveOp<Viewed>{field, it == entries_.end()
                                               ? kNone
                                               : it->second.presence});
}

void AwMap::apply(const Bytes& op) {
  switch (op_kind<OpKind>(op)) {
    case OpKind::kUpdate: {
      auto update = op_body<UpdateOp<>>(op);
      Entry& entry = entries_[std::move(update.field)];
      entry.value.apply(update.nested, update.op);
      entry.presence.insert(update.dot);
      break;
    }
    case OpKind::kRemove: {
      const auto remove = op_body<RemoveOp<>>(op);
      const auto it = entries_.find(remove.field);
      if (it == entries_.end()) break;
      for (const Dot& tag : remove.tags) it->second.presence.erase(tag);
      break;
    }
  }
}

bool AwMap::present(const std::string& name) const {
  const auto it = entries_.find(name);
  return it != entries_.end() && !it->second.presence.empty();
}

const Crdt* AwMap::field(const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.presence.empty()) return nullptr;
  return it->second.value.get();
}

std::vector<std::string> AwMap::fields() const {
  std::vector<std::string> out;
  for (const auto& [name, entry] : entries_) {
    if (!entry.presence.empty()) out.push_back(name);
  }
  return out;
}

}  // namespace colony
