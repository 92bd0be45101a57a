#include "crdt/or_set.hpp"

namespace colony {

Bytes GSet::prepare_add(const std::string& element) {
  return codec::to_bytes(element);
}

void GSet::apply(const Bytes& op) {
  elements_.insert(codec::from_bytes<std::string>(op));
}

Bytes OrSet::prepare_add(const std::string& element, const Dot& dot) {
  return kinded_op(OpKind::kAdd, AddOp<Viewed>{element, dot});
}

Bytes OrSet::prepare_remove(const std::string& element) const {
  static const std::set<Dot> kNone;
  const auto it = tags_.find(element);
  return kinded_op(OpKind::kRemove,
                   RemoveOp<Viewed>{element,
                                    it == tags_.end() ? kNone : it->second});
}

void OrSet::apply(const Bytes& op) {
  switch (op_kind<OpKind>(op)) {
    case OpKind::kAdd: {
      auto add = op_body<AddOp<>>(op);
      tags_[std::move(add.element)].insert(add.dot);
      break;
    }
    case OpKind::kRemove: {
      const auto remove = op_body<RemoveOp<>>(op);
      const auto it = tags_.find(remove.element);
      if (it == tags_.end()) break;
      for (const Dot& tag : remove.tags) it->second.erase(tag);
      if (it->second.empty()) tags_.erase(it);
      break;
    }
  }
}

bool OrSet::contains(const std::string& element) const {
  return tags_.contains(element);
}

std::vector<std::string> OrSet::elements() const {
  std::vector<std::string> out;
  out.reserve(tags_.size());
  for (const auto& [element, _] : tags_) out.push_back(element);
  return out;
}

}  // namespace colony
