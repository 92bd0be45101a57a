#include "crdt/registers.hpp"

namespace colony {

Bytes LwwRegister::prepare_assign(const std::string& value, const Arb& arb) {
  return codec::to_bytes(AssignOp<Viewed>{value, arb});
}

void LwwRegister::apply(const Bytes& op) {
  auto assign = codec::from_bytes<AssignOp<>>(op);
  if (assign.arb > arb_) {
    value_ = std::move(assign.value);
    arb_ = assign.arb;
  }
}

Bytes MvRegister::prepare_assign(const std::string& value,
                                 const Dot& dot) const {
  std::vector<Dot> observed;
  observed.reserve(versions_.size());
  for (const auto& [version, _] : versions_) observed.push_back(version);
  return codec::to_bytes(AssignOp<Viewed>{value, dot, observed});
}

void MvRegister::apply(const Bytes& op) {
  auto assign = codec::from_bytes<AssignOp<>>(op);
  for (const Dot& observed : assign.observed) versions_.erase(observed);
  versions_.emplace(assign.dot, std::move(assign.value));
}

std::vector<std::string> MvRegister::values() const {
  std::vector<std::string> out;
  out.reserve(versions_.size());
  for (const auto& [_, value] : versions_) out.push_back(value);
  return out;
}

}  // namespace colony
