// Set CRDTs: grow-only set and add-wins observed-remove set.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crdt/crdt.hpp"

namespace colony {

/// Grow-only set of strings.
class GSet final : public StateCrdt<GSet, CrdtType::kGSet> {
 public:
  [[nodiscard]] static Bytes prepare_add(const std::string& element);

  void apply(const Bytes& op) override;

  [[nodiscard]] bool contains(const std::string& element) const {
    return elements_.contains(element);
  }
  [[nodiscard]] const std::set<std::string>& elements() const {
    return elements_;
  }
  [[nodiscard]] std::size_t size() const { return elements_.size(); }

 private:
  friend StateCrdt;
  auto state() { return std::tie(elements_); }

  std::set<std::string> elements_;
};

/// Observed-remove set with add-wins semantics: each add is tagged with its
/// dot; a remove deletes exactly the tags its origin had observed, so a
/// concurrent add survives. Requires causal delivery.
class OrSet final : public StateCrdt<OrSet, CrdtType::kOrSet> {
 public:
  [[nodiscard]] static Bytes prepare_add(const std::string& element,
                                         const Dot& dot);
  /// Remove carries the observed tags for the element at the origin.
  [[nodiscard]] Bytes prepare_remove(const std::string& element) const;

  void apply(const Bytes& op) override;

  [[nodiscard]] bool contains(const std::string& element) const;
  [[nodiscard]] std::vector<std::string> elements() const;
  [[nodiscard]] std::size_t size() const { return tags_.size(); }

 private:
  friend StateCrdt;
  auto state() { return std::tie(tags_); }

  enum class OpKind : std::uint8_t { kAdd = 1, kRemove = 2 };
  template <template <typename> class Hold = Owned>
  struct AddOp {
    Hold<std::string> element;
    Hold<Dot> dot;
    auto fields() { return std::tie(element, dot); }
  };
  template <template <typename> class Hold = Owned>
  struct RemoveOp {
    Hold<std::string> element;
    Hold<std::set<Dot>> tags;
    auto fields() { return std::tie(element, tags); }
  };

  // element -> set of live add tags
  std::map<std::string, std::set<Dot>> tags_;
};

}  // namespace colony
