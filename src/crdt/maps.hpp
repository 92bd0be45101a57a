// Map CRDTs holding nested CRDTs under string fields.
//
// The paper's API exposes a grow-only map ("gmap", Fig. 3) whose fields are
// themselves CRDTs (registers, sets, ...). AwMap additionally supports
// field removal with add-wins semantics.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crdt/crdt.hpp"

namespace colony {

/// A map field's nested CRDT, held by value: copying clones it, and the
/// codec lays it out as its type tag then its length-prefixed snapshot.
class NestedCrdt {
 public:
  NestedCrdt() = default;
  NestedCrdt(const NestedCrdt& other)
      : value_(other.value_ ? other.value_->clone() : nullptr) {}
  NestedCrdt(NestedCrdt&&) noexcept = default;
  NestedCrdt& operator=(NestedCrdt&&) noexcept = default;

  /// Null until the first apply or decode.
  [[nodiscard]] const Crdt* get() const { return value_.get(); }

  /// Apply a nested op, creating the value as `type` on first use.
  void apply(CrdtType type, const Bytes& op);

  void encode(Encoder& enc) const;
  static NestedCrdt decode(Decoder& dec);

 private:
  std::unique_ptr<Crdt> value_;
};

/// Grow-only map: fields are created on first update and never removed.
class GMap final : public StateCrdt<GMap, CrdtType::kGMap> {
 public:
  /// Wrap a nested op for `field` of nested type `nested`.
  [[nodiscard]] static Bytes prepare_update(const std::string& field,
                                            CrdtType nested,
                                            const Bytes& nested_op);

  void apply(const Bytes& op) override;

  /// Nested object for a field, or nullptr if absent. The returned pointer
  /// is owned by the map and invalidated by apply/restore.
  [[nodiscard]] const Crdt* field(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> fields() const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Typed accessor; asserts on type mismatch.
  template <typename T>
  [[nodiscard]] const T* field_as(const std::string& name) const {
    const Crdt* c = field(name);
    return c == nullptr ? nullptr : dynamic_cast<const T*>(c);
  }

 private:
  friend StateCrdt;
  auto state() { return std::tie(entries_); }

  template <template <typename> class Hold = Owned>
  struct UpdateOp {
    Hold<std::string> field;
    Hold<CrdtType> nested;
    Hold<Bytes> op;
    auto fields() { return std::tie(field, nested, op); }
  };

  std::map<std::string, NestedCrdt> entries_;
};

/// Add-wins map: like GMap plus observed-remove field deletion. A field is
/// present while it has live presence tags; updates add a tag, removes clear
/// the observed ones. Nested state is retained across remove/re-add (the
/// "keep value" variant), which matches op-based map semantics where a
/// concurrent update must survive a remove.
class AwMap final : public StateCrdt<AwMap, CrdtType::kAwMap> {
 public:
  [[nodiscard]] static Bytes prepare_update(const std::string& field,
                                            CrdtType nested,
                                            const Bytes& nested_op,
                                            const Dot& dot);
  [[nodiscard]] Bytes prepare_remove(const std::string& field) const;

  void apply(const Bytes& op) override;

  [[nodiscard]] bool present(const std::string& name) const;
  [[nodiscard]] const Crdt* field(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> fields() const;

  template <typename T>
  [[nodiscard]] const T* field_as(const std::string& name) const {
    const Crdt* c = field(name);
    return c == nullptr ? nullptr : dynamic_cast<const T*>(c);
  }

 private:
  friend StateCrdt;
  auto state() { return std::tie(entries_); }

  enum class OpKind : std::uint8_t { kUpdate = 1, kRemove = 2 };
  template <template <typename> class Hold = Owned>
  struct UpdateOp {
    Hold<std::string> field;
    Hold<CrdtType> nested;
    Hold<Bytes> op;
    Hold<Dot> dot;
    auto fields() { return std::tie(field, nested, op, dot); }
  };
  template <template <typename> class Hold = Owned>
  struct RemoveOp {
    Hold<std::string> field;
    Hold<std::set<Dot>> tags;
    auto fields() { return std::tie(field, tags); }
  };

  struct Entry {
    NestedCrdt value;
    std::set<Dot> presence;
    auto fields() { return std::tie(value, presence); }
  };

  std::map<std::string, Entry> entries_;
};

}  // namespace colony
