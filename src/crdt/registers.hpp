// Register CRDTs: last-writer-wins and multi-value.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "crdt/crdt.hpp"

namespace colony {

/// LWW register: the assignment with the greatest arbitration token wins.
/// Strong convergence follows from Arb being a total order.
class LwwRegister final
    : public StateCrdt<LwwRegister, CrdtType::kLwwRegister> {
 public:
  [[nodiscard]] static Bytes prepare_assign(const std::string& value,
                                            const Arb& arb);

  void apply(const Bytes& op) override;

  [[nodiscard]] const std::string& value() const { return value_; }
  [[nodiscard]] const Arb& arb() const { return arb_; }

 private:
  friend StateCrdt;
  auto state() { return std::tie(value_, arb_); }

  template <template <typename> class Hold = Owned>
  struct AssignOp {
    Hold<std::string> value;
    Hold<Arb> arb;
    auto fields() { return std::tie(value, arb); }
  };

  std::string value_;
  Arb arb_{};  // zero Arb = unwritten; any real write beats it
};

/// Multi-value register: concurrent assignments are all kept; a new
/// assignment replaces exactly the versions its origin had observed.
/// Requires causal delivery (guaranteed by the visibility layer).
class MvRegister final : public StateCrdt<MvRegister, CrdtType::kMvRegister> {
 public:
  /// The op carries the dots of the currently visible versions (to be
  /// superseded) plus the new (value, dot) pair.
  [[nodiscard]] Bytes prepare_assign(const std::string& value,
                                     const Dot& dot) const;

  void apply(const Bytes& op) override;

  /// All concurrent values, in deterministic (dot) order.
  [[nodiscard]] std::vector<std::string> values() const;
  [[nodiscard]] std::size_t version_count() const { return versions_.size(); }

 private:
  friend StateCrdt;
  auto state() { return std::tie(versions_); }

  template <template <typename> class Hold = Owned>
  struct AssignOp {
    Hold<std::string> value;
    Hold<Dot> dot;
    Hold<std::vector<Dot>> observed;
    auto fields() { return std::tie(value, dot, observed); }
  };

  std::map<Dot, std::string> versions_;
};

}  // namespace colony
