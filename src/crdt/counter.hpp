// Counter CRDTs. Increments commute, so the op payload is just a delta.
#pragma once

#include <cstdint>

#include "crdt/crdt.hpp"

namespace colony {

/// Grow-only counter: deltas must be non-negative.
class GCounter final : public StateCrdt<GCounter, CrdtType::kGCounter> {
 public:
  /// Prepare an increment by `delta` (>= 0).
  [[nodiscard]] static Bytes prepare_increment(std::int64_t delta);

  void apply(const Bytes& op) override;

  [[nodiscard]] std::int64_t value() const { return value_; }

 private:
  friend StateCrdt;
  auto state() { return std::tie(value_); }

  std::int64_t value_ = 0;
};

/// Positive-negative counter: deltas may be negative.
class PnCounter final : public StateCrdt<PnCounter, CrdtType::kPnCounter> {
 public:
  [[nodiscard]] static Bytes prepare_add(std::int64_t delta);

  void apply(const Bytes& op) override;

  [[nodiscard]] std::int64_t value() const { return positive_ - negative_; }
  [[nodiscard]] std::int64_t increments() const { return positive_; }
  [[nodiscard]] std::int64_t decrements() const { return negative_; }

 private:
  friend StateCrdt;
  auto state() { return std::tie(positive_, negative_); }

  std::int64_t positive_ = 0;
  std::int64_t negative_ = 0;
};

}  // namespace colony
