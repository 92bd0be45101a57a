// Operation-based CRDT framework.
//
// Colony ensures convergence with operation-based CRDTs (paper sections 3,
// 4): a transaction *prepares* downstream operations against its snapshot,
// and every replica *applies* (replays) them. Determinism of apply plus the
// arbitration order carried in the operations yields Strong Convergence.
//
// Delivery contract: the visibility layer delivers operations in causal
// order and exactly once per replica (dots filter duplicates). Effects here
// may therefore assume their causal predecessors have been applied.
//
// A type declares its replicated state and its ops, and nothing else about
// bytes: the generic codec (util/codec.hpp) lays out every op payload and
// snapshot.
#pragma once

#include <cstdint>
#include <memory>
#include <tuple>

#include "clock/dot.hpp"
#include "util/assert.hpp"
#include "util/binary_codec.hpp"
#include "util/codec.hpp"

namespace colony {

enum class CrdtType : std::uint8_t {
  kGCounter = 1,
  kPnCounter = 2,
  kLwwRegister = 3,
  kMvRegister = 4,
  kGSet = 5,
  kOrSet = 6,
  kGMap = 7,
  kAwMap = 8,
  kRga = 9,
  // Extension types registered at run time (see register_crdt_factory).
  kAcl = 32,
  kSealed = 33,
};

[[nodiscard]] const char* to_string(CrdtType t);

/// Arbitration token attached to every operation: a timestamp (from the
/// origin's hybrid clock) plus the dot as tiebreaker. This realises the
/// paper's total arbitration order over concurrent operations (section 3.5).
struct Arb {
  Timestamp ts = 0;
  Dot dot;

  auto operator<=>(const Arb&) const = default;
  auto fields() { return std::tie(ts, dot); }
};

/// Type-erased replicated object. Concrete types add typed prepare/read
/// methods; the journal and the replication path only need this interface.
class Crdt {
 public:
  virtual ~Crdt() = default;

  [[nodiscard]] virtual CrdtType type() const = 0;

  /// Replay a downstream operation produced by a prepare on some replica.
  /// Implementations confine all mutable state to the instance: every
  /// replica holds its own copy of an object, and apply() on one copy must
  /// not affect another.
  virtual void apply(const Bytes& op) = 0;

  /// Full-state checkpoint, used for base versions (section 4.1) and for
  /// seeding caches of joining nodes.
  [[nodiscard]] virtual Bytes snapshot() const = 0;
  virtual void restore(const Bytes& snapshot) = 0;

  [[nodiscard]] virtual std::unique_ptr<Crdt> clone() const = 0;
};

/// Factory for an empty object of the given type.
[[nodiscard]] std::unique_ptr<Crdt> make_crdt(CrdtType type);

/// Register a factory for an extension CRDT type (e.g. the ACL object in
/// the security module, which cannot live in this library without a
/// dependency cycle). Idempotent per type.
void register_crdt_factory(CrdtType type,
                           std::unique_ptr<Crdt> (*factory)());

/// type() from the type's tag and clone() through its copy constructor.
template <typename Derived, CrdtType kType>
class CrdtOf : public Crdt {
 public:
  [[nodiscard]] CrdtType type() const final { return kType; }
  [[nodiscard]] std::unique_ptr<Crdt> clone() const final {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// CrdtOf plus snapshot()/restore(): the snapshot is the codec layout of
/// the members the type names once, as `auto state() { return
/// std::tie(...); }`. Restore decodes straight into those members.
template <typename Derived, CrdtType kType>
class StateCrdt : public CrdtOf<Derived, kType> {
 public:
  [[nodiscard]] Bytes snapshot() const final {
    // state() is non-const so restore can decode into it; writing does not
    // mutate, so shedding constness here is safe.
    return codec::to_bytes(
        const_cast<Derived&>(static_cast<const Derived&>(*this)).state());
  }
  void restore(const Bytes& snapshot) final {
    codec::from_bytes(snapshot, static_cast<Derived&>(*this).state());
  }
};

/// How an op struct holds its fields. Apply decodes an `Op<Owned>`;
/// prepare writes an `Op<Viewed>` of references to its arguments, so it
/// copies nothing on the way to the encoder.
template <typename T>
using Owned = T;
template <typename T>
using Viewed = const T&;

/// The payload of a type with several kinds of op: the kind byte (kinds
/// count from 1), then that op's fields.
template <typename Kind, typename Op>
[[nodiscard]] Bytes kinded_op(Kind kind, const Op& op) {
  return codec::to_bytes(std::forward_as_tuple(kind, op));
}

template <typename Kind>
[[nodiscard]] Kind op_kind(const Bytes& op) {
  COLONY_ASSERT(!op.empty(), "empty CRDT op");
  return codec::from_bytes<Kind>(ByteView(op).first(1));
}

/// The op after the kind byte of a kinded_op payload.
template <typename Op>
[[nodiscard]] Op op_body(const Bytes& op) {
  return codec::from_bytes<Op>(ByteView(op).subspan(1));
}

}  // namespace colony
