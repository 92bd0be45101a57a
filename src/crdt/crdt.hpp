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
#pragma once

#include <cstdint>
#include <memory>

#include "clock/dot.hpp"
#include "util/binary_codec.hpp"

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

  void encode(Encoder& enc) const {
    enc.u64(ts);
    dot.encode(enc);
  }
  static Arb decode(Decoder& dec) {
    Arb a;
    a.ts = dec.u64();
    a.dot = Dot::decode(dec);
    return a;
  }
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

}  // namespace colony
