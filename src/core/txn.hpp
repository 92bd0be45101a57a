// Transaction records and metadata (paper sections 3.5-3.8).
//
// A transaction carries:
//   * its dot           — unique id + arbitration tiebreaker,
//   * snapshot vector   — the causal cut it read from (T.S),
//   * commit vector(s)  — where it commits (T.C); an edge transaction's
//                         commit is *symbolic* until a DC acknowledges it,
//                         and after migration it may hold several
//                         *equivalent* commit timestamps, stored compactly
//                         as one vector plus a bitmask of accepting DCs,
//   * pending deps      — dots of same-origin predecessors whose commit
//                         vectors were still symbolic when this transaction
//                         took its snapshot (the [α,β,γ] of Fig. 2),
//   * its operations    — CRDT downstream ops to replay.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "clock/dot.hpp"
#include "clock/dot_tracker.hpp"
#include "clock/version_vector.hpp"
#include "crdt/crdt.hpp"
#include "util/codec.hpp"
#include "util/types.hpp"

namespace colony {

/// One CRDT update inside a transaction.
struct OpRecord {
  ObjectKey key;
  CrdtType type{};
  Bytes payload;

  bool operator==(const OpRecord&) const = default;
  auto fields() { return std::tie(key, type, payload); }
};

/// Transaction metadata, mutated as commit information is learned.
struct TxnMeta {
  Dot dot;
  NodeId origin = 0;
  UserId user = 0;

  /// Concrete part of the snapshot (DC-derived state the origin had).
  VersionVector snapshot;
  /// Same-origin predecessor transactions with symbolic commits at snapshot
  /// time. The effective snapshot is `snapshot` joined with their (later
  /// resolved) commit vectors.
  std::vector<Dot> pending_deps;

  /// True once at least one DC assigned a concrete commit timestamp.
  bool concrete = false;
  /// Commit vector; entry j is significant iff bit j of accepted_mask is
  /// set (the section 3.8 multi-commit-vector optimisation).
  VersionVector commit;
  std::uint32_t accepted_mask = 0;

  [[nodiscard]] bool accepted_by(DcId dc) const {
    return dc < kMaxDcs && (accepted_mask & (1u << dc)) != 0;
  }
  void mark_accepted(DcId dc, Timestamp ts) {
    COLONY_ASSERT(dc < kMaxDcs, "DcId beyond accepted-mask width");
    accepted_mask |= 1u << dc;
    commit.set(dc, ts);
    concrete = true;
  }

  /// Invoke `fn(dc)` for every DC that assigned this transaction a commit
  /// timestamp, iterating set bits of the mask (no fixed-bound scan).
  template <typename Fn>
  void for_each_accepted(Fn&& fn) const {
    for (std::uint32_t bits = accepted_mask; bits != 0; bits &= bits - 1) {
      fn(static_cast<DcId>(std::countr_zero(bits)));
    }
  }

  /// Lowest-numbered accepting DC; only meaningful when `concrete`.
  [[nodiscard]] DcId first_accepted() const {
    return static_cast<DcId>(std::countr_zero(accepted_mask));
  }

  /// The equivalent commit vector for accepting DC `dc`: the snapshot with
  /// component dc replaced by the assigned timestamp.
  [[nodiscard]] VersionVector commit_vector_via(DcId dc) const;

  /// Least upper bound of all known equivalent commit vectors; safe to
  /// merge into a state vector.
  [[nodiscard]] VersionVector commit_lub() const;

  bool operator==(const TxnMeta&) const = default;
  auto fields() {
    return std::tie(dot, origin, user, snapshot, pending_deps, concrete,
                    commit, accepted_mask);
  }
};

/// The accepted-DC bitmask is the single place the max-DC bound is baked
/// into a data layout; keep it and kMaxDcs in lock-step.
static_assert(
    std::numeric_limits<decltype(TxnMeta::accepted_mask)>::digits == kMaxDcs,
    "TxnMeta::accepted_mask width must equal kMaxDcs");

/// Value (wire) representation of a transaction: metadata plus operations.
/// OpRecord, TxnMeta and Transaction are laid out by util/codec.hpp from
/// their fields().
struct Transaction {
  TxnMeta meta;
  std::vector<OpRecord> ops;

  bool operator==(const Transaction&) const = default;
  auto fields() { return std::tie(meta, ops); }
};

/// Node-local store of every transaction the node knows about, visible or
/// not — the paper's "backend layer" (sections 3, 4). The visibility layer
/// queries it to decide what a reader may observe.
class TxnStore {
 public:
  /// Insert (or merge commit info of) a transaction. Returns true if the
  /// transaction was new; false if its dot was already known, in which case
  /// commit metadata is merged (duplicate delivery after migration,
  /// section 3.8 "Avoiding Duplicates").
  bool add(Transaction txn);

  [[nodiscard]] const Transaction* find(const Dot& dot) const;
  Transaction* find_mutable(const Dot& dot);
  [[nodiscard]] bool contains(const Dot& dot) const {
    return txns_.contains(dot);
  }

  /// Resolve commit info: mark `dot` accepted by `dc` at `ts`, rewriting
  /// this node's copy of the metadata (the Fig. 2 step 8 fill-in).
  void resolve(const Dot& dot, DcId dc, Timestamp ts);

  /// Effective snapshot of a transaction: its concrete snapshot joined with
  /// the resolved commits of its pending deps (recursively). Returns false
  /// if some dependency is unknown or still symbolic.
  [[nodiscard]] bool effective_snapshot(const Dot& dot,
                                        VersionVector& out) const;

  /// Is the transaction visible at causal cut `cut`? True iff it is
  /// concrete and one of its equivalent commit vectors is <= cut.
  [[nodiscard]] bool visible_at(const Dot& dot,
                                const VersionVector& cut) const;

  /// Drop a transaction record (an aborted PSI-variant commit).
  void erase(const Dot& dot) { txns_.erase(dot); }

  [[nodiscard]] std::size_t size() const { return txns_.size(); }

  /// Checkpoint serialization: every transaction, in dot order (the
  /// backing map is unordered). decode() replaces contents.
  void encode(Encoder& enc) const;
  void decode(Decoder& dec);
  void clear() { txns_.clear(); }

 private:
  /// The checkpoint's one declaration, written and read by the codec.
  auto checkpoint() {
    constexpr auto dot_of = [](const Transaction& t) { return t.meta.dot; };
    return codec::ValuesByKey<dot_of, decltype(txns_)>{txns_};
  }

  std::unordered_map<Dot, Transaction> txns_;
};

}  // namespace colony
