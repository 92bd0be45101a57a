// Access control (paper sections 2.4, 5.3, 6.4).
//
// The security policy is a set of (object, user, permission) grants plus
// two right-inheritance (RI) forests — one over objects, one over users.
// Checking a permission evaluates the predicate "some ancestor-or-self of
// the user holds the permission on some ancestor-or-self of the object".
//
// The policy itself is replicated data: AclObject is an op-based CRDT
// (grants are an observed-remove set; forest edges are LWW) stored under a
// reserved key, so ACL updates flow through the same TCC+ machinery as data
// and "data and security metadata are mutually consistent". Enforcement is
// deferred to after commit: the visibility engine masks a committed
// transaction that fails its ACL check, transitively with its causal
// dependants.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "core/txn.hpp"
#include "crdt/crdt.hpp"
#include "util/types.hpp"

namespace colony {
class JournalStore;
class VisibilityEngine;
}  // namespace colony

namespace colony::security {

enum class Permission : std::uint8_t {
  kRead = 1,
  kWrite = 2,
  kOwn = 3,
};

[[nodiscard]] const char* to_string(Permission p);

/// A grant tuple. `object` is an object name or a bucket name (the RI
/// forest lets a bucket act as parent of its objects).
struct AclTuple {
  std::string object;
  UserId user = 0;
  Permission permission{};

  auto operator<=>(const AclTuple&) const = default;
  auto fields() { return std::tie(object, user, permission); }
};

/// The reserved key under which the policy object lives (one instance, so
/// per-op comparisons against it allocate nothing).
[[nodiscard]] const ObjectKey& acl_object_key();

/// Register the ACL CRDT with the factory; call once at process start
/// (idempotent).
void register_acl_crdt();

class AclObject final : public StateCrdt<AclObject, CrdtType::kAcl> {
 public:
  // --- prepare (downstream op construction) -------------------------------
  [[nodiscard]] static Bytes prepare_grant(const AclTuple& tuple,
                                           const Dot& dot);
  /// Observed-remove: revokes the grant tags currently visible here.
  [[nodiscard]] Bytes prepare_revoke(const AclTuple& tuple) const;
  [[nodiscard]] static Bytes prepare_set_user_parent(UserId user,
                                                     UserId parent,
                                                     const Arb& arb);
  [[nodiscard]] static Bytes prepare_set_object_parent(
      const std::string& object, const std::string& parent, const Arb& arb);

  void apply(const Bytes& op) override;

  // --- policy queries ------------------------------------------------------
  /// The predicate check of section 6.4: walks both RI forests.
  [[nodiscard]] bool check(const std::string& object, UserId user,
                           Permission permission) const;

  [[nodiscard]] bool has_grant(const AclTuple& tuple) const;
  [[nodiscard]] UserId user_parent(UserId user) const;
  [[nodiscard]] std::string object_parent(const std::string& object) const;
  [[nodiscard]] std::size_t grant_count() const { return grants_.size(); }

 private:
  friend StateCrdt;
  auto state() { return std::tie(grants_, user_parent_, object_parent_); }

  enum class OpKind : std::uint8_t {
    kGrant = 1,
    kRevoke = 2,
    kSetUserParent = 3,
    kSetObjectParent = 4,
  };
  template <template <typename> class Hold = Owned>
  struct GrantOp {
    Hold<AclTuple> tuple;
    Hold<Dot> dot;
    auto fields() { return std::tie(tuple, dot); }
  };
  template <template <typename> class Hold = Owned>
  struct RevokeOp {
    Hold<AclTuple> tuple;
    Hold<std::set<Dot>> tags;
    auto fields() { return std::tie(tuple, tags); }
  };
  /// Edge of a right-inheritance forest: `child`'s parent is `parent`.
  template <typename Node, template <typename> class Hold = Owned>
  struct SetParentOp {
    Hold<Node> child;
    Hold<Node> parent;
    Hold<Arb> arb;
    auto fields() { return std::tie(child, parent, arb); }
  };

  std::map<AclTuple, std::set<Dot>> grants_;
  std::map<UserId, std::pair<UserId, Arb>> user_parent_;
  std::map<std::string, std::pair<std::string, Arb>> object_parent_;
};

/// The deferred post-commit enforcement predicate (section 6.4): may the
/// values written by `txn` become visible under policy `acl`?
///
/// Rules: with no policy installed (null acl or zero grants) everything is
/// allowed (bootstrap). Otherwise a data update on key k requires kWrite on
/// k's name or its bucket; an update of the policy object itself requires
/// kOwn on the policy ("_sys" bucket).
[[nodiscard]] bool txn_allowed(const AclObject* acl, const Transaction& txn);

/// The policy object stored in `store` (nullptr = open policy).
[[nodiscard]] const AclObject* current_policy(const JournalStore& store);

/// Enforce the policy stored in `store` on `engine`: mask what txn_allowed
/// rejects under the policy's current value, and name the policy key so the
/// engine re-evaluates its masks whenever a visible transaction writes it.
void install_policy(VisibilityEngine& engine, const JournalStore& store);

}  // namespace colony::security
