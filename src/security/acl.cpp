#include "security/acl.hpp"

#include "core/visibility.hpp"
#include "storage/journal_store.hpp"
#include "util/assert.hpp"

namespace colony::security {

const char* to_string(Permission p) {
  switch (p) {
    case Permission::kRead: return "read";
    case Permission::kWrite: return "write";
    case Permission::kOwn: return "own";
  }
  return "unknown";
}

const ObjectKey& acl_object_key() {
  static const ObjectKey key{"_sys", "acl"};
  return key;
}

namespace {

std::unique_ptr<Crdt> make_acl() { return std::make_unique<AclObject>(); }

/// LWW assignment of a forest edge.
template <typename Forest, typename Op>
void set_parent(Forest& forest, Op& op) {
  auto& slot = forest[std::move(op.child)];
  if (op.arb > slot.second) slot = {std::move(op.parent), op.arb};
}

}  // namespace

void register_acl_crdt() { register_crdt_factory(CrdtType::kAcl, &make_acl); }

Bytes AclObject::prepare_grant(const AclTuple& tuple, const Dot& dot) {
  return kinded_op(OpKind::kGrant, GrantOp<Viewed>{tuple, dot});
}

Bytes AclObject::prepare_revoke(const AclTuple& tuple) const {
  static const std::set<Dot> kNone;
  const auto it = grants_.find(tuple);
  return kinded_op(OpKind::kRevoke,
                   RevokeOp<Viewed>{tuple, it == grants_.end() ? kNone
                                                               : it->second});
}

Bytes AclObject::prepare_set_user_parent(UserId user, UserId parent,
                                         const Arb& arb) {
  return kinded_op(OpKind::kSetUserParent,
                   SetParentOp<UserId, Viewed>{user, parent, arb});
}

Bytes AclObject::prepare_set_object_parent(const std::string& object,
                                           const std::string& parent,
                                           const Arb& arb) {
  return kinded_op(OpKind::kSetObjectParent,
                   SetParentOp<std::string, Viewed>{object, parent, arb});
}

void AclObject::apply(const Bytes& op) {
  switch (op_kind<OpKind>(op)) {
    case OpKind::kGrant: {
      auto grant = op_body<GrantOp<>>(op);
      grants_[std::move(grant.tuple)].insert(grant.dot);
      break;
    }
    case OpKind::kRevoke: {
      const auto revoke = op_body<RevokeOp<>>(op);
      const auto it = grants_.find(revoke.tuple);
      if (it == grants_.end()) break;
      for (const Dot& tag : revoke.tags) it->second.erase(tag);
      if (it->second.empty()) grants_.erase(it);
      break;
    }
    case OpKind::kSetUserParent: {
      auto edge = op_body<SetParentOp<UserId>>(op);
      set_parent(user_parent_, edge);
      break;
    }
    case OpKind::kSetObjectParent: {
      auto edge = op_body<SetParentOp<std::string>>(op);
      set_parent(object_parent_, edge);
      break;
    }
  }
}

bool AclObject::check(const std::string& object, UserId user,
                      Permission permission) const {
  // Walk object ancestors x user ancestors; both forests are shallow in
  // practice (bucket -> object, team -> user). Cycle guards bound the walk.
  constexpr int kMaxDepth = 32;

  std::string obj = object;
  for (int od = 0; od < kMaxDepth; ++od) {
    UserId usr = user;
    for (int ud = 0; ud < kMaxDepth; ++ud) {
      if (has_grant(AclTuple{obj, usr, permission})) return true;
      // kOwn implies kWrite implies kRead.
      if (permission != Permission::kOwn &&
          has_grant(AclTuple{obj, usr, Permission::kOwn})) {
        return true;
      }
      if (permission == Permission::kRead &&
          has_grant(AclTuple{obj, usr, Permission::kWrite})) {
        return true;
      }
      const UserId next = user_parent(usr);
      if (next == 0 || next == usr) break;
      usr = next;
    }
    const std::string next = object_parent(obj);
    if (next.empty() || next == obj) break;
    obj = next;
  }
  return false;
}

bool AclObject::has_grant(const AclTuple& tuple) const {
  const auto it = grants_.find(tuple);
  return it != grants_.end() && !it->second.empty();
}

UserId AclObject::user_parent(UserId user) const {
  const auto it = user_parent_.find(user);
  return it == user_parent_.end() ? 0 : it->second.first;
}

std::string AclObject::object_parent(const std::string& object) const {
  const auto it = object_parent_.find(object);
  return it == object_parent_.end() ? std::string{} : it->second.first;
}

const AclObject* current_policy(const JournalStore& store) {
  return dynamic_cast<const AclObject*>(store.current(acl_object_key()));
}

void install_policy(VisibilityEngine& engine, const JournalStore& store) {
  engine.set_security_check([&store](const Transaction& txn) {
    return txn_allowed(current_policy(store), txn);
  });
  engine.set_policy_key(acl_object_key());
}

bool txn_allowed(const AclObject* acl, const Transaction& txn) {
  if (acl == nullptr || acl->grant_count() == 0) return true;  // bootstrap
  const UserId user = txn.meta.user;
  for (const OpRecord& op : txn.ops) {
    if (op.key == acl_object_key()) {
      if (!acl->check("_sys", user, Permission::kOwn)) return false;
      continue;
    }
    const bool allowed = acl->check(op.key.name, user, Permission::kWrite) ||
                         acl->check(op.key.bucket, user, Permission::kWrite);
    if (!allowed) return false;
  }
  return true;
}

}  // namespace colony::security
