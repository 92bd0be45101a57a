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

ObjectKey acl_object_key() { return ObjectKey{"_sys", "acl"}; }

namespace {
std::unique_ptr<Crdt> make_acl() { return std::make_unique<AclObject>(); }

void encode_tuple(Encoder& enc, const AclTuple& t) {
  enc.str(t.object);
  enc.u64(t.user);
  enc.u8(static_cast<std::uint8_t>(t.permission));
}

AclTuple decode_tuple(Decoder& dec) {
  AclTuple t;
  t.object = dec.str();
  t.user = dec.u64();
  t.permission = static_cast<Permission>(dec.u8());
  return t;
}
}  // namespace

void register_acl_crdt() { register_crdt_factory(CrdtType::kAcl, &make_acl); }

Bytes AclObject::prepare_grant(const AclTuple& tuple, const Dot& dot) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kGrant));
  encode_tuple(enc, tuple);
  dot.encode(enc);
  return enc.take();
}

Bytes AclObject::prepare_revoke(const AclTuple& tuple) const {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kRevoke));
  encode_tuple(enc, tuple);
  const auto it = grants_.find(tuple);
  if (it == grants_.end()) {
    enc.u32(0);
  } else {
    enc.u32(static_cast<std::uint32_t>(it->second.size()));
    for (const Dot& tag : it->second) tag.encode(enc);
  }
  return enc.take();
}

Bytes AclObject::prepare_set_user_parent(UserId user, UserId parent,
                                         const Arb& arb) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kSetUserParent));
  enc.u64(user);
  enc.u64(parent);
  arb.encode(enc);
  return enc.take();
}

Bytes AclObject::prepare_set_object_parent(const std::string& object,
                                           const std::string& parent,
                                           const Arb& arb) {
  Encoder enc;
  enc.u8(static_cast<std::uint8_t>(OpKind::kSetObjectParent));
  enc.str(object);
  enc.str(parent);
  arb.encode(enc);
  return enc.take();
}

void AclObject::apply(const Bytes& op) {
  Decoder dec(op);
  const auto kind = static_cast<OpKind>(dec.u8());
  switch (kind) {
    case OpKind::kGrant: {
      const AclTuple tuple = decode_tuple(dec);
      grants_[tuple].insert(Dot::decode(dec));
      break;
    }
    case OpKind::kRevoke: {
      const AclTuple tuple = decode_tuple(dec);
      const auto it = grants_.find(tuple);
      const std::uint32_t n = dec.u32();
      for (std::uint32_t i = 0; i < n; ++i) {
        const Dot tag = Dot::decode(dec);
        if (it != grants_.end()) it->second.erase(tag);
      }
      if (it != grants_.end() && it->second.empty()) grants_.erase(it);
      break;
    }
    case OpKind::kSetUserParent: {
      const UserId user = dec.u64();
      const UserId parent = dec.u64();
      const Arb arb = Arb::decode(dec);
      auto& slot = user_parent_[user];
      if (arb > slot.second) slot = {parent, arb};
      break;
    }
    case OpKind::kSetObjectParent: {
      std::string object = dec.str();
      std::string parent = dec.str();
      const Arb arb = Arb::decode(dec);
      auto& slot = object_parent_[object];
      if (arb > slot.second) slot = {std::move(parent), arb};
      break;
    }
  }
}

Bytes AclObject::snapshot() const {
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(grants_.size()));
  for (const auto& [tuple, tags] : grants_) {
    encode_tuple(enc, tuple);
    enc.u32(static_cast<std::uint32_t>(tags.size()));
    for (const Dot& tag : tags) tag.encode(enc);
  }
  enc.u32(static_cast<std::uint32_t>(user_parent_.size()));
  for (const auto& [user, slot] : user_parent_) {
    enc.u64(user);
    enc.u64(slot.first);
    slot.second.encode(enc);
  }
  enc.u32(static_cast<std::uint32_t>(object_parent_.size()));
  for (const auto& [object, slot] : object_parent_) {
    enc.str(object);
    enc.str(slot.first);
    slot.second.encode(enc);
  }
  return enc.take();
}

void AclObject::restore(const Bytes& snapshot) {
  grants_.clear();
  user_parent_.clear();
  object_parent_.clear();
  Decoder dec(snapshot);
  const std::uint32_t g = dec.u32();
  for (std::uint32_t i = 0; i < g; ++i) {
    const AclTuple tuple = decode_tuple(dec);
    auto& tags = grants_[tuple];
    const std::uint32_t n = dec.u32();
    for (std::uint32_t j = 0; j < n; ++j) tags.insert(Dot::decode(dec));
  }
  const std::uint32_t u = dec.u32();
  for (std::uint32_t i = 0; i < u; ++i) {
    const UserId user = dec.u64();
    const UserId parent = dec.u64();
    user_parent_[user] = {parent, Arb::decode(dec)};
  }
  const std::uint32_t o = dec.u32();
  for (std::uint32_t i = 0; i < o; ++i) {
    std::string object = dec.str();
    std::string parent = dec.str();
    const Arb arb = Arb::decode(dec);
    object_parent_[std::move(object)] = {std::move(parent), arb};
  }
}

std::unique_ptr<Crdt> AclObject::clone() const {
  auto copy = std::make_unique<AclObject>();
  copy->grants_ = grants_;
  copy->user_parent_ = user_parent_;
  copy->object_parent_ = object_parent_;
  return copy;
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
