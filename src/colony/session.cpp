#include "colony/session.hpp"

#include "crdt/counter.hpp"
#include "crdt/maps.hpp"
#include "crdt/or_set.hpp"
#include "crdt/registers.hpp"
#include "crdt/rga.hpp"
#include "security/sealed.hpp"

namespace colony {

// ---------------------------------------------------------------------------
// Typed reads.
// ---------------------------------------------------------------------------

void Session::read_counter(
    Txn& txn, const ObjectKey& key,
    std::function<void(Result<std::int64_t>, ReadSource)> cb) {
  node_.read(txn, key, CrdtType::kPnCounter,
             [cb = std::move(cb)](Result<std::shared_ptr<Crdt>> r,
                                  ReadSource src) {
               if (!r.ok()) {
                 cb(r.error(), src);
                 return;
               }
               const auto* counter =
                   dynamic_cast<const PnCounter*>(r.value().get());
               cb(counter->value(), src);
             });
}

void Session::read_register(
    Txn& txn, const ObjectKey& key,
    std::function<void(Result<std::string>, ReadSource)> cb) {
  node_.read(txn, key, CrdtType::kLwwRegister,
             [cb = std::move(cb)](Result<std::shared_ptr<Crdt>> r,
                                  ReadSource src) {
               if (!r.ok()) {
                 cb(r.error(), src);
                 return;
               }
               const auto* reg =
                   dynamic_cast<const LwwRegister*>(r.value().get());
               cb(reg->value(), src);
             });
}

void Session::read_set(
    Txn& txn, const ObjectKey& key,
    std::function<void(Result<std::vector<std::string>>, ReadSource)> cb) {
  node_.read(txn, key, CrdtType::kOrSet,
             [cb = std::move(cb)](Result<std::shared_ptr<Crdt>> r,
                                  ReadSource src) {
               if (!r.ok()) {
                 cb(r.error(), src);
                 return;
               }
               const auto* set = dynamic_cast<const OrSet*>(r.value().get());
               cb(set->elements(), src);
             });
}

void Session::read_sequence(
    Txn& txn, const ObjectKey& key,
    std::function<void(Result<std::vector<std::string>>, ReadSource)> cb) {
  node_.read(txn, key, CrdtType::kRga,
             [cb = std::move(cb)](Result<std::shared_ptr<Crdt>> r,
                                  ReadSource src) {
               if (!r.ok()) {
                 cb(r.error(), src);
                 return;
               }
               const auto* seq = dynamic_cast<const Rga*>(r.value().get());
               cb(seq->values(), src);
             });
}

// ---------------------------------------------------------------------------
// Typed updates.
// ---------------------------------------------------------------------------

void Session::increment(Txn& txn, const ObjectKey& key, std::int64_t delta) {
  node_.update(txn, OpRecord{key, CrdtType::kPnCounter,
                             PnCounter::prepare_add(delta)});
}

void Session::assign(Txn& txn, const ObjectKey& key,
                     const std::string& value) {
  // The assignment orders after the value it overwrites.
  const auto* cached = dynamic_cast<const LwwRegister*>(node_.cached(key));
  const Arb arb = node_.make_arb(cached != nullptr ? cached->arb().ts : 0);
  node_.update(txn, OpRecord{key, CrdtType::kLwwRegister,
                             LwwRegister::prepare_assign(value, arb)});
}

void Session::add_to_set(Txn& txn, const ObjectKey& key,
                         const std::string& element) {
  node_.update(txn, OpRecord{key, CrdtType::kOrSet,
                             OrSet::prepare_add(element, node_.fresh_dot())});
}

void Session::remove_from_set(Txn& txn, const ObjectKey& key,
                              const std::string& element) {
  const auto* cached = dynamic_cast<const OrSet*>(node_.cached(key));
  const OrSet empty;
  const OrSet& base = cached != nullptr ? *cached : empty;
  node_.update(txn, OpRecord{key, CrdtType::kOrSet,
                             base.prepare_remove(element)});
}

void Session::append(Txn& txn, const ObjectKey& key,
                     const std::string& value) {
  const auto* cached = dynamic_cast<const Rga*>(node_.cached(key));
  // Append after the cached tail; within a transaction, chain after the
  // transaction's own prior appends to the same sequence.
  Dot after = cached != nullptr ? cached->last_id() : Dot{};
  for (const OpRecord& op : txn.ops) {
    if (op.key != key || op.type != CrdtType::kRga) continue;
    if (const auto insert = Rga::as_insert(op.payload)) after = insert->arb.dot;
  }
  node_.update(txn, OpRecord{key, CrdtType::kRga,
                             Rga::prepare_insert(after, value,
                                                 node_.make_arb())});
}

void Session::map_assign(Txn& txn, const ObjectKey& map_key,
                         const std::string& field, const std::string& value) {
  const auto* map = dynamic_cast<const GMap*>(node_.cached(map_key));
  const auto* cached =
      map != nullptr ? map->field_as<LwwRegister>(field) : nullptr;
  const Bytes nested = LwwRegister::prepare_assign(
      value, node_.make_arb(cached != nullptr ? cached->arb().ts : 0));
  node_.update(txn,
               OpRecord{map_key, CrdtType::kGMap,
                        GMap::prepare_update(field, CrdtType::kLwwRegister,
                                             nested)});
}

void Session::map_add_to_set(Txn& txn, const ObjectKey& map_key,
                             const std::string& field,
                             const std::string& element) {
  const Bytes nested = OrSet::prepare_add(element, node_.fresh_dot());
  node_.update(txn, OpRecord{map_key, CrdtType::kGMap,
                             GMap::prepare_update(field, CrdtType::kOrSet,
                                                  nested)});
}

// ---------------------------------------------------------------------------
// End-to-end sealed objects.
// ---------------------------------------------------------------------------

bool Session::sealed_update(Txn& txn, const ObjectKey& key,
                            CrdtType inner_type, const Bytes& inner) {
  const auto session_key = node_.session_key(key.bucket);
  if (!session_key.has_value()) return false;
  // The nonce doubles as the entry's identity and order; fold the origin
  // in so concurrent writers never collide.
  const Dot nonce_dot = node_.fresh_dot();
  const std::uint64_t nonce =
      (nonce_dot.origin << 24) | (nonce_dot.counter & 0xFFFFFF);
  node_.update(txn, security::seal_op(key, *session_key, nonce, inner_type,
                                      inner));
  return true;
}

std::optional<std::unique_ptr<Crdt>> Session::sealed_read(
    const ObjectKey& key, CrdtType inner_type) const {
  const auto session_key = node_.session_key(key.bucket);
  if (!session_key.has_value()) return std::nullopt;
  const auto* sealed =
      dynamic_cast<const security::SealedObject*>(node_.cached(key));
  if (sealed == nullptr) return std::nullopt;
  return security::unseal(*sealed, *session_key, inner_type);
}

// ---------------------------------------------------------------------------
// Access control.
// ---------------------------------------------------------------------------

void Session::grant(Txn& txn, const security::AclTuple& tuple) {
  node_.update(txn, OpRecord{security::acl_object_key(), CrdtType::kAcl,
                             security::AclObject::prepare_grant(
                                 tuple, node_.fresh_dot())});
}

void Session::revoke(Txn& txn, const security::AclTuple& tuple) {
  const auto* cached = dynamic_cast<const security::AclObject*>(
      node_.cached(security::acl_object_key()));
  const security::AclObject empty;
  const security::AclObject& base = cached != nullptr ? *cached : empty;
  node_.update(txn, OpRecord{security::acl_object_key(), CrdtType::kAcl,
                             base.prepare_revoke(tuple)});
}

void Session::set_object_parent(Txn& txn, const std::string& object,
                                const std::string& parent) {
  node_.update(txn, OpRecord{security::acl_object_key(), CrdtType::kAcl,
                             security::AclObject::prepare_set_object_parent(
                                 object, parent, node_.make_arb())});
}

void Session::set_user_parent(Txn& txn, UserId user, UserId parent) {
  node_.update(txn, OpRecord{security::acl_object_key(), CrdtType::kAcl,
                             security::AclObject::prepare_set_user_parent(
                                 user, parent, node_.make_arb())});
}

}  // namespace colony
