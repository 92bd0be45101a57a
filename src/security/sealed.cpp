#include "security/sealed.hpp"

#include <algorithm>
#include <utility>

namespace colony::security {
namespace {

std::unique_ptr<Crdt> make_sealed() {
  return std::make_unique<SealedObject>();
}

/// The plaintext inside a sealed op: the inner type tag and op payload.
using Envelope = std::pair<CrdtType, Bytes>;

}  // namespace

void register_sealed_crdt() {
  register_crdt_factory(CrdtType::kSealed, &make_sealed);
}

Bytes SealedObject::prepare_append(const SealedPayload& sealed) {
  return codec::to_bytes(sealed);
}

void SealedObject::apply(const Bytes& op) {
  auto entry = codec::from_bytes<SealedPayload>(op);
  // Keep nonce order so all replicas hold identical state; drop duplicate
  // nonces (re-delivery).
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), entry.nonce,
      [](const SealedPayload& e, std::uint64_t n) { return e.nonce < n; });
  if (pos != entries_.end() && pos->nonce == entry.nonce) return;
  entries_.insert(pos, std::move(entry));
}

OpRecord seal_op(const ObjectKey& key, SessionKey session_key,
                 std::uint64_t nonce, CrdtType inner_type,
                 const Bytes& inner) {
  const SealedPayload sealed =
      seal(key.bucket, session_key, nonce,
           codec::to_bytes(Envelope{inner_type, inner}));
  return OpRecord{key, CrdtType::kSealed,
                  SealedObject::prepare_append(sealed)};
}

std::optional<std::unique_ptr<Crdt>> unseal(const SealedObject& sealed,
                                            SessionKey session_key,
                                            CrdtType expected_type) {
  auto value = make_crdt(expected_type);
  for (const SealedPayload& entry : sealed.entries()) {
    const auto plain = open(entry, session_key);
    if (!plain.has_value()) return std::nullopt;  // wrong key / tampered
    const auto envelope = codec::try_from_bytes<Envelope>(*plain);
    if (!envelope.has_value() || envelope->first != expected_type) {
      return std::nullopt;
    }
    value->apply(envelope->second);
  }
  return value;
}

}  // namespace colony::security
