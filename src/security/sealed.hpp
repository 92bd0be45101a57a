// End-to-end encrypted objects (paper section 2.4): "because it is the edge
// device that executes and merges updates, data can remain encrypted
// end-to-end; the untrusted cloud serves merely for transport and
// persistence".
//
// A sealed object is an append-only container of ciphertext operations.
// The cloud replicates, journals, K-stabilises and pushes it like any CRDT
// — but cannot materialise the plaintext. A client holding the bucket's
// session key decrypts the entries and replays them into the real CRDT
// locally. Convergence holds because the underlying operations are CRDT
// ops and every keyed client applies all of them.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/txn.hpp"
#include "crdt/crdt.hpp"
#include "security/crypto_sim.hpp"

namespace colony::security {

/// The opaque container the cloud sees. Ciphertext entries are kept in a
/// deterministic order (by the sealing nonce, which callers derive from a
/// fresh dot) so replicas converge on identical state.
class SealedObject final : public StateCrdt<SealedObject, CrdtType::kSealed> {
 public:
  [[nodiscard]] static Bytes prepare_append(const SealedPayload& sealed);

  void apply(const Bytes& op) override;

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  [[nodiscard]] const std::vector<SealedPayload>& entries() const {
    return entries_;
  }

 private:
  friend StateCrdt;
  auto state() { return std::tie(entries_); }

  std::vector<SealedPayload> entries_;  // sorted by nonce
};

/// Register the sealed CRDT with the factory (idempotent).
void register_sealed_crdt();

/// Wrap a plaintext CRDT operation for a sealed object. `inner` is the op
/// that would have been applied to the real object of type `inner_type`;
/// `nonce` must be unique per op (use the dot counter).
[[nodiscard]] OpRecord seal_op(const ObjectKey& key, SessionKey session_key,
                               std::uint64_t nonce, CrdtType inner_type,
                               const Bytes& inner);

/// Decrypt a sealed object into the real CRDT. Returns nullopt if any
/// entry fails authentication (wrong key or tampering) or decodes to a
/// different inner type than expected.
[[nodiscard]] std::optional<std::unique_ptr<Crdt>> unseal(
    const SealedObject& sealed, SessionKey session_key,
    CrdtType expected_type);

}  // namespace colony::security
