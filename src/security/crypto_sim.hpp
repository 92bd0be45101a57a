// Session-key management and payload sealing (paper sections 2.4, 5.3, 6.4).
//
// The authentication service hands a client one symmetric session key per
// shared bucket; data is encrypted end-to-end so the cloud acts as
// transport and persistence only. This module reproduces that *structure*
// with a toy stream cipher and checksum MAC.
//
// ***NOT CRYPTOGRAPHICALLY SECURE.*** The cipher is a splitmix64 keystream
// and the MAC is a keyed FNV hash — stand-ins that preserve the protocol
// shape (who holds which key, what the cloud can read) for simulation, as
// documented in DESIGN.md. Swap in AES-GCM for real deployments.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "util/binary_codec.hpp"
#include "util/types.hpp"

namespace colony::security {

using SessionKey = std::uint64_t;

/// A sealed payload: only holders of the bucket's session key can open it.
struct SealedPayload {
  std::string bucket;
  std::uint64_t nonce = 0;
  Bytes ciphertext;
  std::uint64_t mac = 0;

  auto fields() { return std::tie(bucket, nonce, ciphertext, mac); }
};

/// Seal plaintext under `key`. `nonce` must be unique per (key, payload).
[[nodiscard]] SealedPayload seal(const std::string& bucket, SessionKey key,
                                 std::uint64_t nonce, const Bytes& plaintext);

/// Open a sealed payload; nullopt if the MAC does not verify (wrong key or
/// tampering).
[[nodiscard]] std::optional<Bytes> open(const SealedPayload& sealed,
                                        SessionKey key);

/// Key service run by the session manager in the core cloud: issues one
/// session key per bucket to authorised users; keys remain valid across
/// disconnection and reconnection (section 5.3).
class KeyService {
 public:
  explicit KeyService(std::uint64_t seed) : seed_(seed) {}

  /// Authorise a user for a bucket (done at group-membership time).
  void authorize(const std::string& bucket, UserId user);
  void deauthorize(const std::string& bucket, UserId user);

  /// The bucket's session key, if `user` is authorised.
  [[nodiscard]] std::optional<SessionKey> key_for(const std::string& bucket,
                                                  UserId user) const;

  [[nodiscard]] bool authorized(const std::string& bucket,
                                UserId user) const;

 private:
  [[nodiscard]] SessionKey derive(const std::string& bucket) const;

  std::uint64_t seed_;
  std::map<std::string, std::set<UserId>> authorized_;
};

}  // namespace colony::security
