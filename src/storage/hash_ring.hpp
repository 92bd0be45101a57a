// Consistent-hash ring for intra-DC sharding.
//
// Data in a DC is sharded by consistent hashing across server machines
// (paper section 6.3, riak_core in the original). Virtual nodes smooth the
// distribution; adding/removing a shard moves only the neighbouring arcs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace colony {

class HashRing {
 public:
  explicit HashRing(std::size_t vnodes_per_shard = 64)
      : vnodes_per_shard_(vnodes_per_shard) {}

  void add_shard(std::uint32_t shard);
  void remove_shard(std::uint32_t shard);

  /// Shard owning `key`. The ring must be non-empty.
  [[nodiscard]] std::uint32_t owner(const ObjectKey& key) const;

  [[nodiscard]] bool empty() const { return ring_.empty(); }

  /// 64-bit FNV-1a, exposed for tests and for the workload generator.
  [[nodiscard]] static std::uint64_t hash(const std::string& s);

 private:
  std::size_t vnodes_per_shard_;
  std::map<std::uint64_t, std::uint32_t> ring_;  // point -> shard
  std::vector<std::uint32_t> shards_;
};

}  // namespace colony
