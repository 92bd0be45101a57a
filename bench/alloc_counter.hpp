// Allocation counting for micro-benchmarks: the bench binary replaces the
// global operator new/delete (alloc_counter.cpp) and benches read the
// counters around their measurement loop to report allocations per
// operation next to ns/op in BENCH_micro.json.
#pragma once

#include <cstddef>
#include <cstdint>

namespace colony::benchalloc {

/// Total number of successful global operator new calls so far.
[[nodiscard]] std::uint64_t allocation_count();
/// Total bytes requested from global operator new so far.
[[nodiscard]] std::uint64_t allocated_bytes();

/// Snapshot-delta helper: construct before the loop, call `attribute`
/// after it to publish allocs/op and bytes/op counters on the state.
class Scope {
 public:
  Scope() : allocs_(allocation_count()), bytes_(allocated_bytes()) {}
  [[nodiscard]] std::uint64_t allocs() const {
    return allocation_count() - allocs_;
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return allocated_bytes() - bytes_;
  }

 private:
  std::uint64_t allocs_;
  std::uint64_t bytes_;
};

}  // namespace colony::benchalloc
