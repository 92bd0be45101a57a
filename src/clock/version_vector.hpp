// Version vectors with one component per data centre.
//
// This is the paper's central metadata object (sections 3.3-3.5): because
// each DC is an SI zone and hence externally sequential, a vector of size
// N = #DCs suffices to describe a point in the global causal order, no
// matter how many edge replicas exist. Components are 8 bytes wide so the
// clocks never wrap (footnote 2).
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/binary_codec.hpp"
#include "util/types.hpp"

namespace colony {

class VersionVector {
 public:
  VersionVector() = default;
  explicit VersionVector(std::size_t num_dcs) : v_(num_dcs, 0) {}
  VersionVector(std::initializer_list<Timestamp> init) : v_(init) {}

  [[nodiscard]] std::size_t size() const { return v_.size(); }
  [[nodiscard]] Timestamp at(DcId dc) const;
  void set(DcId dc, Timestamp ts);

  /// Component-wise max, the least upper bound in the vector lattice.
  /// Each node's state vector is the LUB of the commit vectors it observed
  /// (section 3.4).
  void merge(const VersionVector& other);
  [[nodiscard]] static VersionVector lub(const VersionVector& a,
                                         const VersionVector& b);

  /// Partial order tests. `leq` is the "happens-before-or-equal" test used
  /// for dependency checks: T is before T' iff T.C <= T'.S (section 3.5).
  [[nodiscard]] bool leq(const VersionVector& other) const;
  [[nodiscard]] bool lt(const VersionVector& other) const;
  [[nodiscard]] bool concurrent_with(const VersionVector& other) const;

  bool operator==(const VersionVector& other) const { return v_ == other.v_; }

  [[nodiscard]] std::string to_string() const;

  void encode(Encoder& enc) const;
  static VersionVector decode(Decoder& dec);

  /// Bytes this vector occupies on the wire (metadata ablation bench).
  [[nodiscard]] std::size_t wire_size() const {
    return sizeof(std::uint32_t) + v_.size() * sizeof(Timestamp);
  }

 private:
  std::vector<Timestamp> v_;
};

/// Compute the K-stable cut from per-DC state vectors (section 3.8): for
/// each component, the K-th largest value across the vectors. A transaction
/// with commit vector <= this cut is visible at >= K data centres.
[[nodiscard]] VersionVector k_stable_cut(
    const std::vector<VersionVector>& dc_states, std::size_t k);

}  // namespace colony
