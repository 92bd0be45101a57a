// Measurement helpers for the evaluation harness: latency histograms with
// percentile extraction, windowed throughput counters, and labelled
// time-series used to regenerate the paper's figures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace colony {

/// Collects latency samples (microseconds) and reports summary statistics.
class LatencyHistogram {
 public:
  void record(SimTime latency_us);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double mean_us() const;
  [[nodiscard]] SimTime percentile_us(double p) const;  // p in [0, 100]
  [[nodiscard]] SimTime min_us() const;
  [[nodiscard]] SimTime max_us() const;

  void clear() { samples_.clear(); sorted_ = true; }

 private:
  void ensure_sorted() const;

  mutable std::vector<SimTime> samples_;
  mutable bool sorted_ = true;
};

/// Counts events per fixed window of simulated time; reports a rate series.
class ThroughputCounter {
 public:
  explicit ThroughputCounter(SimTime window = kSecond) : window_(window) {}

  void record(SimTime now);

  /// Events per second for each completed window.
  [[nodiscard]] std::vector<double> rates_per_second() const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Steady-state throughput: mean of the middle half of the windows,
  /// discarding warm-up and cool-down.
  [[nodiscard]] double steady_rate_per_second() const;

 private:
  SimTime window_;
  std::map<std::uint64_t, std::uint64_t> windows_;
  std::uint64_t total_ = 0;
};

/// A labelled (time, value) series, e.g. "peer-group hit" latencies over the
/// run. Printing them row-by-row regenerates the dots of figures 5-7.
struct SeriesPoint {
  SimTime at;
  double value;
};

/// Byte accounting of the framed transport. The network records every
/// frame it accepts for transmission (including duplicate copies — they
/// occupy the wire too), keyed by directed link and by protocol kind; RPC
/// envelope flag bits are stripped by the recorder so request and response
/// traffic of a method aggregate under its protocol kind. This is what
/// makes the metadata ablation's numbers *measured* sizes rather than
/// offline re-encodings.
class WireStats {
 public:
  struct Counter {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
  };

  /// The counter of one directed link, created on first use. It stays at
  /// the same address for the life of this object (clear() zeroes it, it
  /// does not drop it), so a sender can keep it beside its link and meter
  /// frames without looking the link up again.
  Counter& link(NodeId from, NodeId to) { return per_link_[{from, to}]; }
  /// Meter one frame on `link` (a counter from link()).
  void record(Counter& link, std::uint32_t kind, std::size_t frame_bytes);

  [[nodiscard]] const Counter& total() const { return total_; }
  [[nodiscard]] Counter for_kind(std::uint32_t kind) const;
  [[nodiscard]] Counter for_link(NodeId from, NodeId to) const;
  [[nodiscard]] const std::map<std::uint32_t, Counter>& per_kind() const {
    return per_kind_;
  }

  void clear();

 private:
  Counter total_;
  std::map<std::uint32_t, Counter> per_kind_;
  std::unordered_map<std::pair<NodeId, NodeId>, Counter, LinkHash> per_link_;
};

class Series {
 public:
  explicit Series(std::string label) : label_(std::move(label)) {}

  void add(SimTime at, double value) { points_.push_back({at, value}); }

  [[nodiscard]] const std::string& label() const { return label_; }
  [[nodiscard]] const std::vector<SeriesPoint>& points() const { return points_; }

  /// Mean of values with `at` inside [from, to).
  [[nodiscard]] double mean_in(SimTime from, SimTime to) const;
  [[nodiscard]] std::size_t count_in(SimTime from, SimTime to) const;

 private:
  std::string label_;
  std::vector<SeriesPoint> points_;
};

}  // namespace colony
