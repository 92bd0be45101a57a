#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/assert.hpp"

namespace colony {

void LatencyHistogram::record(SimTime latency_us) {
  samples_.push_back(latency_us);
  sorted_ = false;
}

void LatencyHistogram::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyHistogram::mean_us() const {
  if (samples_.empty()) return 0.0;
  const auto sum = std::accumulate(samples_.begin(), samples_.end(),
                                   static_cast<double>(0));
  return sum / static_cast<double>(samples_.size());
}

SimTime LatencyHistogram::percentile_us(double p) const {
  COLONY_ASSERT(p >= 0 && p <= 100, "percentile out of range");
  if (samples_.empty()) return 0;
  ensure_sorted();
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<std::size_t>(std::llround(rank));
  return samples_[std::min(idx, samples_.size() - 1)];
}

SimTime LatencyHistogram::min_us() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.front();
}

SimTime LatencyHistogram::max_us() const {
  if (samples_.empty()) return 0;
  ensure_sorted();
  return samples_.back();
}

void ThroughputCounter::record(SimTime now) {
  ++windows_[now / window_];
  ++total_;
}

std::vector<double> ThroughputCounter::rates_per_second() const {
  if (windows_.empty()) return {};
  std::vector<double> rates;
  const auto first = windows_.begin()->first;
  const auto last = windows_.rbegin()->first;
  const double scale =
      static_cast<double>(kSecond) / static_cast<double>(window_);
  for (std::uint64_t w = first; w <= last; ++w) {
    const auto it = windows_.find(w);
    rates.push_back(it == windows_.end()
                        ? 0.0
                        : static_cast<double>(it->second) * scale);
  }
  return rates;
}

double ThroughputCounter::steady_rate_per_second() const {
  const auto rates = rates_per_second();
  if (rates.empty()) return 0.0;
  if (rates.size() < 4) {
    return std::accumulate(rates.begin(), rates.end(), 0.0) /
           static_cast<double>(rates.size());
  }
  const std::size_t lo = rates.size() / 4;
  const std::size_t hi = rates.size() - rates.size() / 4;
  double sum = 0;
  for (std::size_t i = lo; i < hi; ++i) sum += rates[i];
  return sum / static_cast<double>(hi - lo);
}

void WireStats::record(Counter& link, std::uint32_t kind,
                       std::size_t frame_bytes) {
  const auto n = static_cast<std::uint64_t>(frame_bytes);
  ++total_.frames;
  total_.bytes += n;
  auto& k = per_kind_[kind];
  ++k.frames;
  k.bytes += n;
  ++link.frames;
  link.bytes += n;
}

WireStats::Counter WireStats::for_kind(std::uint32_t kind) const {
  const auto it = per_kind_.find(kind);
  return it == per_kind_.end() ? Counter{} : it->second;
}

WireStats::Counter WireStats::for_link(NodeId from, NodeId to) const {
  const auto it = per_link_.find({from, to});
  return it == per_link_.end() ? Counter{} : it->second;
}

void WireStats::clear() {
  total_ = Counter{};
  per_kind_.clear();
  // Zeroed in place: senders hold references to these counters.
  for (auto& [_, link] : per_link_) link = Counter{};
}

double Series::mean_in(SimTime from, SimTime to) const {
  double sum = 0;
  std::size_t n = 0;
  for (const auto& pt : points_) {
    if (pt.at >= from && pt.at < to) {
      sum += pt.value;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

std::size_t Series::count_in(SimTime from, SimTime to) const {
  std::size_t n = 0;
  for (const auto& pt : points_) {
    if (pt.at >= from && pt.at < to) ++n;
  }
  return n;
}

}  // namespace colony
