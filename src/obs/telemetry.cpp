#include "obs/telemetry.h"

#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::obs {

HistogramSpec HistogramSpec::exponential(std::int64_t first,
                                         std::size_t buckets) {
  RTS_EXPECTS(first >= 1);
  RTS_EXPECTS(buckets >= 1);
  HistogramSpec spec;
  spec.bounds.reserve(buckets);
  std::int64_t bound = first;
  for (std::size_t i = 0; i < buckets; ++i) {
    spec.bounds.push_back(bound);
    RTS_ASSERT(bound <= std::numeric_limits<std::int64_t>::max() / 2);
    bound *= 2;
  }
  return spec;
}

HistogramSpec HistogramSpec::linear(std::int64_t width, std::size_t buckets) {
  RTS_EXPECTS(width >= 1);
  RTS_EXPECTS(buckets >= 1);
  HistogramSpec spec;
  spec.bounds.reserve(buckets);
  for (std::size_t i = 1; i <= buckets; ++i) {
    spec.bounds.push_back(width * static_cast<std::int64_t>(i));
  }
  return spec;
}

Histogram::Histogram(HistogramSpec spec)
    : spec_(std::move(spec)), counts_(spec_.bounds.size() + 1, 0) {
  const std::vector<std::int64_t>& bounds = spec_.bounds;
  RTS_EXPECTS(!bounds.empty());
  RTS_EXPECTS(counts_.size() < 255);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    RTS_EXPECTS(bounds[i - 1] < bounds[i]);
  }
  // first_[k] = lower_bound(2^(k-1) + 1), or of 1 for k = 0. The keys grow
  // with k, so one forward pass fills the table.
  std::size_t bucket = 0;
  for (std::size_t k = 0; k < first_.size(); ++k) {
    const std::uint64_t smallest =
        k == 0 ? 1 : (std::uint64_t{1} << (k - 1)) + 1;
    while (bucket < bounds.size() &&
           (bounds[bucket] < 0 ||
            static_cast<std::uint64_t>(bounds[bucket]) < smallest)) {
      ++bucket;
    }
    first_[k] = static_cast<std::uint8_t>(bucket);
  }
}

void Histogram::record(std::int64_t value, std::int64_t weight) {
  if (weight < 0) {
    throw std::invalid_argument("Histogram: negative weight " +
                                std::to_string(weight));
  }
  if (weight == 0) return;
  // Start at the bucket of the smallest value of value's bit width, then
  // scan forward to the first bound >= value (the last bucket is the
  // overflow). For an exponential spec the start is already the answer.
  const std::vector<std::int64_t>& bounds = spec_.bounds;
  std::size_t bucket =
      value > 0 ? first_[static_cast<std::size_t>(std::bit_width(
                      static_cast<std::uint64_t>(value - 1)))]
                : 0;
  while (bucket < bounds.size() && bounds[bucket] < value) ++bucket;
  counts_[bucket] += weight;
  count_ += weight;
  sum_ += value * weight;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

double Histogram::mean() const {
  return count_ > 0 ? static_cast<double>(sum_) / static_cast<double>(count_)
                    : 0.0;
}

void Histogram::merge(const Histogram& other) {
  if (spec_.bounds != other.spec_.bounds) {
    // Mismatched bucket layouts mean different instrumentation sites were
    // filed under one name — adding their buckets would fabricate data.
    throw std::invalid_argument(
        "Histogram: merge of mismatched bucket specs");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Json Histogram::to_json() const {
  Json j = Json::object();
  j["count"] = count_;
  j["sum"] = sum_;
  j["min"] = min();
  j["max"] = max();
  Json bounds = Json::array();
  for (const std::int64_t b : spec_.bounds) bounds.push_back(b);
  j["bounds"] = std::move(bounds);
  Json counts = Json::array();
  for (const std::int64_t c : counts_) counts.push_back(c);
  j["counts"] = std::move(counts);
  return j;
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  return counters_.emplace(std::string(name), Counter{}).first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return it->second;
  return gauges_.emplace(std::string(name), Gauge{}).first->second;
}

Histogram& Registry::histogram(std::string_view name,
                               const HistogramSpec& spec) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(std::string(name), Histogram(spec)).first->second;
}

Histogram& Registry::timer(std::string_view name) {
  const auto it = timers_.find(name);
  if (it != timers_.end()) return it->second;
  // 1us .. ~1e6us (20 doublings) covers a cache hit through a minute-long
  // sweep cell.
  return timers_
      .emplace(std::string(name), Histogram(HistogramSpec::exponential(1, 20)))
      .first->second;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, counter] : other.counters_) {
    this->counter(name).add(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    this->gauge(name).update(gauge.value());
  }
  for (const auto& [name, hist] : other.histograms_) {
    const auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
  for (const auto& [name, hist] : other.timers_) {
    const auto it = timers_.find(name);
    if (it == timers_.end()) {
      timers_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

bool Registry::empty() const {
  return counters_.empty() && gauges_.empty() && histograms_.empty() &&
         timers_.empty();
}

Json Registry::to_json(bool include_timers) const {
  Json j = Json::object();
  Json& counters = (j["counters"] = Json::object());
  for (const auto& [name, counter] : counters_) {
    counters[name] = counter.value();
  }
  Json& gauges = (j["gauges"] = Json::object());
  for (const auto& [name, gauge] : gauges_) gauges[name] = gauge.value();
  Json& histograms = (j["histograms"] = Json::object());
  for (const auto& [name, hist] : histograms_) {
    histograms[name] = hist.to_json();
  }
  if (include_timers) {
    Json& timers = (j["timers"] = Json::object());
    for (const auto& [name, hist] : timers_) timers[name] = hist.to_json();
  }
  return j;
}

void Span::stop() {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  timer_->record(us);
}

}  // namespace rtsmooth::obs
