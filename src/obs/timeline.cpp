#include "obs/timeline.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "obs/json.h"

namespace rtsmooth::obs {

std::string BurnBudget::validate() const {
  if (name.empty()) return "budget name must be non-empty";
  if (bad.empty()) return "budget '" + name + "': bad counter list is empty";
  if (total.empty()) {
    return "budget '" + name + "': total counter list is empty";
  }
  if (!(budget > 0.0) || budget > 1.0) {
    return "budget '" + name + "': budget fraction must be in (0, 1]";
  }
  if (!(threshold > 0.0)) {
    return "budget '" + name + "': threshold must be positive";
  }
  return {};
}

std::string TimelineConfig::validate() const {
  if (slot_steps < 0) return "slot_steps must be >= 0";
  if (!enabled()) return {};  // disabled: nothing else matters
  if (capacity == 0) return "capacity must be >= 1";
  if (short_slots == 0) return "short_slots must be >= 1";
  if (long_slots < short_slots) return "long_slots must be >= short_slots";
  if (capacity < long_slots) {
    return "capacity must be >= long_slots (the long burn window must fit "
           "in the ring)";
  }
  for (const BurnBudget& b : budgets) {
    if (const std::string problem = b.validate(); !problem.empty()) {
      return problem;
    }
  }
  return {};
}

Timeline::Timeline(TimelineConfig config) : config_(std::move(config)) {
  if (const std::string problem = config_.validate(); !problem.empty()) {
    throw std::invalid_argument("TimelineConfig: " + problem);
  }
  burn_.reserve(config_.budgets.size());
  for (const BurnBudget& b : config_.budgets) {
    burn_.push_back(BurnStatus{.budget = &b});
  }
}

void Timeline::evict_oldest() {
  // The oldest slot's deltas fold into each metric's base, preserving
  // base + sum(deltas) == total while the ring stays at capacity.
  slot_end_steps_.erase(slot_end_steps_.begin());
  for (auto& [name, s] : counters_) {
    s.base += s.deltas.front();
    s.deltas.erase(s.deltas.begin());
  }
  for (auto& [name, s] : gauges_) {
    s.values.erase(s.values.begin());
  }
  for (auto& [name, s] : histograms_) {
    const std::vector<std::int64_t>& front = s.bucket_deltas.front();
    for (std::size_t i = 0; i < front.size(); ++i) s.base_counts[i] += front[i];
    s.base_count += s.count_deltas.front();
    s.base_sum += s.sum_deltas.front();
    s.bucket_deltas.erase(s.bucket_deltas.begin());
    s.count_deltas.erase(s.count_deltas.begin());
    s.sum_deltas.erase(s.sum_deltas.begin());
  }
  ++evicted_;
}

const std::vector<BurnStatus>& Timeline::sample(std::int64_t t,
                                                const Registry& registry) {
  // A sample that does not advance past the last slot's end step (the
  // daemon's terminal sample can land on the same step as the last cadence
  // sample) merges into that slot, keeping slot_end_steps strictly rising.
  const bool merge =
      !slot_end_steps_.empty() && t <= slot_end_steps_.back();
  if (!merge) {
    if (slot_end_steps_.size() == config_.capacity) evict_oldest();
    slot_end_steps_.push_back(t);
  }
  // Slots every metric column must already cover before this sample's slot.
  const std::size_t held = slot_end_steps_.size() - 1;

  for (const auto& [name, counter] : registry.counters()) {
    CounterSeries& s = counters_[name];
    if (s.deltas.size() < held) {
      // Metric appeared mid-run: zero-fill the history it missed.
      s.deltas.resize(held, 0);
    }
    const std::int64_t delta = counter.value() - s.prev;
    if (s.deltas.size() == held) {
      s.deltas.push_back(delta);
    } else {
      s.deltas.back() += delta;
    }
    s.prev = counter.value();
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    GaugeSeries& s = gauges_[name];
    if (s.values.size() < held) {
      // A high-watermark gauge that did not exist earlier backfills with
      // its current value — monotone by construction either way.
      s.values.resize(held, gauge.value());
    }
    if (s.values.size() == held) {
      s.values.push_back(gauge.value());
    } else {
      s.values.back() = gauge.value();
    }
  }
  for (const auto& [name, hist] : registry.histograms()) {
    HistogramSeries& s = histograms_[name];
    const std::vector<std::int64_t>& counts = hist.counts();
    if (s.bounds.empty() && !hist.bounds().empty()) s.bounds = hist.bounds();
    if (s.prev_counts.empty()) s.prev_counts.assign(counts.size(), 0);
    if (s.base_counts.empty()) s.base_counts.assign(counts.size(), 0);
    if (s.count_deltas.size() < held) {
      s.bucket_deltas.resize(
          held, std::vector<std::int64_t>(counts.size(), 0));
      s.count_deltas.resize(held, 0);
      s.sum_deltas.resize(held, 0);
    }
    if (s.count_deltas.size() == held) {
      std::vector<std::int64_t> delta(counts.size());
      for (std::size_t i = 0; i < counts.size(); ++i) {
        delta[i] = counts[i] - s.prev_counts[i];
      }
      s.bucket_deltas.push_back(std::move(delta));
      s.count_deltas.push_back(hist.count() - s.prev_count);
      s.sum_deltas.push_back(hist.sum() - s.prev_sum);
    } else {
      std::vector<std::int64_t>& row = s.bucket_deltas.back();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        row[i] += counts[i] - s.prev_counts[i];
      }
      s.count_deltas.back() += hist.count() - s.prev_count;
      s.sum_deltas.back() += hist.sum() - s.prev_sum;
    }
    s.prev_counts = counts;
    s.prev_count = hist.count();
    s.prev_sum = hist.sum();
  }

  recompute_burn();
  return burn_;
}

std::int64_t Timeline::window_sum(const std::vector<std::string>& names,
                                  std::size_t window) const {
  std::int64_t sum = 0;
  for (const std::string& name : names) {
    const auto it = counters_.find(name);
    if (it == counters_.end()) continue;  // absent counters contribute 0
    const std::vector<std::int64_t>& deltas = it->second.deltas;
    const std::size_t n = std::min(window, deltas.size());
    for (std::size_t i = deltas.size() - n; i < deltas.size(); ++i) {
      sum += deltas[i];
    }
  }
  return sum;
}

void Timeline::recompute_burn() {
  for (BurnStatus& status : burn_) {
    const BurnBudget& b = *status.budget;
    const auto burn_over = [&](std::size_t window) {
      const std::int64_t total = window_sum(b.total, window);
      if (total <= 0) return 0.0;
      const std::int64_t bad = window_sum(b.bad, window);
      const double fraction =
          static_cast<double>(bad) / static_cast<double>(total);
      return fraction / b.budget;
    };
    status.short_burn = burn_over(config_.short_slots);
    status.long_burn = burn_over(config_.long_slots);
    status.firing = status.short_burn >= b.threshold &&
                    status.long_burn >= b.threshold;
    if (status.firing) ++status.alerts;
  }
}

namespace {

/// Opens an object member: a comma unless the member is the object's
/// first, then the quoted name and a colon.
void key(std::string& out, std::string_view name) {
  if (out.back() != '{') out += ',';
  Json::append_string(out, name);
  out += ':';
}

void append_ints(std::string& out, const std::vector<std::int64_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    Json::append_int(out, values[i]);
  }
  out += ']';
}

void append_strings(std::string& out, const std::vector<std::string>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    Json::append_string(out, values[i]);
  }
  out += ']';
}

/// One delta-encoded column: {"base":…,"deltas":[…],"total":…}.
void append_column(std::string& out, std::int64_t base,
                   const std::vector<std::int64_t>& deltas,
                   std::int64_t total) {
  out += '{';
  key(out, "base");
  Json::append_int(out, base);
  key(out, "deltas");
  append_ints(out, deltas);
  key(out, "total");
  Json::append_int(out, total);
  out += '}';
}

}  // namespace

std::string Timeline::dump() const {
  std::string out = "{";
  key(out, "schema");
  Json::append_string(out, "rtsmooth-series-v1");
  key(out, "slot_steps");
  Json::append_int(out, config_.slot_steps);
  key(out, "capacity");
  Json::append_int(out, static_cast<std::int64_t>(config_.capacity));
  key(out, "slots");
  Json::append_int(out, static_cast<std::int64_t>(slot_end_steps_.size()));
  key(out, "evicted");
  Json::append_int(out, evicted_);
  key(out, "slot_end_steps");
  append_ints(out, slot_end_steps_);

  key(out, "counters");
  out += '{';
  for (const auto& [name, s] : counters_) {
    key(out, name);
    // base + sum(deltas) == total, by construction.
    append_column(out, s.base, s.deltas, s.prev);
  }
  out += '}';

  key(out, "gauges");
  out += '{';
  for (const auto& [name, s] : gauges_) {
    key(out, name);
    append_ints(out, s.values);
  }
  out += '}';

  key(out, "histograms");
  out += '{';
  for (const auto& [name, s] : histograms_) {
    key(out, name);
    out += '{';
    key(out, "bounds");
    append_ints(out, s.bounds);
    key(out, "count");
    append_column(out, s.base_count, s.count_deltas, s.prev_count);
    key(out, "sum");
    append_column(out, s.base_sum, s.sum_deltas, s.prev_sum);
    key(out, "bucket_base");
    append_ints(out, s.base_counts);
    key(out, "buckets");
    out += '[';
    for (std::size_t i = 0; i < s.bucket_deltas.size(); ++i) {
      if (i > 0) out += ',';
      append_ints(out, s.bucket_deltas[i]);
    }
    out += "]}";
  }
  out += '}';

  key(out, "burn");
  out += '{';
  key(out, "short_slots");
  Json::append_int(out, static_cast<std::int64_t>(config_.short_slots));
  key(out, "long_slots");
  Json::append_int(out, static_cast<std::int64_t>(config_.long_slots));
  key(out, "budgets");
  out += '[';
  for (std::size_t i = 0; i < burn_.size(); ++i) {
    const BurnStatus& status = burn_[i];
    const BurnBudget& b = *status.budget;
    if (i > 0) out += ',';
    out += '{';
    key(out, "name");
    Json::append_string(out, b.name);
    key(out, "budget");
    Json::append_double(out, b.budget);
    key(out, "threshold");
    Json::append_double(out, b.threshold);
    key(out, "bad");
    append_strings(out, b.bad);
    key(out, "total");
    append_strings(out, b.total);
    key(out, "short_burn");
    Json::append_double(out, status.short_burn);
    key(out, "long_burn");
    Json::append_double(out, status.long_burn);
    key(out, "firing");
    Json::append_bool(out, status.firing);
    key(out, "alerts");
    Json::append_int(out, status.alerts);
    out += '}';
  }
  out += "]}}";
  return out;
}

}  // namespace rtsmooth::obs
