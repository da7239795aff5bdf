#include "gateway/stream_pool.h"

#include <algorithm>
#include <utility>

#include "util/assert.h"

namespace rtsmooth::gateway {

ArrivalModel ArrivalModel::constant(Bytes per_step) {
  return ArrivalModel{.kind = Kind::Constant, .bytes = per_step};
}

ArrivalModel ArrivalModel::on_off(Bytes burst, Time on, Time off,
                                  std::uint64_t seed) {
  return ArrivalModel{
      .kind = Kind::OnOff, .bytes = burst, .on = on, .off = off, .seed = seed};
}

ArrivalModel ArrivalModel::vbr(Bytes mean, std::uint64_t seed) {
  return ArrivalModel{.kind = Kind::Vbr, .bytes = mean, .seed = seed};
}

ArrivalModel ArrivalModel::from_script(std::vector<Bytes> bytes_per_step) {
  ArrivalModel model;
  model.kind = Kind::Script;
  model.script = std::move(bytes_per_step);
  return model;
}

std::string StreamSpec::validate(std::size_t class_count) const {
  if (rate < 1) return "stream rate must be >= 1 byte/step";
  if (deadline < 1) return "stream deadline must be >= 1 step";
  if (weight_class >= class_count) {
    return "weight_class " + std::to_string(weight_class) +
           " out of range (gateway has " + std::to_string(class_count) +
           " classes)";
  }
  if (arrivals.bytes < 0) return "arrival bytes must be >= 0";
  if (arrivals.kind == ArrivalModel::Kind::OnOff) {
    if (arrivals.on < 1) return "on-off arrival model needs on >= 1";
    if (arrivals.off < 0) return "on-off arrival model needs off >= 0";
  }
  if (arrivals.kind == ArrivalModel::Kind::Script) {
    for (const Bytes b : arrivals.script) {
      if (b < 0) return "scripted arrivals must be >= 0";
    }
  }
  return "";
}

Bytes arrival_bytes(const Shard& shard, const std::vector<Bytes>* scripts,
                    std::size_t i, Time local_t) {
  switch (static_cast<ArrivalModel::Kind>(shard.arr_kind[i])) {
    case ArrivalModel::Kind::Constant:
      return shard.arr_bytes[i];
    case ArrivalModel::Kind::OnOff: {
      const Time period = shard.arr_period[i];
      const Time phase =
          (local_t + static_cast<Time>(shard.arr_seed[i] %
                                       static_cast<std::uint64_t>(period))) %
          period;
      return phase < shard.arr_on[i] ? shard.arr_bytes[i] : 0;
    }
    case ArrivalModel::Kind::Vbr: {
      // Stateless draw: uniform-ish in [0, 2*mean] with an I-frame-like
      // burst of 6*mean roughly every 32 steps. Integer only, so the trace
      // is bit-identical on every platform.
      const Bytes mean = shard.arr_bytes[i];
      if (mean == 0) return 0;
      const std::uint64_t h =
          mix64(shard.arr_seed[i] ^
                (static_cast<std::uint64_t>(local_t) * 0x8CB92BA72F3D8DD7ULL));
      Bytes a = static_cast<Bytes>(
          h % static_cast<std::uint64_t>(2 * mean + 1));
      if (((h >> 57) & 31U) == 0) a += 6 * mean;
      return a;
    }
    case ArrivalModel::Kind::Script: {
      const std::int32_t s = shard.arr_script[i];
      if (s < 0) return 0;
      const std::vector<Bytes>& script = scripts[s];
      return local_t < static_cast<Time>(script.size())
                 ? script[static_cast<std::size_t>(local_t)]
                 : 0;
    }
  }
  return 0;
}

void CohortRing::grow() {
  // Capacities stay at most 2^31, so head + size never wraps 32 bits.
  const std::uint32_t capacity = mask_ + 1;
  RTS_ASSERT(capacity <= (std::uint32_t{1} << 30));
  auto* bigger = new Cohort[2 * static_cast<std::size_t>(capacity)];
  const Cohort* old = data();
  for (std::uint32_t i = 0; i < size_; ++i) {
    bigger[i] = old[(head_ + i) & mask_];
  }
  release();
  heap_ = bigger;
  head_ = 0;
  mask_ = 2 * capacity - 1;
}

StreamPool::StreamPool(std::size_t shards) : shards_(std::max<std::size_t>(shards, 1)) {}

StreamId StreamPool::add(const StreamSpec& spec, Time now) {
  const StreamId id = next_id_++;
  const auto s = static_cast<std::uint32_t>(id % shards_.size());
  Shard& shard = shards_[s];
  const auto slot = static_cast<std::uint32_t>(shard.size());

  shard.id.push_back(id);
  shard.klass.push_back(static_cast<std::uint32_t>(spec.weight_class));
  shard.rate.push_back(spec.rate);
  shard.buffer.push_back(spec.buffer());
  shard.deadline.push_back(spec.deadline);
  shard.backlog.push_back(0);
  shard.demand.push_back(0);
  shard.alloc.push_back(0);
  shard.admitted.push_back(0);
  shard.served.push_back(0);
  shard.dropped.push_back(0);
  shard.on_time.push_back(0);
  shard.late.push_back(0);
  shard.max_late.push_back(0);
  shard.cohorts.emplace_back();
  shard.joined.push_back(now);
  shard.arr_kind.push_back(static_cast<std::uint8_t>(spec.arrivals.kind));
  shard.arr_bytes.push_back(spec.arrivals.bytes);
  shard.arr_on.push_back(spec.arrivals.on);
  shard.arr_period.push_back(spec.arrivals.on + spec.arrivals.off);
  shard.arr_seed.push_back(spec.arrivals.seed);
  if (spec.arrivals.kind == ArrivalModel::Kind::Script) {
    std::int32_t script = 0;
    if (free_scripts_.empty()) {
      script = static_cast<std::int32_t>(scripts_.size());
      scripts_.push_back(spec.arrivals.script);
    } else {
      script = free_scripts_.back();
      free_scripts_.pop_back();
      scripts_[static_cast<std::size_t>(script)] = spec.arrivals.script;
    }
    shard.arr_script.push_back(script);
  } else {
    shard.arr_script.push_back(-1);
  }

  where_.emplace(id, std::make_pair(s, slot));
  subscribed_ += spec.rate;
  ++live_;
  return id;
}

std::optional<StreamStats> StreamPool::remove(StreamId id, Time now) {
  const auto it = where_.find(id);
  if (it == where_.end()) return std::nullopt;
  const auto [s, slot] = it->second;
  Shard& shard = shards_[s];

  StreamStats stats = row(shard, slot);
  stats.unserved += stats.backlog;  // write the residue off into the ledger
  stats.backlog = 0;
  stats.left = now;

  subscribed_ -= shard.rate[slot];
  --live_;
  where_.erase(it);
  if (const std::int32_t script = shard.arr_script[slot]; script >= 0) {
    // Nothing reaches the departed stream's script after the swap below:
    // free its bytes and recycle the entry.
    std::vector<Bytes>().swap(scripts_[static_cast<std::size_t>(script)]);
    free_scripts_.push_back(script);
  }

  const std::size_t last = shard.size() - 1;
  if (slot != last) {
    shard.id[slot] = shard.id[last];
    shard.klass[slot] = shard.klass[last];
    shard.rate[slot] = shard.rate[last];
    shard.buffer[slot] = shard.buffer[last];
    shard.deadline[slot] = shard.deadline[last];
    shard.backlog[slot] = shard.backlog[last];
    shard.demand[slot] = shard.demand[last];
    shard.alloc[slot] = shard.alloc[last];
    shard.admitted[slot] = shard.admitted[last];
    shard.served[slot] = shard.served[last];
    shard.dropped[slot] = shard.dropped[last];
    shard.on_time[slot] = shard.on_time[last];
    shard.late[slot] = shard.late[last];
    shard.max_late[slot] = shard.max_late[last];
    shard.cohorts[slot] = std::move(shard.cohorts[last]);
    shard.joined[slot] = shard.joined[last];
    shard.arr_kind[slot] = shard.arr_kind[last];
    shard.arr_bytes[slot] = shard.arr_bytes[last];
    shard.arr_on[slot] = shard.arr_on[last];
    shard.arr_period[slot] = shard.arr_period[last];
    shard.arr_seed[slot] = shard.arr_seed[last];
    shard.arr_script[slot] = shard.arr_script[last];
    where_[shard.id[slot]] = std::make_pair(s, slot);
  }
  shard.id.pop_back();
  shard.klass.pop_back();
  shard.rate.pop_back();
  shard.buffer.pop_back();
  shard.deadline.pop_back();
  shard.backlog.pop_back();
  shard.demand.pop_back();
  shard.alloc.pop_back();
  shard.admitted.pop_back();
  shard.served.pop_back();
  shard.dropped.pop_back();
  shard.on_time.pop_back();
  shard.late.pop_back();
  shard.max_late.pop_back();
  shard.cohorts.pop_back();
  shard.joined.pop_back();
  shard.arr_kind.pop_back();
  shard.arr_bytes.pop_back();
  shard.arr_on.pop_back();
  shard.arr_period.pop_back();
  shard.arr_seed.pop_back();
  shard.arr_script.pop_back();
  return stats;
}

StreamStats StreamPool::row(const Shard& shard, std::size_t i) const {
  return StreamStats{.id = shard.id[i],
                     .weight_class = shard.klass[i],
                     .admitted = shard.admitted[i],
                     .served = shard.served[i],
                     .dropped = shard.dropped[i],
                     .unserved = 0,
                     .backlog = shard.backlog[i],
                     .served_on_time = shard.on_time[i],
                     .served_late = shard.late[i],
                     .max_lateness = shard.max_late[i],
                     .joined = shard.joined[i],
                     .left = kNever};
}

std::optional<StreamStats> StreamPool::stats(StreamId id) const {
  const auto it = where_.find(id);
  if (it == where_.end()) return std::nullopt;
  return row(shards_[it->second.first], it->second.second);
}

std::vector<StreamStats> StreamPool::all_stats() const {
  std::vector<StreamStats> out;
  out.reserve(live_);
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < shard.size(); ++i) {
      out.push_back(row(shard, i));
    }
  }
  return out;
}

}  // namespace rtsmooth::gateway
