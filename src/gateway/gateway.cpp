#include "gateway/gateway.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "util/assert.h"

namespace rtsmooth::gateway {
namespace {

/// floor(budget * part / total); all non-negative int64, product in 128 bits.
Bytes weighted_floor(Bytes budget, Bytes part, Bytes total) {
  return static_cast<Bytes>(static_cast<__uint128_t>(budget) *
                            static_cast<__uint128_t>(part) /
                            static_cast<__uint128_t>(total));
}

}  // namespace

std::string GatewayConfig::validate() const {
  if (rate < 1) return "gateway rate must be >= 1 byte/step";
  if (class_weights.empty()) return "gateway needs at least one weight class";
  for (const double w : class_weights) {
    if (!(w > 0.0) || !std::isfinite(w)) {
      return "class weights must be finite and > 0";
    }
  }
  if (!(overbook > 0.0) || !std::isfinite(overbook)) {
    return "overbook factor must be finite and > 0";
  }
  if (shards < 1) return "gateway needs at least one shard";
  return "";
}

bool GatewayReport::conserves() const {
  if (admitted != served + dropped + unserved + backlog) return false;
  if (served != served_on_time + served_late) return false;
  ClassTotals sum;
  for (const ClassTotals& c : by_class) {
    if (c.served != c.on_time + c.late) return false;
    sum += c;
  }
  return sum.admitted == admitted && sum.served == served &&
         sum.dropped == dropped && sum.unserved == unserved &&
         sum.on_time == served_on_time && sum.late == served_late;
}

double GatewayReport::weighted_loss(
    const std::vector<double>& class_weights) const {
  double lost = 0.0;
  double offered = 0.0;
  for (std::size_t k = 0; k < by_class.size(); ++k) {
    const double w =
        k < class_weights.size() ? class_weights[k] : 1.0;
    lost += w * static_cast<double>(by_class[k].dropped +
                                    by_class[k].unserved);
    offered += w * static_cast<double>(by_class[k].admitted);
  }
  return offered > 0.0 ? lost / offered : 0.0;
}

double GatewayReport::byte_loss() const {
  return admitted > 0
             ? static_cast<double>(dropped + unserved) /
                   static_cast<double>(admitted)
             : 0.0;
}

Gateway::Gateway(GatewayConfig config)
    : config_(std::move(config)),
      pool_(config_.shards),
      runner_(config_.threads) {
  if (const std::string problem = config_.validate(); !problem.empty()) {
    throw std::invalid_argument("GatewayConfig: " + problem);
  }
  const std::size_t classes = config_.class_weights.size();
  scratch_.resize(config_.shards);
  for (ShardScratch& sc : scratch_) {
    sc.class_demand.assign(classes, 0);
    sc.class_budget.assign(classes, 0);
    sc.class_used.assign(classes, 0);
    sc.class_dropped.assign(classes, 0);
  }
  class_demand_.assign(classes, 0);
  class_budget_.assign(classes, 0);
  shard_demand_.assign(config_.shards, 0);
  shard_budget_.assign(config_.shards, 0);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    arrive_tasks_.push_back([this, s] { arrive_and_demand(s); });
    serve_tasks_.push_back([this, s] { serve_and_drop(s); });
    uncontended_tasks_.push_back([this, s] { serve_uncontended(s); });
  }
  class_order_.resize(classes);
  std::iota(class_order_.begin(), class_order_.end(), std::size_t{0});
  std::stable_sort(class_order_.begin(), class_order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return config_.class_weights[a] > config_.class_weights[b];
                   });
  totals_.by_class.assign(classes, ClassTotals{});

  if (obs::Registry* reg = config_.telemetry.registry) {
    ctr_admitted_ = &reg->counter("gateway.admitted_bytes");
    ctr_served_ = &reg->counter("gateway.served_bytes");
    ctr_dropped_ = &reg->counter("gateway.dropped_bytes");
    ctr_unserved_ = &reg->counter("gateway.unserved_bytes");
    ctr_joins_ = &reg->counter("gateway.joins");
    ctr_leaves_ = &reg->counter("gateway.leaves");
    ctr_rejected_ = &reg->counter("gateway.rejected_joins");
    ctr_violations_ = &reg->counter("gateway.violations");
    ctr_on_time_ = &reg->counter("gateway.on_time_bytes");
    ctr_late_ = &reg->counter("gateway.late_bytes");
    gauge_backlog_ = &reg->gauge("gateway.max_backlog_bytes");
    gauge_max_lateness_ = &reg->gauge("gateway.max_lateness_steps");
    hist_step_served_ = &reg->histogram("gateway.step_served_bytes",
                                        obs::HistogramSpec::exponential(64, 16));
    const obs::HistogramSpec steps_spec = obs::HistogramSpec::exponential(1, 16);
    hist_slack_ = &reg->histogram("gateway.slack_steps", steps_spec);
    hist_lateness_ = &reg->histogram("gateway.lateness_steps", steps_spec);
    hist_class_lateness_.reserve(classes);
    ctr_class_on_time_.reserve(classes);
    ctr_class_late_.reserve(classes);
    ctr_class_shed_.reserve(classes);
    for (std::size_t k = 0; k < classes; ++k) {
      const std::string prefix = "gateway.c" + std::to_string(k);
      hist_class_lateness_.push_back(
          &reg->histogram(prefix + ".lateness_steps", steps_spec));
      ctr_class_on_time_.push_back(&reg->counter(prefix + ".on_time_bytes"));
      ctr_class_late_.push_back(&reg->counter(prefix + ".late_bytes"));
      ctr_class_shed_.push_back(&reg->counter(prefix + ".shed_bytes"));
    }
  }
  if (obs::FlightRecorder* rec = config_.telemetry.recorder) {
    obs::Json context = obs::Json::object();
    context["component"] = "gateway";
    context["rate"] = config_.rate;
    context["shards"] = static_cast<std::int64_t>(config_.shards);
    context["sharing"] = std::string(to_string(config_.sharing));
    context["classes"] = static_cast<std::int64_t>(
        config_.class_weights.size());
    rec->set_context(std::move(context));
  }
}

std::optional<StreamId> Gateway::add_stream(const StreamSpec& spec) {
  if (const std::string problem =
          spec.validate(config_.class_weights.size());
      !problem.empty()) {
    throw std::invalid_argument("StreamSpec: " + problem);
  }
  if (config_.admission == AdmissionPolicy::CapacityCheck) {
    const double subscribed =
        static_cast<double>(pool_.subscribed_rate() + spec.rate);
    if (subscribed > config_.overbook * static_cast<double>(config_.rate)) {
      ++totals_.rejected_joins;
      if (ctr_rejected_ != nullptr) ctr_rejected_->add();
      return std::nullopt;
    }
  }
  const StreamId id = pool_.add(spec, now_);
  ++totals_.joins;
  if (ctr_joins_ != nullptr) ctr_joins_->add();
  return id;
}

std::optional<StreamStats> Gateway::remove_stream(StreamId id) {
  std::optional<StreamStats> stats = pool_.remove(id, now_);
  if (!stats) return std::nullopt;
  ++totals_.leaves;
  totals_.backlog -= stats->unserved;  // live backlog shrank by the write-off
  totals_.unserved += stats->unserved;
  ClassTotals& cls = totals_.by_class[stats->weight_class];
  cls.admitted += stats->admitted;
  cls.served += stats->served;
  cls.dropped += stats->dropped;
  cls.unserved += stats->unserved;
  cls.on_time += stats->served_on_time;
  cls.late += stats->served_late;
  cls.max_lateness = std::max(cls.max_lateness, stats->max_lateness);
  if (ctr_leaves_ != nullptr) ctr_leaves_->add();
  if (ctr_unserved_ != nullptr) ctr_unserved_->add(stats->unserved);
  return stats;
}

void Gateway::for_each_shard(const ShardTasks& tasks) {
  if (runner_.threads() <= 1 || tasks.size() <= 1) {
    // In-place serial path: no pool — and, per the determinism contract,
    // the reference the parallel path must match.
    for (const std::function<void()>& task : tasks) task();
    run_stats_.tasks += tasks.size();
    run_stats_.threads = std::max(run_stats_.threads, 1U);
    return;
  }
  run_stats_ += runner_.run(tasks);
}

void Gateway::arrive_and_demand(std::size_t s) {
  Shard& sh = pool_.shard(s);
  ShardScratch& sc = scratch_[s];
  std::fill(sc.class_demand.begin(), sc.class_demand.end(), Bytes{0});
  sc.step_admitted = 0;
  const std::vector<Bytes>* scripts = pool_.scripts().data();
  const std::size_t n = sh.size();
  const bool cap_at_nominal = config_.sharing == SharePolicy::Static;
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes a = arrival_bytes(sh, scripts, i, now_ - sh.joined[i]);
    sh.backlog[i] += a;
    sh.admitted[i] += a;
    sc.step_admitted += a;
    if (a > 0) sh.cohorts[i].push_back(now_, a);
    // Static streams never ask for more than their nominal rate; the other
    // policies bid their whole backlog and let the budget split decide.
    sh.demand[i] = cap_at_nominal ? std::min(sh.backlog[i], sh.rate[i])
                                  : sh.backlog[i];
    sc.class_demand[sh.klass[i]] += sh.demand[i];
  }
}

void Gateway::settle_cohorts(Shard& sh, ShardScratch& sc, std::size_t i,
                             Bytes send, Bytes drop) {
  CohortRing& ring = sh.cohorts[i];
  const Time deadline = sh.deadline[i];
  const bool sampling = ctr_on_time_ != nullptr;
  // Serve from the head: oldest bytes leave first, so each consumed span
  // has an exact wait = now - arrival. On time iff wait <= D_i.
  Bytes remaining = send;
  while (remaining > 0) {
    CohortRing::Cohort& c = ring.front();
    const Bytes take = std::min(c.bytes, remaining);
    const Time wait = now_ - c.arrival;
    if (wait <= deadline) {
      sh.on_time[i] += take;
      sc.step_on_time += take;
      if (sampling) {
        sc.samples.push_back(
            LatenessSample{sh.klass[i], deadline - wait, take, false});
      }
    } else {
      const Time lateness = wait - deadline;
      sh.late[i] += take;
      sc.step_late += take;
      sh.max_late[i] = std::max(sh.max_late[i], lateness);
      sc.step_max_late = std::max(sc.step_max_late, lateness);
      if (sampling) {
        sc.samples.push_back(
            LatenessSample{sh.klass[i], lateness, take, true});
      }
    }
    c.bytes -= take;
    remaining -= take;
    if (c.bytes == 0) ring.pop_front();
  }
  // Shed from the tail: Eq. (3) drops the newest bytes (the ones that
  // overflowed B_i); dropped bytes are in the drop ledger, not lateness.
  Bytes shed = drop;
  while (shed > 0) {
    CohortRing::Cohort& c = ring.back();
    const Bytes take = std::min(c.bytes, shed);
    c.bytes -= take;
    shed -= take;
    if (c.bytes == 0) ring.pop_back();
  }
}

void Gateway::allocate_budgets() {
  const std::size_t classes = config_.class_weights.size();
  const std::size_t shards = pool_.shard_count();

  // Total demand per class across shards.
  for (std::size_t k = 0; k < classes; ++k) {
    Bytes total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      total += scratch_[s].class_demand[k];
    }
    class_demand_[k] = total;
  }

  // Divide R across classes.
  if (config_.sharing == SharePolicy::Static) {
    // Class-blind: demands are already capped at the nominal rates, so this
    // only scales proportionally when the sum of nominal demands exceeds R.
    apportion(config_.rate, class_demand_, class_budget_);
  } else if (config_.sharing == SharePolicy::Priority) {
    Bytes remaining = config_.rate;
    std::fill(class_budget_.begin(), class_budget_.end(), Bytes{0});
    for (const std::size_t k : class_order_) {
      const Bytes grant = std::min(class_demand_[k], remaining);
      class_budget_[k] = grant;
      remaining -= grant;
    }
  } else {
    water_fill(config_.rate, config_.class_weights, class_demand_,
               class_budget_);
  }

  // Split each class budget across shards in proportion to shard demand.
  for (std::size_t k = 0; k < classes; ++k) {
    for (std::size_t s = 0; s < shards; ++s) {
      shard_demand_[s] = scratch_[s].class_demand[k];
    }
    apportion(class_budget_[k], shard_demand_, shard_budget_);
    for (std::size_t s = 0; s < shards; ++s) {
      scratch_[s].class_budget[k] = shard_budget_[s];
    }
  }
}

void Gateway::serve_and_drop(std::size_t s) {
  Shard& sh = pool_.shard(s);
  ShardScratch& sc = scratch_[s];
  sc.step_served = 0;
  sc.step_dropped = 0;
  sc.step_on_time = 0;
  sc.step_late = 0;
  sc.step_max_late = 0;
  sc.samples.clear();
  sc.backlog_total = 0;
  std::fill(sc.class_dropped.begin(), sc.class_dropped.end(), Bytes{0});
  const std::size_t n = sh.size();

  // Largest-remainder apportionment of each class's shard budget across the
  // shard's streams, fused over the mixed-class columns: floors first, then
  // the remainder bytes in ascending slot order (sharing.h apportion(),
  // inlined here so one pass covers every class).
  std::fill(sc.class_used.begin(), sc.class_used.end(), Bytes{0});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = sh.klass[i];
    const Bytes total = sc.class_demand[k];
    sh.alloc[i] = total > 0
                      ? weighted_floor(sc.class_budget[k], sh.demand[i], total)
                      : 0;
    sc.class_used[k] += sh.alloc[i];
  }
  for (std::size_t k = 0; k < sc.class_used.size(); ++k) {
    sc.class_used[k] = sc.class_budget[k] - sc.class_used[k];  // leftover now
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t k = sh.klass[i];
    Bytes& leftover = sc.class_used[k];
    if (leftover > 0) {
      const Bytes extra = std::min(leftover, sh.demand[i] - sh.alloc[i]);
      sh.alloc[i] += extra;
      leftover -= extra;
    }
    // Serve (Eq. (2) per stream), then shed down to B_i (Eq. (3)).
    const Bytes send = sh.alloc[i];
    sh.backlog[i] -= send;
    sh.served[i] += send;
    sc.step_served += send;
    const Bytes drop = std::max<Bytes>(0, sh.backlog[i] - sh.buffer[i]);
    sh.backlog[i] -= drop;
    sh.dropped[i] += drop;
    sc.step_dropped += drop;
    sc.class_dropped[k] += drop;
    sc.backlog_total += sh.backlog[i];
    settle_cohorts(sh, sc, i, send, drop);
  }
}

// Uncontended static sharing: sum(min(backlog_i, r_i)) <= sum(r_i) <= R, so
// no cross-stream coupling exists and arrivals, service at min(backlog, r_i)
// and the Eq. (3) shed fuse into one shard-parallel pass. (The budgeted path
// computes the identical allocation — apportion() grants every demand when
// they fit — this is purely the fast path.)
void Gateway::serve_uncontended(std::size_t s) {
  Shard& sh = pool_.shard(s);
  ShardScratch& sc = scratch_[s];
  sc.step_admitted = 0;
  sc.step_served = 0;
  sc.step_dropped = 0;
  sc.step_on_time = 0;
  sc.step_late = 0;
  sc.step_max_late = 0;
  sc.samples.clear();
  sc.backlog_total = 0;
  std::fill(sc.class_dropped.begin(), sc.class_dropped.end(), Bytes{0});
  const std::vector<Bytes>* scripts = pool_.scripts().data();
  const std::size_t n = sh.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Bytes a = arrival_bytes(sh, scripts, i, now_ - sh.joined[i]);
    sh.backlog[i] += a;
    sh.admitted[i] += a;
    sc.step_admitted += a;
    if (a > 0) sh.cohorts[i].push_back(now_, a);
    const Bytes send = std::min(sh.backlog[i], sh.rate[i]);
    sh.backlog[i] -= send;
    sh.served[i] += send;
    sc.step_served += send;
    const Bytes drop = std::max<Bytes>(0, sh.backlog[i] - sh.buffer[i]);
    sh.backlog[i] -= drop;
    sh.dropped[i] += drop;
    sc.step_dropped += drop;
    sc.class_dropped[sh.klass[i]] += drop;
    sc.backlog_total += sh.backlog[i];
    settle_cohorts(sh, sc, i, send, drop);
  }
}

void Gateway::step() {
  if (config_.sharing == SharePolicy::Static &&
      pool_.subscribed_rate() <= config_.rate) {
    for_each_shard(uncontended_tasks_);
  } else {
    for_each_shard(arrive_tasks_);
    allocate_budgets();
    for_each_shard(serve_tasks_);
  }
  fold_step();
}

void Gateway::fold_step() {
  Bytes admitted = 0;
  Bytes served = 0;
  Bytes dropped = 0;
  Bytes backlog = 0;
  Bytes on_time = 0;
  Bytes late = 0;
  Time step_max_late = 0;
  for (const ShardScratch& sc : scratch_) {  // fixed shard order
    admitted += sc.step_admitted;
    served += sc.step_served;
    dropped += sc.step_dropped;
    backlog += sc.backlog_total;
    on_time += sc.step_on_time;
    late += sc.step_late;
    step_max_late = std::max(step_max_late, sc.step_max_late);
  }

  totals_.admitted += admitted;
  totals_.served += served;
  totals_.dropped += dropped;
  totals_.served_on_time += on_time;
  totals_.served_late += late;
  const Time prev_max_lateness = totals_.max_lateness;
  totals_.max_lateness = std::max(totals_.max_lateness, step_max_late);
  const Bytes prev_backlog = totals_.backlog;
  totals_.backlog = backlog;
  totals_.max_backlog = std::max(totals_.max_backlog, backlog);
  totals_.max_step_served = std::max(totals_.max_step_served, served);
  ++totals_.steps;

  // Step invariants: the link never carries more than R, and the step's
  // byte flows balance. Violations are recorded, not fatal — the flight
  // recorder freezes the window for forensics, like the simulator's
  // InvariantMonitor.
  obs::FlightRecorder* rec = config_.telemetry.recorder;
  if (served > config_.rate) {
    ++totals_.violations;
    if (ctr_violations_ != nullptr) ctr_violations_->add();
    if (rec != nullptr) {
      rec->on_violation(now_, "gateway.oversend", served - config_.rate);
    }
  }
  const Bytes imbalance = admitted - served - dropped -
                          (backlog - prev_backlog);
  if (imbalance != 0) {
    ++totals_.violations;
    if (ctr_violations_ != nullptr) ctr_violations_->add();
    if (rec != nullptr) {
      rec->on_violation(now_, "gateway.conservation", imbalance);
    }
  }

  if (ctr_admitted_ != nullptr) {
    ctr_admitted_->add(admitted);
    ctr_served_->add(served);
    ctr_dropped_->add(dropped);
    ctr_on_time_->add(on_time);
    ctr_late_->add(late);
    gauge_backlog_->update(backlog);
    gauge_max_lateness_->update(totals_.max_lateness);
    hist_step_served_->record(served);
    // Drain the shard-local lateness observations serially, in fixed
    // shard order — same determinism discipline as the tallies above.
    for (ShardScratch& sc : scratch_) {
      for (const LatenessSample& sample : sc.samples) {
        if (sample.late) {
          hist_lateness_->record(sample.steps, sample.bytes);
          hist_class_lateness_[sample.klass]->record(sample.steps,
                                                     sample.bytes);
          ctr_class_late_[sample.klass]->add(sample.bytes);
        } else {
          hist_slack_->record(sample.steps, sample.bytes);
          ctr_class_on_time_[sample.klass]->add(sample.bytes);
        }
      }
      sc.samples.clear();
      for (std::size_t k = 0; k < sc.class_dropped.size(); ++k) {
        if (sc.class_dropped[k] != 0) {
          ctr_class_shed_[k]->add(sc.class_dropped[k]);
        }
      }
    }
  }
  if (rec != nullptr && totals_.max_lateness > prev_max_lateness) {
    // A fresh lateness high-water mark lands in the incident context, so a
    // frozen window names how far past its deadline the worst byte was.
    rec->annotate("max_lateness_steps", obs::Json(totals_.max_lateness));
  }
  if (rec != nullptr) {
    rec->record(obs::StepRecord{.t = now_,
                                .arrived = admitted,
                                .sent = served,
                                .delivered = served,
                                .played = served,
                                .dropped_server = dropped,
                                .dropped_client = 0,
                                .retransmitted = 0,
                                .server_occupancy = backlog,
                                .client_occupancy = 0,
                                .link_idle = served == 0,
                                .stalled = false});
  }
  ++now_;
}

void Gateway::run(Time n) {
  for (Time i = 0; i < n; ++i) step();
}

GatewayReport Gateway::report() const {
  GatewayReport r = totals_;  // departed totals + counters + step tallies
  for (std::size_t s = 0; s < pool_.shard_count(); ++s) {
    const Shard& sh = pool_.shard(s);
    for (std::size_t i = 0; i < sh.size(); ++i) {
      ClassTotals& cls = r.by_class[sh.klass[i]];
      cls.admitted += sh.admitted[i];
      cls.served += sh.served[i];
      cls.dropped += sh.dropped[i];
      cls.on_time += sh.on_time[i];
      cls.late += sh.late[i];
      cls.max_lateness = std::max(cls.max_lateness, sh.max_late[i]);
    }
  }
  return r;
}

}  // namespace rtsmooth::gateway
