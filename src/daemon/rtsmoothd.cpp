#include "daemon/rtsmoothd.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/prometheus.h"
#include "util/assert.h"

namespace rtsmooth::daemon {
namespace {

/// A counter the daemon creates only when its first event happens, so it
/// stays out of the registry section until then: its value, or 0 before.
std::int64_t lazy_counter(const obs::Registry& registry,
                          std::string_view name) {
  const auto it = registry.counters().find(name);
  return it != registry.counters().end() ? it->second.value() : 0;
}

}  // namespace

const char* to_string(PlanCase c) {
  switch (c) {
    case PlanCase::Balanced: return "balanced";
    case PlanCase::ServerBufferDeficit: return "server_buffer_deficit";
    case PlanCase::ServerBufferExcess: return "server_buffer_excess";
    case PlanCase::ClientBufferDeficit: return "client_buffer_deficit";
    case PlanCase::ClientBufferExcess: return "client_buffer_excess";
    case PlanCase::BufferMismatch: return "buffer_mismatch";
  }
  return "unknown";
}

void classify_plan(const EngineConfig& config, std::vector<PlanCase>& out) {
  const Bytes balanced = config.rate * config.smoothing_delay;
  const std::size_t before = out.size();
  if (config.server_buffer < balanced) {
    out.push_back(PlanCase::ServerBufferDeficit);
  }
  if (config.server_buffer > balanced) {
    out.push_back(PlanCase::ServerBufferExcess);
  }
  if (config.client_buffer < balanced) {
    out.push_back(PlanCase::ClientBufferDeficit);
  }
  if (config.client_buffer > balanced) {
    out.push_back(PlanCase::ClientBufferExcess);
  }
  if (config.server_buffer != config.client_buffer) {
    out.push_back(PlanCase::BufferMismatch);
  }
  if (out.size() == before) out.push_back(PlanCase::Balanced);
}

std::vector<obs::BurnBudget> default_slo_budgets() {
  std::vector<obs::BurnBudget> budgets;
  budgets.push_back(obs::BurnBudget{
      .name = "stall",
      .bad = {"daemon.degraded_playouts"},
      .total = {"daemon.playouts"},
      .budget = 0.05});
  budgets.push_back(obs::BurnBudget{
      .name = "deadline_miss",
      .bad = {"client.late_bytes"},
      .total = {"client.played_bytes", "client.late_bytes"},
      .budget = 0.01});
  budgets.push_back(obs::BurnBudget{
      .name = "shed",
      .bad = {"daemon.admission.budget_refused_bytes",
              "daemon.admission.channel_shed_bytes",
              "daemon.admission.floor_shed_bytes",
              "daemon.admission.slot_refused_bytes"},
      .total = {"daemon.ingest.polled_bytes"},
      .budget = 0.05});
  return budgets;
}

Daemon::Daemon(DaemonOptions options, std::unique_ptr<FrameSource> source,
               LinkFactory link_factory)
    : options_(std::move(options)),
      source_(std::move(source)),
      link_factory_(std::move(link_factory)),
      recorder_(options_.recorder),
      watchdog_(options_.slo, options_.engine.server_buffer, &recorder_,
                registry_),
      ladder_(options_.ladder) {
  RTS_EXPECTS(source_ != nullptr);
  const std::string err = options_.engine.validate();
  if (!err.empty()) {
    throw std::invalid_argument("rtsmoothd: invalid engine config: " + err);
  }
  engine_ = make_engine(options_.engine);
  channel_stats_.resize(static_cast<std::size_t>(source_->channels()));

  if (!options_.stats_socket_path.empty()) {
    obs::StatsServerConfig scfg;
    scfg.socket_path = options_.stats_socket_path;
    stats_ = std::make_unique<obs::StatsServer>(std::move(scfg));
  }
  if (options_.timeline.enabled()) {
    timeline_ = std::make_unique<obs::Timeline>(options_.timeline);
  } else if (const std::string terr = options_.timeline.validate();
             !terr.empty()) {
    throw std::invalid_argument("rtsmoothd: invalid timeline config: " + terr);
  }
  ctr_polled_bytes_ = &registry_.counter("daemon.ingest.polled_bytes");
  ctr_stalled_polls_ = &registry_.counter("daemon.ingest.stalled_polls");
  ctr_ingest_retries_ = &registry_.counter("daemon.ingest.retries");
  ctr_budget_refused_bytes_ =
      &registry_.counter("daemon.admission.budget_refused_bytes");
  ctr_channel_shed_bytes_ =
      &registry_.counter("daemon.admission.channel_shed_bytes");
  ctr_slot_refused_bytes_ =
      &registry_.counter("daemon.admission.slot_refused_bytes");
  ctr_slot_refused_frames_ =
      &registry_.counter("daemon.admission.slot_refused_frames");
  ctr_floor_shed_bytes_ =
      &registry_.counter("daemon.admission.floor_shed_bytes");
  ctr_playouts_ = &registry_.counter("daemon.playouts");
  ctr_degraded_playouts_ = &registry_.counter("daemon.degraded_playouts");
  ctr_sighup_ = &registry_.counter("daemon.snapshot.sighup");
  gauge_truncated_tail_ =
      &registry_.gauge("daemon.ingest.truncated_tail_bytes");
  gauge_rejected_records_ =
      &registry_.gauge("daemon.ingest.rejected_records");

  obs::Json ctx = obs::Json::object();
  ctx["mode"] = "daemon";
  ctx["policy"] = options_.engine.policy;
  ctx["server_buffer"] = options_.engine.server_buffer;
  ctx["client_buffer"] = options_.engine.client_buffer;
  ctx["rate"] = options_.engine.rate;
  ctx["smoothing_delay"] = options_.engine.smoothing_delay;
  ctx["link_delay"] = options_.engine.link_delay;
  ctx["channels"] = source_->channels();
  recorder_.set_context(std::move(ctx));
}

std::unique_ptr<LiveEngine> Daemon::make_engine(const EngineConfig& config) {
  // Counters are get-or-create, so engines rebuilt across reconfigurations
  // keep accumulating into the same instruments.
  obs::Telemetry telemetry;
  telemetry.registry = &registry_;
  telemetry.recorder = &recorder_;
  std::unique_ptr<Link> link =
      link_factory_ ? link_factory_(config) : nullptr;
  return std::make_unique<LiveEngine>(config, telemetry, std::move(link));
}

void Daemon::schedule_reconfig(Time at_step, EnginePlan plan) {
  auto it = reconfig_queue_.begin();
  while (it != reconfig_queue_.end() && it->at_step <= at_step) ++it;
  reconfig_queue_.insert(it, ReconfigRequest{at_step, std::move(plan)});
}

void Daemon::schedule_reconfig_cycle(Time every,
                                     std::vector<EnginePlan> plans) {
  if (every < 1) {
    throw std::invalid_argument("reconfig cycle period must be >= 1");
  }
  if (plans.empty()) {
    throw std::invalid_argument("reconfig cycle needs at least one plan");
  }
  cycle_every_ = every;
  cycle_next_ = steps_ + every;
  cycle_index_ = 0;
  cycle_plans_ = std::move(plans);
}

int Daemon::serve() {
  RTS_EXPECTS(!served_);
  served_ = true;
  std::ostream* log = options_.log;
  if (stats_ != nullptr) {
    stats_->start();
    publish(false, true);
    if (log != nullptr) {
      *log << "rtsmoothd: stats endpoint on " << stats_->socket_path()
           << '\n';
    }
  }
  if (log != nullptr) {
    const EngineConfig& cfg = engine_->config();
    *log << "rtsmoothd: serving " << source_->channels()
         << " channel(s), policy " << cfg.policy << ", B_s="
         << cfg.server_buffer << " B_c=" << cfg.client_buffer << " R="
         << cfg.rate << " D=" << cfg.smoothing_delay << " P="
         << cfg.link_delay << '\n';
  }
  const auto due = [this](Time every) {
    return every > 0 && steps_ % every == 0;
  };
  while (true) {
    if (stop_signal() != 0) break;
    if (options_.max_steps > 0 && steps_ >= options_.max_steps) break;
    if (cycle_every_ > 0 && !draining_ && steps_ >= cycle_next_) {
      schedule_reconfig(steps_,
                        cycle_plans_[cycle_index_ % cycle_plans_.size()]);
      ++cycle_index_;
      // Period counts from the fire step, so a long drain never produces a
      // burst of catch-up reconfigs afterwards.
      cycle_next_ = steps_ + cycle_every_;
    }
    if (!draining_ && !reconfig_queue_.empty() &&
        reconfig_queue_.front().at_step <= steps_) {
      begin_reconfig();
    }
    poll_frames();
    if (draining_) {
      drain_step();
    } else {
      serve_step();
    }
    ++steps_;
    if (timeline_ != nullptr &&
        steps_ % options_.timeline.slot_steps == 0) {
      sample_timeline();
    }
    const bool hup = hup_requested_.exchange(false, std::memory_order_relaxed);
    // Count first so the forced snapshot already shows its own trigger.
    if (hup) ctr_sighup_->add(1);
    publish(hup || due(options_.snapshot_every),
            hup || due(options_.stats_publish_every));
    if (hup && log != nullptr) {
      *log << "rtsmoothd: SIGHUP snapshot at step " << steps_ << '\n';
    }
    if (source_ended_ && pending_.empty() && !draining_ &&
        engine_->quiescent()) {
      break;
    }
  }
  if (log != nullptr && stop_signal() != 0) {
    *log << "rtsmoothd: stop signal " << stop_signal()
         << " received at step " << steps_ << ", draining\n";
  }
  shutdown_drain();
  write_outputs();
  const bool ok = total_report().conserves() && ingest_ledger_conserves();
  if (log != nullptr && !ok) {
    *log << "rtsmoothd: LEDGER FAILURE — report or ingest accounting does "
            "not conserve\n";
  }
  return ok ? 0 : 1;
}

void Daemon::poll_frames() {
  if (source_ended_) return;
  std::vector<IngestFrame> buf = take_group_buffer();
  PollStatus status = source_->poll(steps_, buf);
  if (status == PollStatus::Stalled && buf.empty()) {
    ctr_stalled_polls_->add(1);
    std::int64_t sleep_us = options_.ingest.retry_sleep_us;
    for (std::int32_t attempt = 0; attempt < options_.ingest.max_retries &&
                                   status == PollStatus::Stalled;
         ++attempt) {
      if (sleep_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      }
      sleep_us = std::min(sleep_us * 2, options_.ingest.retry_sleep_max_us);
      ctr_ingest_retries_->add(1);
      status = source_->poll(steps_, buf);
    }
  }
  // Monotone source-side tallies mirrored as max-gauges; for wire sources
  // a non-zero value flags producer desync or a chopped tail.
  gauge_truncated_tail_->update(
      static_cast<std::int64_t>(source_->truncated_tail()));
  gauge_rejected_records_->update(source_->rejected_records());
  if (status == PollStatus::End) {
    source_ended_ = true;
    if (options_.log != nullptr) {
      *options_.log << "rtsmoothd: source ended at step " << steps_ << '\n';
    }
  }
  if (status == PollStatus::Stalled && buf.empty()) {
    ++consecutive_stalled_;
    if (options_.ingest.stall_timeout_steps > 0 &&
        consecutive_stalled_ >= options_.ingest.stall_timeout_steps) {
      source_ended_ = true;
      ingest_timed_out_ = true;
      registry_.counter("daemon.ingest.stall_timeout").add(1);
      if (options_.log != nullptr) {
        *options_.log << "rtsmoothd: ingest stalled for "
                      << consecutive_stalled_
                      << " steps, declaring source dead at step " << steps_
                      << '\n';
      }
    }
  } else {
    consecutive_stalled_ = 0;
  }
  if (buf.empty()) {
    recycle_group_buffer(std::move(buf));
    return;
  }
  const trace::ValueModel& values = engine_->config().values;
  Bytes polled = 0;
  for (const IngestFrame& f : buf) {
    ++polled_frames_;
    polled += f.size;
    if (f.channel >= 0 &&
        static_cast<std::size_t>(f.channel) < channel_stats_.size()) {
      ChannelStats& cs = channel_stats_[static_cast<std::size_t>(f.channel)];
      cs.offered_bytes += f.size;
      cs.offered_weight += values.slice_weight(f.type, f.size);
      ++cs.frames;
    }
  }
  ctr_polled_bytes_->add(polled);
  pending_.push_back(Group{steps_, std::move(buf)});
}

void Daemon::serve_step() {
  admit_buf_.clear();
  // Up to two queued groups per step, in ingest order. In steady state the
  // queue holds exactly the group polled this step, so spacing is the
  // ingest spacing; after a reconfiguration drain the second slot works
  // off the deferred backlog at 2x until the queue is empty again, so the
  // replay lag decays instead of persisting for the rest of the run. The
  // cap keeps a catch-up burst from overwhelming Eq. (3) in one step.
  for (int catch_up = 0; catch_up < 2 && !pending_.empty(); ++catch_up) {
    Group group = pending_.pop_front();
    apply_ladder(group);
    recycle_group_buffer(std::move(group.frames));
  }
  if (!admit_buf_.empty() && ladder_.admission_control()) {
    apply_admission_budget();
  }
  const StepStats st = engine_->step(admit_buf_, ladder_.value_floor());
  observe(st);
  const Watchdog::Pressure pressure = watchdog_.observe(steps_, st);
  const std::int32_t before = ladder_.rung();
  ladder_.update(pressure.any());
  if (ladder_.rung() != before && options_.log != nullptr) {
    *options_.log << "rtsmoothd: step " << steps_ << " degradation "
                  << (ladder_.rung() > before ? "escalated" : "relaxed")
                  << " to " << to_string(ladder_.level()) << " (rung "
                  << ladder_.rung() << ", floor " << ladder_.value_floor()
                  << ", shed " << ladder_.shed_channels() << ")\n";
  }
}

void Daemon::drain_step() {
  // The ladder is frozen while draining: drain-time stalls are the drain's
  // doing, not load, and must not escalate into the next configuration.
  const StepStats st = engine_->step({});
  observe(st);
  watchdog_.observe(steps_, st);
  ++current_drain_steps_;
  ++reconfig_drain_steps_;
  if (engine_->quiescent()) {
    finish_reconfig();
    return;
  }
  if (current_drain_steps_ >= drain_ceiling()) {
    write_off_residual("drain", current_drain_steps_);
    finish_reconfig();
  }
}

void Daemon::begin_reconfig() {
  ReconfigRequest req = std::move(reconfig_queue_.front());
  reconfig_queue_.pop_front();
  const EngineConfig cfg = plan_config(req.plan);
  const std::string err = cfg.validate();
  if (!err.empty()) {
    registry_.counter("daemon.reconfig.rejected").add(1);
    if (options_.log != nullptr) {
      *options_.log << "rtsmoothd: reconfig at step " << steps_
                    << " rejected: " << err << '\n';
    }
    return;
  }
  pending_plan_ = std::move(req.plan);
  draining_ = true;
  current_drain_steps_ = 0;
  cases_buf_.clear();
  classify_plan(cfg, cases_buf_);
  for (const PlanCase c : cases_buf_) {
    registry_.counter(std::string("daemon.plan.") + to_string(c)).add(1);
  }
  if (options_.log != nullptr) {
    *options_.log << "rtsmoothd: reconfig begins at step " << steps_
                  << " -> B_s=" << cfg.server_buffer << " B_c="
                  << cfg.client_buffer << " R=" << cfg.rate << " D="
                  << cfg.smoothing_delay << " P=" << cfg.link_delay
                  << " policy=" << cfg.policy << "; Sect. 3.3 case(s):";
    for (const PlanCase c : cases_buf_) *options_.log << ' ' << to_string(c);
    *options_.log << '\n';
  }
}

void Daemon::finish_reconfig() {
  total_report_ += engine_->report();
  // The new engine's local step 0 is mapped to the oldest deferred group
  // (frames queued during the drain replay with their original spacing) or,
  // with nothing queued, to the next global step. The mapping lag is the
  // price of the drain and stays bounded by the drain ceiling.
  epoch_base_ = pending_.empty() ? steps_ + 1 : pending_.front().orig;
  const Time lag = steps_ + 1 - epoch_base_;
  if (lag > max_reconfig_lag_) max_reconfig_lag_ = lag;
  const EngineConfig cfg = plan_config(pending_plan_);
  options_.engine = cfg;
  engine_ = make_engine(cfg);
  engine_->set_record_base(steps_ + 1);
  watchdog_.set_server_buffer(cfg.server_buffer);
  draining_ = false;
  registry_.counter("daemon.reconfig.applied").add(1);
  if (options_.log != nullptr) {
    *options_.log << "rtsmoothd: reconfig applied at step " << steps_
                  << " after " << current_drain_steps_
                  << " drain step(s), replay lag " << lag << '\n';
  }
}

void Daemon::apply_ladder(Group& group) {
  const std::int32_t nch = static_cast<std::int32_t>(channel_stats_.size());
  std::int32_t shed = ladder_.shed_channels();
  if (shed > nch - 1) shed = nch - 1;
  if (shed < 0) shed = 0;
  shed_count_ = shed;
  if (shed > 0) {
    // Rank channels by observed mean byte value, cheapest first; a channel
    // with no traffic yet ranks most valuable (shedding it frees nothing).
    shed_rank_.resize(static_cast<std::size_t>(nch));
    for (std::int32_t c = 0; c < nch; ++c) {
      shed_rank_[static_cast<std::size_t>(c)] = c;
    }
    std::sort(shed_rank_.begin(), shed_rank_.end(),
              [this](std::int32_t a, std::int32_t b) {
                const ChannelStats& sa =
                    channel_stats_[static_cast<std::size_t>(a)];
                const ChannelStats& sb =
                    channel_stats_[static_cast<std::size_t>(b)];
                const double ma =
                    sa.offered_bytes > 0
                        ? sa.offered_weight /
                              static_cast<double>(sa.offered_bytes)
                        : std::numeric_limits<double>::infinity();
                const double mb =
                    sb.offered_bytes > 0
                        ? sb.offered_weight /
                              static_cast<double>(sb.offered_bytes)
                        : std::numeric_limits<double>::infinity();
                if (ma != mb) return ma < mb;
                return a < b;
              });
  }
  for (const IngestFrame& f : group.frames) {
    const bool is_shed =
        shed > 0 && std::find(shed_rank_.begin(), shed_rank_.begin() + shed,
                              f.channel) != shed_rank_.begin() + shed;
    if (is_shed) {
      ++channel_shed_frames_;
      ctr_channel_shed_bytes_->add(f.size);
    } else {
      admit_buf_.push_back(f);
    }
  }
}

void Daemon::apply_admission_budget() {
  Bytes budget = engine_->admission_budget();
  Bytes total = 0;
  for (const IngestFrame& f : admit_buf_) total += f.size;
  if (total <= budget) return;
  // Over budget: keep the most valuable bytes, greedily. Deterministic
  // tie-break so identical runs admit identically.
  const trace::ValueModel& values = engine_->config().values;
  std::sort(admit_buf_.begin(), admit_buf_.end(),
            [&values](const IngestFrame& a, const IngestFrame& b) {
              const double va = values.byte_value(a.type);
              const double vb = values.byte_value(b.type);
              if (va != vb) return va > vb;
              if (a.channel != b.channel) return a.channel < b.channel;
              return a.size > b.size;
            });
  std::size_t kept = 0;
  for (const IngestFrame& f : admit_buf_) {
    if (f.size <= budget) {
      budget -= f.size;
      admit_buf_[kept++] = f;
    } else {
      ++budget_refused_frames_;
      ctr_budget_refused_bytes_->add(f.size);
    }
  }
  admit_buf_.resize(kept);
}

void Daemon::observe(const StepStats& stats) {
  admitted_bytes_ += stats.record.arrived;
  admitted_frames_ += stats.admitted;
  ctr_slot_refused_bytes_->add(stats.refused);
  ctr_floor_shed_bytes_->add(stats.floor_shed);
  ctr_playouts_->add(stats.playouts);
  ctr_degraded_playouts_->add(stats.degraded);
}

Time Daemon::drain_ceiling() const {
  if (options_.max_drain_steps > 0) return options_.max_drain_steps;
  const EngineConfig& cfg = engine_->config();
  Time backoff = 0;
  if (cfg.recovery.enabled) {
    const std::int32_t retries =
        cfg.recovery.max_retries < 20 ? cfg.recovery.max_retries : 20;
    for (std::int32_t i = 0; i < retries; ++i) {
      backoff += cfg.recovery.backoff_base << i;
    }
  }
  return cfg.playout_offset() + cfg.server_buffer / cfg.rate + 1 + backoff +
         4096;
}

void Daemon::write_off_residual(const char* drain, Time drained) {
  engine_->abort_residual();
  forced_residual_ = true;
  registry_.counter("daemon.drain.forced_residual").add(1);
  if (options_.log != nullptr) {
    *options_.log << "rtsmoothd: " << drain << " ceiling (" << drained
                  << " steps) hit at step " << steps_
                  << "; residual written off\n";
  }
}

void Daemon::shutdown_drain() {
  const Time ceiling = drain_ceiling();
  Time drained = 0;
  while (!engine_->quiescent()) {
    if (drained >= ceiling) {
      write_off_residual("shutdown drain", drained);
      break;
    }
    const StepStats st = engine_->step({});
    observe(st);
    ++drained;
  }
  draining_ = false;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    for (const IngestFrame& f : pending_[i].frames) {
      unserved_bytes_ += f.size;
      ++unserved_frames_;
    }
  }
  pending_.clear();
  if (options_.log != nullptr) {
    *options_.log << "rtsmoothd: drained in " << drained
                  << " step(s) after step " << steps_ << '\n';
  }
}

bool Daemon::ingest_ledger_conserves() const {
  Bytes pending = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    for (const IngestFrame& f : pending_[i].frames) pending += f.size;
  }
  return ctr_polled_bytes_->value() ==
         admitted_bytes_ + ctr_budget_refused_bytes_->value() +
             ctr_slot_refused_bytes_->value() +
             ctr_channel_shed_bytes_->value() + unserved_bytes_ + pending;
}

std::int64_t Daemon::reconfigs_applied() const {
  return lazy_counter(registry_, "daemon.reconfig.applied");
}

std::int64_t Daemon::reconfigs_rejected() const {
  return lazy_counter(registry_, "daemon.reconfig.rejected");
}

SimReport Daemon::total_report() const {
  SimReport total = total_report_;
  total += engine_->report();
  return total;
}

obs::Json Daemon::snapshot() const {
  // A navigable tree for callers that read fields; the series comes back
  // through parse, off the publish path.
  return snapshot(timeline_ != nullptr ? obs::Json::parse(timeline_->dump())
                                       : obs::Json{});
}

obs::Json Daemon::snapshot(obs::Json series) const {
  const EngineConfig& cfg = engine_->config();
  obs::Json doc = obs::Json::object();
  doc["schema"] = "rtsmooth-soak-v1";

  obs::Json d = obs::Json::object();
  d["channels"] = source_->channels();
  d["policy"] = cfg.policy;
  d["server_buffer"] = cfg.server_buffer;
  d["client_buffer"] = cfg.client_buffer;
  d["rate"] = cfg.rate;
  d["smoothing_delay"] = cfg.smoothing_delay;
  d["link_delay"] = cfg.link_delay;
  d["max_live_runs"] = static_cast<std::int64_t>(cfg.max_live_runs);
  d["balanced"] = cfg.server_buffer == cfg.rate * cfg.smoothing_delay &&
                  cfg.client_buffer == cfg.server_buffer;
  doc["daemon"] = std::move(d);

  doc["steps"] = steps_;
  doc["engine_steps"] = engine_->now();
  doc["stop_signal"] = stop_signal();

  obs::Json rc = obs::Json::object();
  rc["applied"] = reconfigs_applied();
  rc["rejected"] = reconfigs_rejected();
  rc["drain_steps"] = reconfig_drain_steps_;
  rc["max_lag"] = max_reconfig_lag_;
  rc["queued"] = static_cast<std::int64_t>(reconfig_queue_.size());
  rc["forced_residual"] = forced_residual_;
  doc["reconfigs"] = std::move(rc);

  obs::Json deg = obs::Json::object();
  deg["level"] = to_string(ladder_.level());
  deg["rung"] = ladder_.rung();
  deg["escalations"] = ladder_.escalations();
  deg["deescalations"] = ladder_.deescalations();
  deg["value_floor"] = ladder_.value_floor();
  deg["shed_channels"] = ladder_.shed_channels();
  doc["degradation"] = std::move(deg);

  obs::Json slo = obs::Json::object();
  obs::Json breaches = obs::Json::object();
  breaches["stall"] = watchdog_.breaches().stall;
  breaches["loss"] = watchdog_.breaches().loss;
  breaches["occupancy"] = watchdog_.breaches().occupancy;
  breaches["burn"] = watchdog_.breaches().burn;
  slo["breaches"] = std::move(breaches);
  slo["incidents_captured"] =
      static_cast<std::int64_t>(recorder_.incidents().size());
  slo["incidents_written"] = incidents_written_;
  slo["cooldown_suppressed"] = watchdog_.cooldown_suppressed();
  slo["triggers"] = recorder_.triggers_total();
  slo["stall_rate"] = watchdog_.stall_rate();
  slo["loss_rate"] = watchdog_.loss_rate();
  slo["occupancy_step_frac"] = watchdog_.occupancy_step_frac();
  doc["slo"] = std::move(slo);

  obs::Json ingest = obs::Json::object();
  ingest["polled_frames"] = polled_frames_;
  ingest["polled_bytes"] = ctr_polled_bytes_->value();
  ingest["stalled_polls"] = ctr_stalled_polls_->value();
  ingest["retries"] = ctr_ingest_retries_->value();
  ingest["source_ended"] = source_ended_;
  ingest["timed_out"] = ingest_timed_out_;
  ingest["pending_depth"] = static_cast<std::int64_t>(pending_.size());
  ingest["truncated_tail_bytes"] =
      static_cast<std::int64_t>(source_->truncated_tail());
  ingest["rejected_records"] = source_->rejected_records();
  doc["ingest"] = std::move(ingest);

  obs::Json adm = obs::Json::object();
  adm["admitted_bytes"] = admitted_bytes_;
  adm["admitted_frames"] = admitted_frames_;
  adm["budget_refused_bytes"] = ctr_budget_refused_bytes_->value();
  adm["budget_refused_frames"] = budget_refused_frames_;
  adm["channel_shed_bytes"] = ctr_channel_shed_bytes_->value();
  adm["channel_shed_frames"] = channel_shed_frames_;
  adm["slot_refused_bytes"] = ctr_slot_refused_bytes_->value();
  adm["slot_refused_frames"] = ctr_slot_refused_frames_->value();
  adm["unserved_bytes"] = unserved_bytes_;
  adm["unserved_frames"] = unserved_frames_;
  adm["floor_shed_bytes"] = ctr_floor_shed_bytes_->value();
  adm["ledger_conserves"] = ingest_ledger_conserves();
  doc["admission"] = std::move(adm);

  const SimReport total = total_report();
  obs::Json rep = obs::Json::object();
  rep["offered_bytes"] = total.offered.bytes;
  rep["offered_weight"] = total.offered.weight;
  rep["played_bytes"] = total.played.bytes;
  rep["dropped_server_bytes"] = total.dropped_server.bytes;
  rep["dropped_client_overflow_bytes"] = total.dropped_client_overflow.bytes;
  rep["dropped_client_late_bytes"] = total.dropped_client_late.bytes;
  rep["lost_link_bytes"] = total.lost_link.bytes;
  rep["residual_bytes"] = total.residual.bytes;
  rep["retransmitted_bytes"] = total.retransmitted_bytes;
  rep["stall_steps"] = total.stall_steps;
  rep["max_server_occupancy"] = total.max_server_occupancy;
  rep["max_client_occupancy"] = total.max_client_occupancy;
  rep["max_lateness"] = total.max_lateness;
  rep["weighted_loss"] = total.weighted_loss();
  rep["conserves"] = total.conserves();
  doc["report"] = std::move(rep);

  if (stats_ != nullptr) {
    // Endpoint-side tallies (rtsmooth-stats-v1). These describe scraper
    // traffic, not the stream, and keep moving after a payload is frozen —
    // the published document reports the counts as of its own build.
    const obs::StatsServer::Stats ss = stats_->stats();
    obs::Json st = obs::Json::object();
    st["schema"] = "rtsmooth-stats-v1";
    st["socket_path"] = stats_->socket_path();
    st["running"] = stats_->running();
    st["accepted"] = ss.accepted;
    st["served_json"] = ss.served_json;
    st["served_metrics"] = ss.served_metrics;
    st["served_health"] = ss.served_health;
    st["unavailable"] = ss.unavailable;
    st["bad_requests"] = ss.bad_requests;
    st["not_found"] = ss.not_found;
    st["io_errors"] = ss.io_errors;
    st["served_series"] = ss.served_series;
    doc["stats"] = std::move(st);
  }

  if (timeline_ != nullptr) {
    // The rolling timeline as of its last sample. In the terminal snapshot
    // the shutdown sample runs right before this document is built, so
    // every series total reconciles exactly against the registry section
    // below (pinned in test_stats_server).
    doc["series"] = std::move(series);
  }

  doc["registry"] = registry_.to_json(false);
  return doc;
}

void Daemon::sample_timeline() {
  const std::vector<obs::BurnStatus>& burn =
      timeline_->sample(steps_, registry_);
  for (const obs::BurnStatus& status : burn) {
    watchdog_.observe_burn(steps_, status);
  }
}

void Daemon::publish(bool to_file, bool to_endpoint) {
  to_file = to_file && !options_.snapshot_path.empty();
  to_endpoint = to_endpoint && stats_ != nullptr;
  if (!to_file && !to_endpoint) return;
  // The series is rendered once, and the snapshot splices those bytes in:
  // the file, /json and /series share one rendering. An empty /series body
  // tells the endpoint there is no timeline.
  std::string series = timeline_ != nullptr ? timeline_->dump() : std::string{};
  std::string text =
      snapshot(series.empty() ? obs::Json{} : obs::Json::raw(series)).dump();
  text += '\n';
  if (to_file) write_snapshot(text);
  if (to_endpoint) {
    if (!series.empty()) series += '\n';
    stats_->publish(std::move(text), obs::to_prometheus(registry_),
                    std::move(series));
  }
}

void Daemon::write_snapshot(const std::string& text) const {
  // tmp + rename so a reader (or a crash mid-write) never sees a torn
  // snapshot file.
  const std::string tmp = options_.snapshot_path + ".tmp";
  const auto parent =
      std::filesystem::path(options_.snapshot_path).parent_path();
  if (!parent.empty()) {
    std::error_code dir_ec;
    std::filesystem::create_directories(parent, dir_ec);
  }
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      if (options_.log != nullptr) {
        *options_.log << "rtsmoothd: cannot open snapshot file " << tmp
                      << '\n';
      }
      return;
    }
    out << text;
    if (!out) {
      if (options_.log != nullptr) {
        *options_.log << "rtsmoothd: snapshot write failed: " << tmp << '\n';
      }
      return;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, options_.snapshot_path, ec);
  if (ec && options_.log != nullptr) {
    *options_.log << "rtsmoothd: snapshot rename failed: " << ec.message()
                  << '\n';
  }
}

void Daemon::write_outputs() {
  if (!options_.incident_dir.empty() && !recorder_.incidents().empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.incident_dir, ec);
    if (ec) {
      if (options_.log != nullptr) {
        *options_.log << "rtsmoothd: cannot create incident dir "
                      << options_.incident_dir << ": " << ec.message()
                      << '\n';
      }
    } else {
      for (std::size_t i = 0; i < recorder_.incidents().size(); ++i) {
        char name[32];
        std::snprintf(name, sizeof name, "incident_%04d.json",
                      static_cast<int>(i));
        const std::string path = options_.incident_dir + "/" + name;
        try {
          obs::FlightRecorder::write_incident(recorder_.incidents()[i], path);
          ++incidents_written_;
        } catch (const std::exception& e) {
          if (options_.log != nullptr) {
            *options_.log << "rtsmoothd: " << e.what() << '\n';
          }
        }
      }
    }
  }
  if (timeline_ != nullptr) {
    // Terminal sample, taken after the shutdown drain retired its last
    // byte and deliberately *not* fed to the watchdog: a breach here
    // would bump daemon.slo.* after the sample and break the
    // series-vs-registry conservation the snapshot pins.
    timeline_->sample(steps_, registry_);
  }
  // Built after the incident files so incidents_written_ is final; the
  // shutdown snapshot file and the endpoint payload are byte-identical
  // (pinned in test_stats_server).
  publish(true, true);
}

std::vector<IngestFrame> Daemon::take_group_buffer() {
  if (group_pool_.empty()) return {};
  std::vector<IngestFrame> buf = std::move(group_pool_.back());
  group_pool_.pop_back();
  buf.clear();
  return buf;
}

void Daemon::recycle_group_buffer(std::vector<IngestFrame> buf) {
  if (group_pool_.size() >= 64) return;
  buf.clear();
  group_pool_.push_back(std::move(buf));
}

EngineConfig Daemon::plan_config(const EnginePlan& plan) const {
  EngineConfig cfg = engine_->config();
  cfg.server_buffer = plan.server_buffer;
  cfg.client_buffer = plan.client_buffer;
  cfg.rate = plan.rate;
  cfg.smoothing_delay = plan.smoothing_delay;
  cfg.link_delay = plan.link_delay;
  if (!plan.policy.empty()) cfg.policy = plan.policy;
  return cfg;
}

namespace {

std::atomic<Daemon*> g_signal_daemon{nullptr};

void handle_stop_signal(int signum) {
  Daemon* daemon = g_signal_daemon.load(std::memory_order_relaxed);
  if (daemon != nullptr) daemon->request_stop(signum);
}

void handle_hup_signal(int) {
  Daemon* daemon = g_signal_daemon.load(std::memory_order_relaxed);
  if (daemon != nullptr) daemon->request_snapshot();
}

}  // namespace

void install_signal_handlers(Daemon& daemon) {
  g_signal_daemon.store(&daemon, std::memory_order_relaxed);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
#ifdef SIGHUP
  std::signal(SIGHUP, handle_hup_signal);
#endif
}

}  // namespace rtsmooth::daemon
