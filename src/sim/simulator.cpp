#include "sim/simulator.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "faults/invariant_monitor.h"
#include "obs/flight_recorder.h"
#include "obs/trace_writer.h"
#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::sim {
namespace {

/// Throws with the validation message before any member with aborting
/// preconditions is constructed.
const Stream& validated(const Stream& stream, const SimConfig& config) {
  std::string problem = config.validate(stream);
  if (!problem.empty()) {
    throw std::invalid_argument("SimConfig: " + std::move(problem));
  }
  return stream;
}

/// The tracer's JSONL step event for one step record: "type" first, then the
/// record's fields in declaration order, minus link_idle (the trace format
/// predates it).
obs::Json step_event(const obs::StepRecord& step) {
  obs::Json event = obs::Json::object();
  event["type"] = "step";
  event["t"] = step.t;
  event["arrived"] = step.arrived;
  event["sent"] = step.sent;
  event["delivered"] = step.delivered;
  event["played"] = step.played;
  event["dropped_server"] = step.dropped_server;
  event["dropped_client"] = step.dropped_client;
  event["retransmitted"] = step.retransmitted;
  event["server_occupancy"] = step.server_occupancy;
  event["client_occupancy"] = step.client_occupancy;
  event["stalled"] = step.stalled;
  return event;
}

}  // namespace

std::string SimConfig::validate(const Stream& stream) const {
  // Happy-path exit before any ostringstream is constructed: validate runs
  // once per simulation, and sweeps construct simulators by the thousand.
  if (server_buffer >= 1 && client_buffer >= 1 && rate >= 1 &&
      smoothing_delay >= 0 && link_delay >= 0 &&
      server_buffer >= stream.max_slice_size() && max_stall >= 0 &&
      recovery.max_retries >= 0 && recovery.backoff_base >= 1 &&
      recovery.max_retries <= 62) {
    return {};
  }
  std::ostringstream msg;
  if (server_buffer < 1) {
    msg << "server_buffer must be >= 1, got " << server_buffer;
  } else if (client_buffer < 1) {
    msg << "client_buffer must be >= 1, got " << client_buffer;
  } else if (rate < 1) {
    msg << "rate must be >= 1 byte/step, got " << rate;
  } else if (smoothing_delay < 0) {
    msg << "smoothing_delay must be >= 0, got " << smoothing_delay;
  } else if (link_delay < 0) {
    msg << "link_delay must be >= 0, got " << link_delay;
  } else if (server_buffer < stream.max_slice_size()) {
    msg << "server_buffer (" << server_buffer
        << " bytes) is smaller than the stream's largest slice ("
        << stream.max_slice_size()
        << " bytes); a slice that cannot fit the buffer can never be "
           "scheduled — grow the buffer or cut finer slices";
  } else if (max_stall < 0) {
    msg << "max_stall must be >= 0, got " << max_stall;
  } else if (recovery.max_retries < 0) {
    msg << "recovery.max_retries must be >= 0, got " << recovery.max_retries;
  } else if (recovery.backoff_base < 1) {
    msg << "recovery.backoff_base must be >= 1 slot, got "
        << recovery.backoff_base;
  } else if (recovery.backoff_base > 0 && recovery.max_retries > 62) {
    msg << "recovery.max_retries (" << recovery.max_retries
        << ") would overflow the exponential backoff; keep it <= 62";
  }
  return std::move(msg).str();
}

SmoothingSimulator::SmoothingSimulator(const Stream& stream, SimConfig config,
                                       std::unique_ptr<DropPolicy> policy,
                                       std::unique_ptr<Link> link)
    : stream_(&validated(stream, config)),
      config_(config),
      pipeline_(server_config(config), std::move(policy),
                link ? std::move(link)
                     : std::make_unique<FixedDelayLink>(config.link_delay),
                Client(stream.run_count(), config.client_buffer,
                       config.link_delay + config.smoothing_delay,
                       config.playout, config.smoothing_delay,
                       config.underflow, config.max_stall)) {
  if (config_.telemetry.enabled()) {
    pipeline_.server().set_telemetry(config_.telemetry);
    pipeline_.client().set_telemetry(config_.telemetry);
    pipeline_.link().set_telemetry(config_.telemetry);
  }
}

SimReport SmoothingSimulator::run(ScheduleRecorder* rec) {
  RTS_EXPECTS(!ran_);
  ran_ = true;
  SimReport& report = pipeline_.report();
  const SmoothingServer& server = pipeline_.server();
  const Link& link = pipeline_.link();
  const Client& client = pipeline_.client();
  ArrivalCursor cursor(*stream_);
  faults::InvariantMonitor monitor(config_.server_buffer, config_.rate,
                                   config_.telemetry);

  // Telemetry instruments, resolved once; all null when disabled, so the
  // per-step cost of the instrumentation below is a handful of predictable
  // branches.
  obs::Registry* reg = config_.telemetry.registry;
  obs::TraceWriter* tracer = config_.telemetry.tracer;
  obs::FlightRecorder* recorder = config_.telemetry.recorder;
  // The schedule recorder keeps per-step sets only at RunsAndSteps.
  ScheduleRecorder* const step_rec =
      rec != nullptr && rec->level() == ScheduleRecorder::Level::RunsAndSteps
          ? rec
          : nullptr;
  obs::Histogram* sojourn_hist = nullptr;
  obs::Histogram* burst_hist = nullptr;
  if (reg != nullptr) {
    // Lemma 3.2 in distribution form: on a lossless balanced run every
    // byte-weighted sample is <= ceil(B/R), so max() pins the bound.
    sojourn_hist = &reg->histogram("byte.sojourn_steps",
                                   obs::HistogramSpec::exponential(1, 24));
    burst_hist = &reg->histogram("drop.burst_length",
                                 obs::HistogramSpec::exponential(1, 16));
  }
  // The tracer's config event and the flight recorder's incident context
  // carry the same run parameters, so an incident report stays
  // self-contained (DESIGN.md Sect. 11).
  const auto fill_config = [this](obs::Json& event) {
    event["server_buffer"] = config_.server_buffer;
    event["client_buffer"] = config_.client_buffer;
    event["rate"] = config_.rate;
    event["smoothing_delay"] = config_.smoothing_delay;
    event["link_delay"] = config_.link_delay;
    event["runs"] = static_cast<std::int64_t>(stream_->run_count());
  };
  if (tracer != nullptr) {
    obs::Json event = obs::Json::object();
    event["type"] = "config";
    fill_config(event);
    tracer->write(event);
  }
  if (recorder != nullptr) {
    // annotate() rather than set_context(): a sweep cell tags its recorder
    // (severity, cell index) before the run, and those keys must survive.
    obs::Json context = obs::Json::object();
    fill_config(context);
    context["policy"] = server.policy().name();
    for (std::size_t i = 0; i < context.keys().size(); ++i) {
      recorder->annotate(context.keys()[i], context.items()[i]);
    }
  }
  std::int64_t drop_burst = 0;  ///< consecutive steps with server drops

  const Time horizon = stream_->horizon();
  const Time playout_offset = config_.link_delay + config_.smoothing_delay;
  const Time last_playout = horizon - 1 + playout_offset;
  // Hard ceiling against accounting bugs keeping the loop alive: everything
  // must drain within the horizon plus transmit time plus pipeline depth.
  // Faults extend the pipeline by bounded amounts — client rebuffering
  // (counted as it happens) and the loss-feedback round trip — so the
  // ceiling moves with them instead of aborting a legitimately slow run.
  const Time limit = horizon + playout_offset +
                     stream_->total_bytes() / config_.rate + 16 +
                     8 * (link.min_delay() + 1) + 256;

  // One step of the shared pipeline, observed through the record it
  // returns; absorb_span sends skipped slots down the same observation path.
  const auto live_step = [&](Time now) {
    RTS_ASSERT(now <= limit + client.stall_steps());
    pipeline_.begin(now, rec);
    const ArrivalBatch batch = cursor.step(now);
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      pipeline_.admit(batch.runs[i], batch.first_index + i);
    }
    const obs::StepRecord& step = pipeline_.finish();
    if (sojourn_hist != nullptr) {
      for (const SentPiece& piece : pipeline_.sent()) {
        sojourn_hist->record(now - piece.run->arrival, piece.bytes);
      }
      if (step.dropped_server > 0) {
        ++drop_burst;
      } else if (drop_burst > 0) {
        burst_hist->record(drop_burst);
        drop_burst = 0;
      }
    }
    if (rec != nullptr) rec->record_step(step);
    // Recorded *before* monitor.check, so a violation at step t captures a
    // window whose last record is step t itself; traced after it, so the
    // step's violation events precede its step event.
    if (recorder != nullptr) recorder->record(step);
    monitor.check(now, server, client);
    if (tracer != nullptr) tracer->write(step_event(step));
  };

  // Accounts for the quiescent slots [t0, t1) without stepping through them.
  const auto absorb_span = [&](Time t0, Time t1) {
    RTS_ASSERT(t0 <= limit + client.stall_steps());
    // A drop burst cannot straddle a quiescent span: the span's first
    // no-drop step ends it, exactly where a live step would flush it.
    if (burst_hist != nullptr && drop_burst > 0) {
      burst_hist->record(drop_burst);
      drop_burst = 0;
    }
    // Autonomous link state (the Gilbert-Elliott chain) evolves with time,
    // not traffic: the pipeline replays the per-step deliver() polls the
    // skipped slots would have issued, so RNG consumption and burst-length
    // records stay draw-for-draw identical, and back-fills the registry.
    pipeline_.skip(t0, t1);
    if (step_rec == nullptr && tracer == nullptr && recorder == nullptr) {
      return;
    }
    // Observers see every slot as a zero record, so step traces, schedule
    // recordings and incident windows match a run that steps through the
    // span. The flight recorder keeps only its last window and takes the
    // span in one call; the step sets and the tracer, whose consumers read
    // every slot, get one record per slot.
    const bool link_idle = link.idle();  // constant across the span
    if (recorder != nullptr) recorder->record_idle(t0, t1, link_idle);
    if (step_rec == nullptr && tracer == nullptr) return;
    for (Time s = t0; s < t1; ++s) {
      const obs::StepRecord idle{.t = s, .link_idle = link_idle};
      if (step_rec != nullptr) step_rec->record_step(idle);
      if (tracer != nullptr) tracer->write(step_event(idle));
    }
  };

  // The main loop (DESIGN.md Sect. 17). While the system is quiescent
  // (server idle, client empty) no step can act before the earliest of four
  // events: the next arrival, the link's next possible delivery or NACK,
  // the next playout step, and one past the nominal playout range, where
  // the exit test is due again. An event at or before t makes t a live
  // step; a strictly later one absorbs [t, next) as one span. The run lasts
  // until everything drains: timer-mode playout can trail the offset.
  Time t = 0;
  while (t <= last_playout || !server.idle() || !link.idle() ||
         client.occupancy() > 0) {
    const Time next = server.idle() && client.occupancy() == 0
                          ? std::min({cursor.next_arrival(),
                                      link.next_activity(t),
                                      client.next_playout_event(t),
                                      last_playout + 1})
                          : t;
    if (next <= t) {
      live_step(t++);
    } else {
      absorb_span(t, next);
      t = next;
    }
  }
  if (burst_hist != nullptr && drop_burst > 0) {
    burst_hist->record(drop_burst);  // a burst running into the drain tail
  }
  report.steps = t;
  pipeline_.finalize();
  monitor.finalize(report);
  if (reg != nullptr) {
    reg->counter("sim.steps").add(report.steps);
    reg->counter("sim.runs").add(1);
    reg->counter("sim.stall_steps").add(report.stall_steps);
  }
  if (tracer != nullptr) {
    obs::Json event = obs::Json::object();
    event["type"] = "run";
    event["steps"] = report.steps;
    event["offered_bytes"] = report.offered.bytes;
    event["played_bytes"] = report.played.bytes;
    event["dropped_server_bytes"] = report.dropped_server.bytes;
    event["dropped_client_overflow_bytes"] =
        report.dropped_client_overflow.bytes;
    event["dropped_client_late_bytes"] = report.dropped_client_late.bytes;
    event["lost_link_bytes"] = report.lost_link.bytes;
    event["residual_bytes"] = report.residual.bytes;
    event["retransmitted_bytes"] = report.retransmitted_bytes;
    event["stall_steps"] = report.stall_steps;
    event["invariant_violations"] = report.invariants.total();
    tracer->write(event);
  }
  RTS_ENSURES(report.conserves());
  return report;
}

SimReport simulate(const Stream& stream, const Plan& plan,
                   std::string_view policy_name, Time link_delay,
                   obs::Telemetry telemetry) {
  SimConfig config = SimConfig::balanced(plan, link_delay);
  config.telemetry = telemetry;
  SmoothingSimulator simulator(stream, config, make_policy(policy_name));
  return simulator.run();
}

SimReport simulate(const Stream& stream, const SimConfig& config,
                   std::string_view policy_name, std::unique_ptr<Link> link) {
  SmoothingSimulator simulator(stream, config, make_policy(policy_name),
                               std::move(link));
  return simulator.run();
}

}  // namespace rtsmooth::sim
