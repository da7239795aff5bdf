#include "daemon/live_engine.h"

#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::daemon {
namespace {

/// Aborts on an invalid config before any member sized from it is built.
EngineConfig validated(EngineConfig config) {
  RTS_EXPECTS(config.validate().empty());
  return config;
}

double lost_weight_so_far(const SimReport& r) {
  return r.dropped_server.weight + r.dropped_client_overflow.weight +
         r.dropped_client_late.weight + r.lost_link.weight;
}

}  // namespace

std::string EngineConfig::validate() const {
  if (server_buffer < 1) return "server_buffer must be >= 1";
  if (client_buffer < 1) return "client_buffer must be >= 1";
  if (rate < 1) return "rate must be >= 1 byte/step";
  if (smoothing_delay < 0) return "smoothing_delay must be >= 0";
  if (link_delay < 0) return "link_delay must be >= 0";
  if (max_live_runs < 2) return "max_live_runs must be >= 2";
  if (recovery.max_retries < 0 || recovery.max_retries > 62) {
    return "recovery.max_retries must be in [0, 62]";
  }
  if (recovery.backoff_base < 1) return "recovery.backoff_base must be >= 1";
  return {};
}

LiveEngine::LiveEngine(EngineConfig config, obs::Telemetry telemetry,
                       std::unique_ptr<Link> link)
    : config_(validated(std::move(config))),
      telemetry_(telemetry),
      pipeline_(server_config(config_),
                make_policy(config_.policy, config_.policy_seed),
                link ? std::move(link)
                     : std::make_unique<FixedDelayLink>(config_.link_delay),
                Client(config_.max_live_runs, config_.client_buffer,
                       config_.playout_offset())) {
  // Reserved, not value-initialized: a slot is filled on its first
  // admission, and the vector never grows past this, so the run pointers
  // the client and the server hold stay valid.
  runs_.reserve(config_.max_live_runs);
  if (telemetry_.enabled()) {
    pipeline_.server().set_telemetry(telemetry_);
    pipeline_.link().set_telemetry(telemetry_);
  }
  // The client carries no telemetry of its own here: step() fills the
  // daemon's client metrics from the step's record and the client's
  // running totals.
  if (telemetry_.registry != nullptr) {
    obs::Registry& reg = *telemetry_.registry;
    played_bytes_ = &reg.counter("client.played_bytes");
    late_bytes_ = &reg.counter("client.late_bytes");
    overflow_bytes_ = &reg.counter("client.overflow_bytes");
    refused_frames_ = &reg.counter("daemon.admission.slot_refused_frames");
    retired_runs_ = &reg.counter("daemon.retired_runs");
    max_client_occupancy_ = &reg.gauge("client.max_occupancy");
    max_lateness_ = &reg.gauge("client.max_lateness_steps");
    // Nothing late yet reads 0, as SimReport::max_lateness does, not the
    // empty gauge's INT64_MIN: step() raises it only on a late byte.
    max_lateness_->update(0);
    const obs::HistogramSpec steps_spec = obs::HistogramSpec::exponential(1, 16);
    hist_slack_ = &reg.histogram("client.slack_steps", steps_spec);
    hist_lateness_ = &reg.histogram("client.lateness_steps", steps_spec);
  }
}

void LiveEngine::admit_frame(const IngestFrame& frame, StepStats& st) {
  RTS_EXPECTS(frame.size >= 1);
  if (!pipeline_.client().can_admit(next_seq_)) {
    // The pipeline still owes bytes from max_live_runs frames ago:
    // backpressure instead of unbounded state.
    st.refused += frame.size;
    if (refused_frames_ != nullptr) refused_frames_->add(1);
    return;
  }
  const std::size_t seq = next_seq_++;
  if (seq < config_.max_live_runs) runs_.emplace_back();  // first pass: fill
  SliceRun& run = runs_[seq % runs_.size()];
  run = SliceRun{.arrival = now_,
                 .slice_size = 1,
                 .count = frame.size,
                 .weight = config_.values.byte_value(frame.type),
                 .frame_type = frame.type,
                 .frame_index = static_cast<std::int64_t>(seq)};
  pipeline_.admit(run, seq);
  st.admitted += 1;
  st.offered_weight += run.total_weight();
}

StepStats LiveEngine::step(std::span<const IngestFrame> frames,
                           double value_floor) {
  RTS_EXPECTS(!aborted_);
  const Time t = now_;
  const Client& client = pipeline_.client();
  StepStats st;
  const Bytes late_before = client.late_bytes_so_far();
  const Bytes overflow_before = client.overflow_bytes_so_far();
  const std::int64_t playouts_before = client.playouts();
  const std::int64_t degraded_before = client.degraded_playouts();
  const std::int64_t live_before = client.live_runs();
  const double lost_weight_before = lost_weight_so_far(report());

  pipeline_.begin(t);
  for (const IngestFrame& frame : frames) admit_frame(frame, st);
  if (value_floor > 0.0 && server_occupancy() > 0) {
    st.floor_shed = pipeline_.server().shed_below_value(value_floor).bytes;
  }
  st.record = pipeline_.finish();
  st.lost_weight = lost_weight_so_far(report()) - lost_weight_before;
  st.playouts = client.playouts() - playouts_before;
  st.degraded = client.degraded_playouts() - degraded_before;

  if (telemetry_.registry != nullptr) {
    played_bytes_->add(st.record.played);
    late_bytes_->add(client.late_bytes_so_far() - late_before);
    overflow_bytes_->add(client.overflow_bytes_so_far() - overflow_before);
    retired_runs_->add(st.admitted - (client.live_runs() - live_before));
    max_client_occupancy_->update(st.record.client_occupancy);
    // Unit slices under a fixed offset: a delivered byte is late exactly
    // when its playout step has passed.
    for (const SentPiece& piece : pipeline_.delivered()) {
      const Time slack = client.playout_step(piece.run->arrival) - t;
      if (slack >= 0) {
        hist_slack_->record(slack, piece.bytes);
      } else {
        hist_lateness_->record(-slack, piece.bytes);
        max_lateness_->update(-slack);
      }
    }
  }

  if (telemetry_.recorder != nullptr) {
    obs::StepRecord record = st.record;
    record.t += record_base_;
    telemetry_.recorder->record(record);
  }

  ++now_;
  pipeline_.report().steps = now_;
  return st;
}

void LiveEngine::abort_residual() {
  RTS_EXPECTS(!aborted_);
  aborted_ = true;
  pipeline_.finalize();
}

}  // namespace rtsmooth::daemon
