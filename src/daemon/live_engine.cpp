#include "daemon/live_engine.h"

#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.h"
#include "policies/policy_factory.h"
#include "util/assert.h"

namespace rtsmooth::daemon {
namespace {

ServerConfig server_config(const EngineConfig& config) {
  ServerConfig sc{.buffer = config.server_buffer,
                  .rate = config.rate,
                  .recovery = config.recovery};
  sc.recovery.smoothing_delay = config.smoothing_delay;
  return sc;
}

Bytes piece_bytes(std::span<const SentPiece> pieces) {
  Bytes sum = 0;
  for (const SentPiece& piece : pieces) sum += piece.bytes;
  return sum;
}

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
      server_(server_config(config_),
              make_policy(config_.policy, config_.policy_seed)),
      link_(link ? std::move(link)
                 : std::make_unique<FixedDelayLink>(config_.link_delay)),
      client_(config_.max_live_runs, config_.client_buffer,
              config_.playout_offset()),
      runs_(config_.max_live_runs) {
  server_.set_link_loss_sink([this](const SliceRun& /*run*/,
                                    std::size_t run_index, Bytes bytes) {
    client_.add_link_loss(run_index, bytes, report_);
  });
  server_.set_drop_sink([this](const SliceRun& /*run*/, std::size_t run_index,
                               std::int64_t slices) {
    client_.add_server_drop(run_index, slices, report_);
  });
  if (telemetry_.enabled()) {
    server_.set_telemetry(telemetry_);
    link_->set_telemetry(telemetry_);
  }
  // The client carries no telemetry of its own here: step() fills the
  // daemon's client metrics from the step's deltas.
  if (telemetry_.registry != nullptr) {
    obs::Registry& reg = *telemetry_.registry;
    played_bytes_ = &reg.counter("client.played_bytes");
    late_bytes_ = &reg.counter("client.late_bytes");
    overflow_bytes_ = &reg.counter("client.overflow_bytes");
    refused_frames_ = &reg.counter("daemon.admission.slot_refused_frames");
    retired_runs_ = &reg.counter("daemon.retired_runs");
    max_client_occupancy_ = &reg.gauge("client.max_occupancy");
    max_lateness_ = &reg.gauge("client.max_lateness_steps");
    const obs::HistogramSpec steps_spec = obs::HistogramSpec::exponential(1, 16);
    hist_slack_ = &reg.histogram("client.slack_steps", steps_spec);
    hist_lateness_ = &reg.histogram("client.lateness_steps", steps_spec);
  }
}

void LiveEngine::admit_frame(const IngestFrame& frame, StepStats& st) {
  RTS_EXPECTS(frame.size >= 1);
  if (!client_.can_admit(next_seq_)) {
    // The pipeline still owes bytes from max_live_runs frames ago:
    // backpressure instead of unbounded state.
    st.refused += frame.size;
    st.refused_frames += 1;
    st.refused_weight += config_.values.byte_value(frame.type) *
                         static_cast<double>(frame.size);
    if (refused_frames_ != nullptr) refused_frames_->add(1);
    return;
  }
  const std::size_t seq = next_seq_++;
  SliceRun& run = runs_[seq % runs_.size()];
  run = SliceRun{.arrival = now_,
                 .slice_size = 1,
                 .count = frame.size,
                 .weight = config_.values.byte_value(frame.type),
                 .frame_type = frame.type,
                 .frame_index = static_cast<std::int64_t>(seq)};
  client_.admit(run, seq);
  server_.admit(run, seq);
  st.arrived += frame.size;
  st.admitted += 1;
  st.offered_weight += run.total_weight();
}

StepStats LiveEngine::step(std::span<const IngestFrame> frames,
                           double value_floor) {
  RTS_EXPECTS(!aborted_);
  const Time t = now_;
  StepStats st;
  const Bytes played_before = report_.played.bytes;
  const Bytes dropped_server_before = report_.dropped_server.bytes;
  const Bytes retx_before = report_.retransmitted_bytes;
  const Bytes late_before = client_.late_bytes_so_far();
  const Bytes overflow_before = client_.overflow_bytes_so_far();
  const Bytes client_dropped_before = client_.dropped_bytes_so_far();
  const std::int64_t playouts_before = client_.playouts();
  const std::int64_t degraded_before = client_.degraded_playouts();
  const std::int64_t live_before = client_.live_runs();
  const double lost_weight_before = lost_weight_so_far(report_);

  const auto nacks = link_->collect_nacks(t);
  server_.begin_step(t, nacks, report_, nullptr);
  for (const IngestFrame& frame : frames) admit_frame(frame, st);
  if (value_floor > 0.0 && server_.buffer().occupancy() > 0) {
    st.floor_shed = server_.shed_below_value(value_floor, report_).bytes;
  }
  pieces_.clear();
  server_.finish_step(pieces_);
  st.sent = piece_bytes(pieces_);
  // An empty send is not submitted: moving an empty vector into the link
  // would surrender the recycled storage (same idiom as the simulator).
  if (!pieces_.empty()) link_->submit(t, std::move(pieces_));
  auto delivered = link_->deliver(t);
  st.delivered = piece_bytes(delivered);
  client_.deliver(t, delivered, report_, nullptr);
  client_.play(t, report_, nullptr);

  st.played = report_.played.bytes - played_before;
  st.dropped_server = report_.dropped_server.bytes - dropped_server_before;
  st.dropped_client = client_.dropped_bytes_so_far() - client_dropped_before;
  st.retransmitted = report_.retransmitted_bytes - retx_before;
  st.lost_weight = lost_weight_so_far(report_) - lost_weight_before;
  st.playouts = client_.playouts() - playouts_before;
  st.degraded = client_.degraded_playouts() - degraded_before;
  st.server_occupancy = server_.buffer().occupancy();
  st.client_occupancy = client_.occupancy();
  st.link_idle = link_->idle();

  if (telemetry_.registry != nullptr) {
    played_bytes_->add(st.played);
    late_bytes_->add(client_.late_bytes_so_far() - late_before);
    overflow_bytes_->add(client_.overflow_bytes_so_far() - overflow_before);
    retired_runs_->add(st.admitted - (client_.live_runs() - live_before));
    max_client_occupancy_->update(st.client_occupancy);
    // Unit slices under a fixed offset: a delivered byte is late exactly
    // when its playout step has passed.
    for (const SentPiece& piece : delivered) {
      const Time slack = client_.playout_step(piece.run->arrival) - t;
      if (slack >= 0) {
        hist_slack_->record(slack, piece.bytes);
      } else {
        hist_lateness_->record(-slack, piece.bytes);
        max_lateness_->update(-slack);
      }
    }
  }

  if (telemetry_.recorder != nullptr) {
    obs::StepRecord record;
    record.t = record_base_ + t;
    record.arrived = st.arrived;
    record.sent = st.sent;
    record.delivered = st.delivered;
    record.played = st.played;
    record.dropped_server = st.dropped_server;
    record.dropped_client = st.dropped_client;
    record.retransmitted = st.retransmitted;
    record.server_occupancy = st.server_occupancy;
    record.client_occupancy = st.client_occupancy;
    record.link_idle = st.link_idle;
    record.stalled = st.degraded > 0;
    telemetry_.recorder->record(record);
  }

  if (pieces_.capacity() < delivered.capacity()) pieces_ = std::move(delivered);
  ++now_;
  report_.steps = now_;
  return st;
}

void LiveEngine::abort_residual() {
  RTS_EXPECTS(!aborted_);
  aborted_ = true;
  client_.finalize(report_);
}

}  // namespace rtsmooth::daemon
