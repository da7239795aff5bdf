#include "obs/flight_recorder.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace rtsmooth::obs {

Json StepRecord::to_json() const {
  Json j = Json::object();
  j["t"] = t;
  j["arrived"] = arrived;
  j["sent"] = sent;
  j["delivered"] = delivered;
  j["played"] = played;
  j["dropped_server"] = dropped_server;
  j["dropped_client"] = dropped_client;
  j["retransmitted"] = retransmitted;
  j["server_occupancy"] = server_occupancy;
  j["client_occupancy"] = client_occupancy;
  j["link_idle"] = link_idle;
  j["stalled"] = stalled;
  return j;
}

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)) {
  if (config_.window == 0) {
    throw std::invalid_argument(
        "FlightRecorder: window must be >= 1 step — an incident with no "
        "flight data would explain nothing");
  }
  ring_.resize(config_.window);
}

void FlightRecorder::annotate(std::string_view key, Json value) {
  context_[key] = std::move(value);
}

void FlightRecorder::record(const StepRecord& record) {
  ring_[next_] = record;
  next_ = (next_ + 1) % ring_.size();
  if (filled_ < ring_.size()) ++filled_;
  ++steps_recorded_;
}

void FlightRecorder::record_idle(std::int64_t t0, std::int64_t t1,
                                 bool link_idle) {
  const std::int64_t first =
      std::max(t0, t1 - static_cast<std::int64_t>(ring_.size()));
  steps_recorded_ += first - t0;
  for (std::int64_t t = first; t < t1; ++t) {
    record(StepRecord{.t = t, .link_idle = link_idle});
  }
}

void FlightRecorder::on_violation(std::int64_t t, std::string_view kind,
                                  std::int64_t magnitude) {
  if (!config_.trigger_on_violation) return;
  Json trigger = Json::object();
  trigger["type"] = "violation";
  trigger["t"] = t;
  trigger["kind"] = kind;
  trigger["magnitude"] = magnitude;
  capture(std::move(trigger));
}

std::vector<StepRecord> FlightRecorder::window() const {
  std::vector<StepRecord> out;
  out.reserve(filled_);
  // Oldest record first: when the ring is full the next write slot holds it.
  const std::size_t start = filled_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < filled_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

void FlightRecorder::capture(Json trigger) {
  ++triggers_total_;
  const std::int64_t t = trigger.find("t") != nullptr ? trigger.at("t").as_int()
                                                      : steps_recorded_;
  if (captured_any_ && t - last_capture_t_ < config_.cooldown) return;
  if (incidents_.size() >= config_.max_incidents) return;
  captured_any_ = true;
  last_capture_t_ = t;

  Json incident = Json::object();
  incident["schema"] = "rtsmooth-incident-v1";
  incident["incident"] = static_cast<std::int64_t>(incidents_.size());
  incident["trigger"] = std::move(trigger);
  incident["context"] = context_;
  incident["steps_recorded"] = steps_recorded_;
  incident["window_capacity"] = static_cast<std::int64_t>(config_.window);
  incident["truncated"] =
      steps_recorded_ > static_cast<std::int64_t>(config_.window);
  Json window_json = Json::array();
  for (const StepRecord& record : window()) {
    window_json.push_back(record.to_json());
  }
  incident["window"] = std::move(window_json);
  incidents_.push_back(std::move(incident));
}

void FlightRecorder::merge(const FlightRecorder& other) {
  for (const Json& incident : other.incidents_) {
    if (incidents_.size() >= config_.max_incidents) break;
    incidents_.push_back(incident);
  }
  steps_recorded_ += other.steps_recorded_;
  triggers_total_ += other.triggers_total_;
}

void FlightRecorder::write_incident(const Json& incident,
                                    const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("FlightRecorder: cannot open " + path);
  }
  incident.write(out);
  out << '\n';
  out.flush();
  if (!out) {
    throw std::runtime_error("FlightRecorder: write failed for " + path);
  }
}

}  // namespace rtsmooth::obs
