// Structured event tracer: one JSON object per line (JSONL), flushed on
// close. The simulator emits `config` / `step` / `violation` / `run` events
// through this — the step event carries the per-step sets A(t), S(t), R(t),
// P(t), D(t) as byte counts and both buffer occupancies — and anything else
// holding a Telemetry handle may append its own event kinds.

#pragma once

#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>

#include "obs/json.h"

namespace rtsmooth::obs {

/// Not thread-safe: one writer per run, like the Registry.
class TraceWriter {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened — a silently empty trace would be worse.
  explicit TraceWriter(const std::string& path);
  /// Writes to a caller-owned stream (golden tests trace into a
  /// std::ostringstream). The stream must outlive the writer.
  explicit TraceWriter(std::ostream& out);

  /// Appends one event as a single line. Throws std::runtime_error (naming
  /// the path when one is known) if the underlying stream reports failure —
  /// a trace truncated by a full disk must not pass silently.
  void write(const Json& event);

  std::int64_t events() const { return events_; }

 private:
  std::ofstream file_;   ///< backing storage for the path constructor
  std::ostream* out_;    ///< the stream actually written to
  std::string path_;     ///< for error messages; empty for stream writers
  std::int64_t events_ = 0;
};

}  // namespace rtsmooth::obs
