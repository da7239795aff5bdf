#include "core/schedule.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth {

RunOutcome& ScheduleRecorder::run(std::size_t run_index) {
  RTS_EXPECTS(run_index < runs_.size());
  return runs_[run_index];
}

const RunOutcome& ScheduleRecorder::run(std::size_t run_index) const {
  RTS_EXPECTS(run_index < runs_.size());
  return runs_[run_index];
}

void ScheduleRecorder::note_send(std::size_t run_index, Time t, Bytes bytes) {
  RTS_EXPECTS(bytes > 0);
  RunOutcome& out = run(run_index);
  if (out.first_send == kNever) out.first_send = t;
  out.last_send = (out.last_send == kNever) ? t : std::max(out.last_send, t);
}

void ScheduleRecorder::note_receive(std::size_t run_index, Time t,
                                    Bytes bytes) {
  RTS_EXPECTS(bytes > 0);
  RunOutcome& out = run(run_index);
  if (out.first_receive == kNever) out.first_receive = t;
  out.last_receive =
      (out.last_receive == kNever) ? t : std::max(out.last_receive, t);
}

}  // namespace rtsmooth
