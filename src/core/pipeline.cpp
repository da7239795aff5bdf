#include "core/pipeline.h"

#include <utility>

#include "util/assert.h"

namespace rtsmooth {
namespace {

Bytes piece_bytes(std::span<const SentPiece> pieces) {
  Bytes sum = 0;
  for (const SentPiece& piece : pieces) sum += piece.bytes;
  return sum;
}

}  // namespace

Pipeline::Pipeline(ServerConfig server, std::unique_ptr<DropPolicy> policy,
                   std::unique_ptr<Link> link, Client client)
    : server_(server, std::move(policy)),
      link_(std::move(link)),
      client_(std::move(client)) {
  RTS_EXPECTS(link_ != nullptr);
}

void Pipeline::begin(Time t, ScheduleRecorder* rec) {
  rec_ = rec;
  // Field by field, not a whole-struct reset: finish() sets every other
  // field, and the reset measurably slowed short steps.
  record_.t = t;
  record_.arrived = 0;
  played_before_ = report_.played.bytes;
  dropped_server_before_ = report_.dropped_server.bytes;
  dropped_client_before_ = client_.dropped_bytes_so_far();
  retransmitted_before_ = report_.retransmitted_bytes;
  stalls_before_ = client_.stall_steps();
  const auto nacks = link_->collect_nacks(t);
  server_.begin_step(t, nacks, report_, client_, rec);
}

void Pipeline::admit(const SliceRun& run, std::size_t run_index) {
  report_.add_offered(run);
  client_.admit(run, run_index);
  server_.admit(run, run_index, run.count);
  record_.arrived += run.total_bytes();
}

const obs::StepRecord& Pipeline::finish() {
  const Time t = record_.t;
  sent_.clear();
  server_.finish_step(sent_);
  record_.sent = piece_bytes(sent_);
  // The link keeps the vector it is given, so it gets a copy and sent()
  // stays readable. The copy goes into recycled storage (the larger of the
  // spare and last step's delivery); an empty send is not submitted, which
  // would surrender the spare for nothing.
  if (spare_.capacity() < delivered_.capacity()) spare_.swap(delivered_);
  if (!sent_.empty()) {
    spare_.assign(sent_.begin(), sent_.end());
    link_->submit(t, std::move(spare_));
  }
  delivered_ = link_->deliver(t);
  record_.delivered = piece_bytes(delivered_);
  client_.deliver(t, delivered_, report_, rec_);
  client_.play(t, report_, rec_);
  record_.played = report_.played.bytes - played_before_;
  record_.dropped_server =
      report_.dropped_server.bytes - dropped_server_before_;
  record_.dropped_client =
      client_.dropped_bytes_so_far() - dropped_client_before_;
  record_.retransmitted = report_.retransmitted_bytes - retransmitted_before_;
  record_.server_occupancy = server_.buffer().occupancy();
  record_.client_occupancy = client_.occupancy();
  record_.link_idle = link_->idle();
  record_.stalled = client_.stall_steps() > stalls_before_;
  rec_ = nullptr;
  return record_;
}

void Pipeline::skip(Time t0, Time t1) {
  RTS_EXPECTS(t0 < t1);
  link_->advance_to(t1 - 1);
  server_.record_idle_steps(t1 - t0);
  client_.record_idle_steps(t1 - t0);
}

}  // namespace rtsmooth
