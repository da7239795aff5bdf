#include "tandem/tandem.h"

#include <algorithm>

#include "util/assert.h"

namespace rtsmooth::tandem {
namespace {

std::size_t type_index(FrameType t) { return static_cast<std::size_t>(t); }

}  // namespace

TandemSimulator::TandemSimulator(const Stream& stream,
                                 std::vector<HopConfig> hops,
                                 const DropPolicy& policy,
                                 Time smoothing_delay, Bytes client_buffer)
    : stream_(&stream) {
  RTS_EXPECTS(stream.unit_slices());
  RTS_EXPECTS(!hops.empty());
  Time default_delay = 0;
  for (const HopConfig& config : hops) {
    RTS_EXPECTS(config.buffer >= 1);
    RTS_EXPECTS(config.rate >= 1);
    RTS_EXPECTS(config.link_delay >= 0);
    default_delay += (config.buffer + config.rate - 1) / config.rate;
    hops_.push_back(Hop{.config = config,
                        .buffer = {},
                        .policy = policy.clone(),
                        .link = std::make_unique<FixedDelayLink>(
                            config.link_delay),
                        .dropped = {}});
  }
  smoothing_delay_ = smoothing_delay >= 0 ? smoothing_delay : default_delay;
  // By default give the client the end-to-end queueing budget D * R_last.
  client_buffer_ = client_buffer >= 1
                       ? client_buffer
                       : std::max<Bytes>(1, smoothing_delay_ *
                                                hops.back().rate);
}

TandemReport TandemSimulator::run() {
  RTS_EXPECTS(!ran_);
  ran_ = true;
  TandemReport report;
  report.smoothing_delay = smoothing_delay_;
  Time total_link_delay = 0;
  for (const Hop& hop : hops_) total_link_delay += hop.config.link_delay;
  report.playout_offset = total_link_delay + smoothing_delay_;

  Client client(stream_->run_count(), client_buffer_, report.playout_offset);
  SimReport& sim = report.end_to_end;
  // Per-hop drop accounting through the buffer observers, which also settle
  // the client's run ledger.
  for (Hop& hop : hops_) {
    Tally* tally = &hop.dropped;
    hop.buffer.set_drop_observer([tally, &client, &sim](const SliceRun& run,
                                                        std::size_t run_index,
                                                        std::int64_t slices) {
      tally->add(run.slice_size * slices,
                 run.weight * static_cast<Weight>(slices), slices);
      client.add_server_drop(run_index, slices, sim);
    });
  }
  ArrivalCursor cursor(*stream_);
  const Time horizon = stream_->horizon();
  const Time last_playout = horizon - 1 + report.playout_offset;
  Bytes min_rate = hops_.front().config.rate;
  for (const Hop& hop : hops_) min_rate = std::min(min_rate, hop.config.rate);
  const Time limit = last_playout + stream_->total_bytes() / min_rate +
                     static_cast<Time>(hops_.size()) + 16;

  auto hops_busy = [&] {
    for (const Hop& hop : hops_) {
      if (!hop.buffer.empty() || !hop.link->idle()) return true;
    }
    return false;
  };

  std::vector<SentPiece> pieces;
  for (Time t = 0; t <= last_playout || hops_busy(); ++t) {
    RTS_ASSERT(t <= limit);
    // Source into hop 0.
    const ArrivalBatch batch = cursor.step(t);
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      const SliceRun& run = batch.runs[i];
      client.admit(run, batch.first_index + i);
      hops_.front().buffer.push(run, batch.first_index + i, run.count);
      sim.offered.add(run.total_bytes(), run.total_weight(), run.count);
      sim.offered_by_type[type_index(run.frame_type)].add(
          run.total_bytes(), run.total_weight(), run.count);
    }
    // Each hop: drop per Eq. (3), send, forward downstream. Hops are
    // processed in path order, so zero-delay links still deliver in-step.
    for (std::size_t h = 0; h < hops_.size(); ++h) {
      Hop& hop = hops_[h];
      const Bytes planned = std::min(hop.config.rate, hop.buffer.occupancy());
      const Bytes target = hop.config.buffer + planned;
      if (hop.buffer.occupancy() > target) {
        hop.policy->shed(hop.buffer, target);
      }
      pieces.clear();
      hop.buffer.send(planned, pieces);
      hop.link->submit(t, pieces);
      const auto delivered = hop.link->deliver(t);
      if (h + 1 < hops_.size()) {
        Hop& next = hops_[h + 1];
        for (const SentPiece& piece : delivered) {
          // Unit slices: a piece of n bytes is n whole slices.
          next.buffer.push(*piece.run, piece.run_index, piece.bytes);
        }
      } else {
        client.deliver(t, delivered, sim, nullptr);
      }
      sim.max_server_occupancy =
          std::max(sim.max_server_occupancy, hop.buffer.occupancy());
    }
    client.play(t, sim, nullptr);
    sim.steps = t + 1;
  }
  // The loop drains every hop, so finalize() finds nothing owed.
  client.finalize(sim);
  for (Hop& hop : hops_) {
    report.hop_drops.push_back(hop.dropped);
    sim.dropped_server += hop.dropped;
    hop.buffer.set_drop_observer(nullptr);  // it refers to this run's client
  }
  RTS_ENSURES(sim.conserves());
  return report;
}

}  // namespace rtsmooth::tandem
