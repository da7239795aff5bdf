#include "tandem/tandem.h"

#include <algorithm>

#include "core/client.h"
#include "util/assert.h"

namespace rtsmooth::tandem {

TandemSimulator::TandemSimulator(const Stream& stream,
                                 std::vector<HopConfig> hops,
                                 const DropPolicy& policy,
                                 Time smoothing_delay, Bytes client_buffer)
    : stream_(&stream) {
  RTS_EXPECTS(stream.unit_slices());
  RTS_EXPECTS(!hops.empty());
  Time default_delay = 0;
  for (const HopConfig& config : hops) {
    // The server checks B_i, R_i >= 1 and the link P_i >= 0.
    hops_.push_back(Hop{
        .server = SmoothingServer(
            ServerConfig{.buffer = config.buffer, .rate = config.rate},
            policy.clone()),
        .link = std::make_unique<FixedDelayLink>(config.link_delay)});
    default_delay += (config.buffer + config.rate - 1) / config.rate;
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
  report.playout_offset = smoothing_delay_;
  Bytes min_rate = hops_.front().server.config().rate;
  for (const Hop& hop : hops_) {
    report.playout_offset += hop.link->min_delay();
    min_rate = std::min(min_rate, hop.server.config().rate);
  }

  Client client(stream_->run_count(), client_buffer_, report.playout_offset);
  SimReport& sim = report.end_to_end;
  ArrivalCursor cursor(*stream_);
  const Time last_playout = stream_->horizon() - 1 + report.playout_offset;
  const Time limit = last_playout + stream_->total_bytes() / min_rate +
                     static_cast<Time>(hops_.size()) + 16;

  auto busy = [&] {
    if (client.occupancy() > 0) return true;
    for (const Hop& hop : hops_) {
      if (!hop.server.idle() || !hop.link->idle()) return true;
    }
    return false;
  };

  std::vector<SentPiece> sent;
  std::vector<SentPiece> delivered;
  for (Time t = 0; t <= last_playout || busy(); ++t) {
    RTS_ASSERT(t <= limit);
    // Hops run in path order, so zero-delay links forward in-step. The
    // source feeds hop 0; each later hop takes what the previous hop's link
    // delivered (unit slices: a piece of n bytes is n whole slices).
    for (std::size_t h = 0; h < hops_.size(); ++h) {
      Hop& hop = hops_[h];
      hop.server.begin_step(t, hop.link->collect_nacks(t), sim, client,
                            nullptr);
      if (h == 0) {
        const ArrivalBatch batch = cursor.step(t);
        for (std::size_t i = 0; i < batch.runs.size(); ++i) {
          const SliceRun& run = batch.runs[i];
          sim.add_offered(run);
          client.admit(run, batch.first_index + i);
          hop.server.admit(run, batch.first_index + i, run.count);
        }
      } else {
        for (const SentPiece& piece : delivered) {
          hop.server.admit(*piece.run, piece.run_index, piece.bytes);
        }
      }
      sent.clear();
      hop.server.finish_step(sent);
      hop.link->submit(t, sent);
      delivered = hop.link->deliver(t);
    }
    client.deliver(t, delivered, sim, nullptr);
    client.play(t, sim, nullptr);
    sim.steps = t + 1;
  }
  // The loop drains every hop, so finalize() finds nothing owed.
  client.finalize(sim);
  for (const Hop& hop : hops_) report.hop_drops.push_back(hop.server.dropped());
  RTS_ENSURES(sim.conserves());
  return report;
}

}  // namespace rtsmooth::tandem
