#include "alternatives/strategies.h"

#include <algorithm>

#include "core/server_buffer.h"
#include "policies/tail_drop.h"
#include "sim/simulator.h"
#include "util/assert.h"

namespace rtsmooth::alternatives {
namespace {

/// Per-slot offered bytes, indexed by arrival step.
std::vector<Bytes> per_slot_bytes(const Stream& stream) {
  std::vector<Bytes> slots(static_cast<std::size_t>(stream.horizon()), 0);
  for (const SliceRun& run : stream.runs()) {
    slots[static_cast<std::size_t>(run.arrival)] += run.total_bytes();
  }
  return slots;
}

}  // namespace

StrategyOutcome evaluate_peak_provision(const Stream& stream) {
  StrategyOutcome out{.name = "peak-provision"};
  out.reserved_peak = static_cast<double>(stream.max_frame_bytes());
  out.reserved_average = out.reserved_peak;
  out.delivered_fraction = 1.0;
  out.benefit_fraction = 1.0;
  return out;
}

StrategyOutcome evaluate_truncation(const Stream& stream, Bytes rate) {
  RTS_EXPECTS(rate >= stream.max_slice_size());
  // A one-slot buffer: data either leaves in its own slot or is dropped.
  const Plan plan = Planner::from_delay_rate(1, rate);
  const SimReport report = sim::simulate(stream, plan, "tail-drop");
  StrategyOutcome out{.name = "truncate"};
  out.reserved_peak = static_cast<double>(rate);
  out.reserved_average = out.reserved_peak;
  out.delivered_fraction = 1.0 - report.byte_loss();
  out.benefit_fraction = report.benefit_fraction();
  out.added_delay = plan.delay;
  out.buffer_bytes = plan.buffer;
  return out;
}

StrategyOutcome evaluate_smoothing(const Stream& stream, Bytes rate,
                                   Time delay, std::string_view policy) {
  const Plan plan = Planner::from_delay_rate(delay, rate);
  RTS_EXPECTS(plan.buffer >= stream.max_slice_size());
  const SimReport report = sim::simulate(stream, plan, policy);
  StrategyOutcome out{.name = "smoothing/" + std::string(policy)};
  out.reserved_peak = static_cast<double>(rate);
  out.reserved_average = out.reserved_peak;
  out.delivered_fraction = 1.0 - report.byte_loss();
  out.benefit_fraction = report.benefit_fraction();
  out.added_delay = delay;
  out.buffer_bytes = plan.buffer;
  return out;
}

StrategyOutcome evaluate_renegotiated_cbr(const Stream& stream,
                                          const RenegotiationConfig& config) {
  RTS_EXPECTS(config.window >= 1);
  RTS_EXPECTS(config.headroom > 0.0);
  RTS_EXPECTS(config.buffer >= stream.max_slice_size());
  RTS_EXPECTS(config.floor_rate >= 1);
  const std::vector<Bytes> slots = per_slot_bytes(stream);

  // Server-side simulation with a piecewise-constant rate. Drops follow the
  // generic rule (Eq. (3)) with Tail-Drop victims.
  ServerBuffer buffer;
  TailDropPolicy policy;
  Bytes delivered = 0;
  Weight benefit = 0.0;
  std::vector<SentPiece> pieces;

  StrategyOutcome out{.name = "renegotiated-cbr"};
  Bytes rate = config.floor_rate;
  double committed = 0.0;
  Bytes window_bytes = 0;
  ArrivalCursor cursor(stream);
  const Time horizon = stream.horizon();
  const Time drain = horizon + stream.total_bytes() / config.floor_rate + 1;
  for (Time t = 0; t < drain; ++t) {
    if (t % config.window == 0 && t > 0) {
      const auto mean = static_cast<double>(window_bytes) /
                        static_cast<double>(config.window);
      const auto requested = std::max(
          config.floor_rate,
          static_cast<Bytes>(mean * config.headroom));
      if (requested != rate) {
        rate = requested;
        ++out.renegotiations;
      }
      window_bytes = 0;
    }
    const ArrivalBatch batch = cursor.step(t);
    for (std::size_t i = 0; i < batch.runs.size(); ++i) {
      const SliceRun& run = batch.runs[i];
      buffer.push(run, batch.first_index + i, run.count);
      window_bytes += run.total_bytes();
    }
    const Bytes planned = std::min(rate, buffer.occupancy());
    const Bytes target = config.buffer + planned;
    if (buffer.occupancy() > target) {
      policy.shed(buffer, target);
      buffer.clear_drop_log();  // losses count as undelivered bytes here
    }
    pieces.clear();
    buffer.send(planned, pieces);
    for (const SentPiece& piece : pieces) {
      delivered += piece.bytes;
      benefit += piece.run->byte_value() * static_cast<double>(piece.bytes);
    }
    committed += static_cast<double>(rate);
    out.reserved_peak = std::max(out.reserved_peak, static_cast<double>(rate));
    if (t >= horizon && buffer.empty()) {
      committed -= static_cast<double>(rate);  // nothing was reserved here
      out.reserved_average = committed / static_cast<double>(t);
      break;
    }
  }
  if (out.reserved_average == 0.0) {
    out.reserved_average = committed / static_cast<double>(drain);
  }
  out.delivered_fraction = static_cast<double>(delivered) /
                           static_cast<double>(stream.total_bytes());
  out.benefit_fraction = benefit / stream.total_weight();
  out.added_delay = config.window;  // client must ride out a window
  out.buffer_bytes = config.buffer;
  return out;
}

Stream merge_streams(std::span<const Stream> streams) {
  std::vector<SliceRun> runs;
  std::size_t total = 0;
  for (const Stream& s : streams) total += s.run_count();
  runs.reserve(total);
  for (const Stream& s : streams) {
    runs.insert(runs.end(), s.runs().begin(), s.runs().end());
  }
  return Stream::from_runs(std::move(runs));
}

Bytes min_rate_for_loss(const Stream& stream, Time delay, double loss_budget,
                        std::string_view policy) {
  RTS_EXPECTS(loss_budget >= 0.0 && loss_budget < 1.0);
  auto loss_at = [&](Bytes rate) {
    const Plan plan = Planner::from_delay_rate(delay, rate);
    if (plan.buffer < stream.max_slice_size()) return 1.0;
    return sim::simulate(stream, plan, policy).weighted_loss();
  };
  Bytes lo = 1;
  Bytes hi = std::max<Bytes>(stream.max_frame_bytes(), 1);
  while (loss_at(hi) > loss_budget) hi *= 2;  // degenerate tiny streams
  while (lo < hi) {
    const Bytes mid = lo + (hi - lo) / 2;
    if (loss_at(mid) <= loss_budget) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return hi;
}

}  // namespace rtsmooth::alternatives
