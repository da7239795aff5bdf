// Seeded random stream/config generator shared by the differential
// equivalence suite (test_equivalence.cpp) and the property-fuzz suite
// (test_property.cpp).
//
// Everything is a pure function of the seed, so a failing test can print a
// self-contained reproducer: the seed plus the expanded SliceRuns and
// SimConfig (describe_instance). The shapes are chosen to exercise the
// structures the optimized core replaced — small buffers that shed every
// step, slice sizes from unit to multi-KB (head_sent arithmetic), arrival
// gaps (ring drain/refill), ties in arrival time (multi-run batches), and
// configs that cross into the faulty regime (stalls, retransmissions).

#pragma once

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/slice.h"
#include "core/types.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace rtsmooth::testgen {

/// Random stream: 1..60 frames, 0-2 step gaps between arrivals, sometimes
/// several runs sharing one arrival step, mixed slice granularities.
inline Stream random_stream(Rng& rng) {
  const std::int64_t frames = rng.uniform_int(1, 60);
  std::vector<SliceRun> runs;
  Time arrival = rng.uniform_int(0, 3);
  for (std::int64_t f = 0; f < frames; ++f) {
    const std::int64_t runs_this_step = rng.bernoulli(0.2) ? 2 : 1;
    for (std::int64_t r = 0; r < runs_this_step; ++r) {
      SliceRun run;
      run.arrival = arrival;
      // Mostly unit slices (the paper's Sect. 3.2 model and the hot-path
      // fast case), sometimes coarse ones to exercise head_sent splits.
      run.slice_size = rng.bernoulli(0.6) ? 1 : rng.uniform_int(2, 700);
      run.count = rng.uniform_int(1, run.slice_size == 1 ? 4000 : 12);
      run.weight = rng.bernoulli(0.3)
                       ? 0.0
                       : static_cast<Weight>(rng.uniform_int(1, 8));
      run.frame_type = static_cast<FrameType>(rng.uniform_int(0, 3));
      run.frame_index = f;
      runs.push_back(run);
    }
    arrival += rng.uniform_int(1, 3);
  }
  return Stream::from_runs(std::move(runs));
}

/// Random configuration valid for `stream` (SimConfig::validate passes):
/// buffers from "sheds every step" up to "never sheds", delays 0..4,
/// occasionally timer-mode playout or the Stall underflow policy.
inline sim::SimConfig random_config(Rng& rng, const Stream& stream) {
  sim::SimConfig config;
  const Bytes lmax = stream.max_slice_size();
  const Bytes frame = std::max<Bytes>(stream.max_frame_bytes(), 1);
  config.server_buffer = lmax + rng.uniform_int(0, 2 * frame);
  config.client_buffer = 1 + rng.uniform_int(0, 3 * frame);
  config.rate = 1 + rng.uniform_int(0, frame + frame / 2);
  config.smoothing_delay = rng.uniform_int(0, 4);
  config.link_delay = rng.uniform_int(0, 4);
  config.playout = rng.bernoulli(0.25) ? PlayoutMode::TimerFromFirstDelivery
                                       : PlayoutMode::ArrivalPlusOffset;
  if (config.playout == PlayoutMode::TimerFromFirstDelivery &&
      config.smoothing_delay < 0) {
    config.smoothing_delay = 0;
  }
  config.underflow = rng.bernoulli(0.3) ? UnderflowPolicy::Stall
                                        : UnderflowPolicy::Skip;
  config.max_stall = rng.uniform_int(0, 8);
  if (rng.bernoulli(0.4)) {
    config.recovery.enabled = true;
    config.recovery.max_retries =
        static_cast<std::int32_t>(rng.uniform_int(0, 4));
    config.recovery.backoff_base = rng.uniform_int(1, 2);
  }
  return config;
}

// ---------------------------------------------------------------------------
// Corner-case instances. The uniform generator above rarely hits the exact
// boundaries the simulator's skip logic pivots on, so the fuzz
// suites mix in targeted shapes: each Corner is a (stream, config) family
// that pins one boundary. Like the uniform generator, everything is a pure
// function of the seed.
// ---------------------------------------------------------------------------

enum class Corner {
  /// Sparse bursts where some bursts contain zero frames: the burst loop
  /// still advances the clock, so two quiescent spans abut and the
  /// simulator must absorb them as one without consuming extra RNG draws.
  ZeroLengthBursts,
  /// Playout offset P + D == 1, so the last deadline lands exactly on
  /// stream.horizon() — the next playout step and the end of the playout
  /// range coincide, and the final span must stop there.
  DeadlineEqualsHorizon,
  /// One run, one slice: the smallest schedule with a non-empty drain, so
  /// every next-event source (arrival, link, playout, exit) fires once.
  SingleSliceStream,
  /// R set to the stream's peak one-step arrival volume: the server can
  /// always clear a step's arrivals in that same step, so the buffer
  /// oscillates between full and empty and quiescent spans start exactly
  /// one step after each burst.
  RateEqualsPeak,
};

inline constexpr Corner kAllCorners[] = {
    Corner::ZeroLengthBursts, Corner::DeadlineEqualsHorizon,
    Corner::SingleSliceStream, Corner::RateEqualsPeak};

inline const char* corner_name(Corner corner) {
  switch (corner) {
    case Corner::ZeroLengthBursts: return "zero-length-bursts";
    case Corner::DeadlineEqualsHorizon: return "deadline-equals-horizon";
    case Corner::SingleSliceStream: return "single-slice-stream";
    case Corner::RateEqualsPeak: return "rate-equals-peak";
  }
  return "unknown";
}

/// Largest one-step arrival volume — the stream's peak rate.
inline Bytes peak_step_bytes(const Stream& stream) {
  Bytes peak = 1;
  Bytes step_total = 0;
  Time at = kNever;
  for (const SliceRun& run : stream.runs()) {
    if (run.arrival != at) {
      at = run.arrival;
      step_total = 0;
    }
    step_total += run.total_bytes();
    peak = std::max(peak, step_total);
  }
  return peak;
}

inline Stream corner_stream(Rng& rng, Corner corner) {
  switch (corner) {
    case Corner::ZeroLengthBursts: {
      std::vector<SliceRun> runs;
      Time arrival = rng.uniform_int(0, 2);
      const std::int64_t bursts = rng.uniform_int(2, 6);
      std::int64_t frame = 0;
      for (std::int64_t b = 0; b < bursts; ++b) {
        const std::int64_t length = rng.uniform_int(0, 3);  // 0: empty burst
        for (std::int64_t f = 0; f < length; ++f) {
          SliceRun run;
          run.arrival = arrival;
          run.slice_size = rng.bernoulli(0.5) ? 1 : rng.uniform_int(2, 64);
          run.count = rng.uniform_int(1, run.slice_size == 1 ? 64 : 4);
          run.weight = static_cast<Weight>(rng.uniform_int(0, 4));
          run.frame_type = static_cast<FrameType>(rng.uniform_int(0, 3));
          run.frame_index = frame++;
          runs.push_back(run);
          // Zero-gap pile-ups inside a burst, one-step spacing otherwise.
          arrival += rng.bernoulli(0.4) ? 0 : 1;
        }
        arrival += rng.uniform_int(20, 60);  // long quiescent span
      }
      if (runs.empty()) {
        // Every burst came up empty; keep the stream legal with one slice.
        SliceRun run;
        run.arrival = arrival;
        run.weight = 1.0;
        runs.push_back(run);
      }
      return Stream::from_runs(std::move(runs));
    }
    case Corner::DeadlineEqualsHorizon:
    case Corner::RateEqualsPeak:
      return random_stream(rng);
    case Corner::SingleSliceStream: {
      SliceRun run;
      run.arrival = rng.uniform_int(0, 5);
      run.slice_size = rng.bernoulli(0.5) ? 1 : rng.uniform_int(2, 700);
      run.count = 1;
      run.weight = static_cast<Weight>(rng.uniform_int(0, 8));
      run.frame_type = static_cast<FrameType>(rng.uniform_int(0, 3));
      return Stream::from_runs({run});
    }
  }
  return random_stream(rng);
}

inline sim::SimConfig corner_config(Rng& rng, const Stream& stream,
                                    Corner corner) {
  sim::SimConfig config = random_config(rng, stream);
  switch (corner) {
    case Corner::ZeroLengthBursts:
    case Corner::SingleSliceStream:
      break;
    case Corner::DeadlineEqualsHorizon:
      // Offset P + D = 1 puts the last playout exactly at stream.horizon().
      config.smoothing_delay = rng.bernoulli(0.5) ? 1 : 0;
      config.link_delay = 1 - config.smoothing_delay;
      break;
    case Corner::RateEqualsPeak:
      config.rate = peak_step_bytes(stream);
      break;
  }
  return config;
}

/// Self-contained reproducer: everything needed to rebuild the instance
/// without rerunning the generator.
inline std::string describe_instance(std::uint64_t seed, const Stream& stream,
                                     const sim::SimConfig& config) {
  std::ostringstream out;
  out << "seed=" << seed << "\n";
  out << "SimConfig{server_buffer=" << config.server_buffer
      << ", client_buffer=" << config.client_buffer
      << ", rate=" << config.rate
      << ", smoothing_delay=" << config.smoothing_delay
      << ", link_delay=" << config.link_delay << ", playout="
      << (config.playout == PlayoutMode::ArrivalPlusOffset ? "offset"
                                                           : "timer")
      << ", underflow="
      << (config.underflow == UnderflowPolicy::Skip ? "skip" : "stall")
      << ", max_stall=" << config.max_stall
      << ", recovery={enabled=" << config.recovery.enabled
      << ", max_retries=" << config.recovery.max_retries
      << ", backoff_base=" << config.recovery.backoff_base << "}}\n";
  out << "runs[" << stream.run_count() << "]:\n";
  for (const SliceRun& run : stream.runs()) {
    out << "  {arrival=" << run.arrival << ", slice_size=" << run.slice_size
        << ", count=" << run.count << ", weight=" << run.weight
        << ", frame_type=" << static_cast<int>(run.frame_type)
        << ", frame_index=" << run.frame_index << "}\n";
  }
  return std::move(out).str();
}

}  // namespace rtsmooth::testgen
