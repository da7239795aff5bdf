// Live broadcast: frames show up one slot at a time and nothing knows the
// stream in advance — the way an on-line system runs. No Stream is
// pre-registered with a simulator: each frame is handed to
// daemon::LiveEngine (the engine behind rtsmoothd, built from the same
// server, link and client the batch SmoothingSimulator wires up) on the step
// it is encoded, and the engine steps on until everything has drained.
// Prints a live "dashboard" every five seconds of stream time.
//
// Run:  ./examples/live_broadcast
// Exits 1 if the final report does not conserve bytes.

#include <cstdio>
#include <iostream>

#include "core/planner.h"
#include "daemon/live_engine.h"
#include "trace/stock_clips.h"
#include "util/stats.h"

int main() {
  using namespace rtsmooth;

  // A live feed: the encoder hands us 25 frames per second; we provision a
  // 1-second end-to-end smoothing delay and a link at 90% of the *expected*
  // rate (for live content the true average is unknown in advance).
  const std::size_t seconds = 40;
  const trace::FrameSequence frames =
      trace::stock_clip("action", 25 * seconds);

  const Bytes expected_rate = 36 * 1024;  // capacity bought from the carrier
  const Plan plan = Planner::from_delay_rate(/*delay=*/25, expected_rate);

  daemon::EngineConfig config;
  config.server_buffer = plan.buffer;
  config.client_buffer = plan.buffer;
  config.rate = plan.rate;
  config.smoothing_delay = plan.delay;
  config.link_delay = 3;  // 120 ms propagation
  config.policy = "greedy";
  daemon::LiveEngine engine(config);

  std::cout << "live feed: 25 fps, greedy dropping, R = "
            << format_bytes(static_cast<double>(plan.rate)) << "/frame, D = "
            << plan.delay << " frames, B = "
            << format_bytes(static_cast<double>(plan.buffer)) << "\n\n"
            << "  sec |  offered |   played | srv-buf%% | wloss%%\n"
            << "  ----+----------+----------+----------+-------\n";

  for (std::size_t t = 0; t < frames.size() || !engine.quiescent(); ++t) {
    if (t < frames.size()) {
      const daemon::IngestFrame frame{.type = frames[t].type,
                                      .size = frames[t].size};
      engine.step({&frame, 1});
    } else {
      engine.step({});
    }
    const SimReport& report = engine.report();
    if (t % (25 * 5) == 0 && t > 0) {
      std::printf("  %3lld | %7.1fMB | %7.1fMB | %7.1f%% | %5.2f%%\n",
                  static_cast<long long>(t / 25),
                  static_cast<double>(report.offered.bytes) / (1 << 20),
                  static_cast<double>(report.played.bytes) / (1 << 20),
                  100.0 * static_cast<double>(engine.server_occupancy()) /
                      static_cast<double>(plan.buffer),
                  100.0 * report.weighted_loss());
    }
  }

  const SimReport& report = engine.report();
  const bool conserves = report.conserves();
  std::cout << "\nfinal: " << report << "\n"
            << "conservation check: " << (conserves ? "ok" : "VIOLATED")
            << "\n";
  return conserves ? 0 : 1;
}
