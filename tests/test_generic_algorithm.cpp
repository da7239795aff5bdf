// Unit tests for the generic server algorithm: Eq. (2) work-conserving
// sends, Eq. (3) overflow drops, FIFO order, Lemma 3.2's occupancy and
// sojourn bounds.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/generic_algorithm.h"
#include "core/pipeline.h"
#include "obs/telemetry.h"
#include "policies/policy_factory.h"
#include "policies/proactive_threshold.h"
#include "policies/tail_drop.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

/// The server under test inside the shared step (core/pipeline.h), as the
/// simulator runs it: a one-step lossless link and an unbounded client
/// whose playout lies past every test's horizon, so the client only keeps
/// the per-run ledger the server books its drops into.
struct ServerRig {
  ServerRig(const Stream& s, ServerConfig config,
            std::unique_ptr<DropPolicy> policy)
      : cursor(s),
        pipe(config, std::move(policy), std::make_unique<FixedDelayLink>(1),
             Client(s.run_count(), Client::kUnbounded,
                    /*playout_offset=*/1000)) {}

  const SmoothingServer& server() const { return pipe.server(); }
  const SimReport& report() const { return pipe.report(); }

  ArrivalCursor cursor;
  Pipeline pipe;
};

/// Runs step t and returns the pieces the server sent (valid until the
/// next step).
std::span<const SentPiece> run_step(ServerRig& rig, Time t,
                                    ScheduleRecorder* rec = nullptr) {
  rig.pipe.begin(t, rec);
  const ArrivalBatch batch = rig.cursor.step(t);
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    rig.pipe.admit(batch.runs[i], batch.first_index + i);
  }
  rig.pipe.finish();
  return rig.pipe.sent();
}

TEST(GenericAlgorithm, SendsAtFullRateWhileBacklogged) {
  const Stream s = stream_of({units(0, 10)});
  ServerRig rig(s, ServerConfig{.buffer = 10, .rate = 3},
                std::make_unique<TailDropPolicy>());
  Bytes sent_total = 0;
  for (Time t = 0; t < 4; ++t) {
    const std::span<const SentPiece> pieces = run_step(rig, t);
    Bytes sent = 0;
    for (const auto& piece : pieces) sent += piece.bytes;
    sent_total += sent;
    EXPECT_EQ(sent, t < 3 ? 3 : 1);  // 3,3,3 then the last byte
  }
  EXPECT_EQ(sent_total, 10);
  EXPECT_TRUE(rig.server().buffer().empty());
  EXPECT_EQ(rig.report().dropped_server.bytes, 0);
}

TEST(GenericAlgorithm, Equation2UsesPreDropOccupancy) {
  // Arrival of 12 with B=4, R=2: S = min(2, 12) = 2, D = 12 - 2 - 4 = 6.
  const Stream s = stream_of({units(0, 12)});
  ServerRig rig(s, ServerConfig{.buffer = 4, .rate = 2},
                std::make_unique<TailDropPolicy>());
  const auto pieces = run_step(rig, 0);
  Bytes sent = 0;
  for (const auto& piece : pieces) sent += piece.bytes;
  EXPECT_EQ(sent, 2);
  EXPECT_EQ(rig.report().dropped_server.bytes, 6);
  EXPECT_EQ(rig.server().buffer().occupancy(), 4);
}

TEST(GenericAlgorithm, NoDropWithoutOverflow) {
  const Stream s = stream_of({units(0, 5), units(1, 5)});
  ServerRig rig(s, ServerConfig{.buffer = 8, .rate = 1},
                std::make_unique<TailDropPolicy>());
  run_step(rig, 0);  // 5 arrive, 1 sent, 4 left
  run_step(rig, 1);  // 9 pre-drop, 1 sent, 8 kept
  EXPECT_EQ(rig.report().dropped_server.bytes, 0);
  EXPECT_EQ(rig.server().buffer().occupancy(), 8);
}

TEST(GenericAlgorithm, OccupancyNeverExceedsB) {
  // Lemma 3.2 part 1: |Bs(t)| <= B under any arrivals.
  const Stream s = stream_of({units(0, 20), units(1, 15), units(3, 30)});
  ServerRig rig(s, ServerConfig{.buffer = 7, .rate = 2},
                std::make_unique<TailDropPolicy>());
  for (Time t = 0; t < 12; ++t) {
    run_step(rig, t);
    EXPECT_LE(rig.server().buffer().occupancy(), 7);
  }
  EXPECT_EQ(rig.report().max_server_occupancy, 7);
}

TEST(GenericAlgorithm, SojournBoundedByBOverR) {
  // Lemma 3.2 part 2: a byte transmitted leaves within B/R steps of arrival.
  const Stream s = stream_of({units(0, 12), units(2, 6), units(5, 9)});
  const Bytes b = 6;
  const Bytes r = 2;
  ServerRig rig(s, ServerConfig{.buffer = b, .rate = r},
                std::make_unique<TailDropPolicy>());
  ScheduleRecorder rec(s.run_count());
  for (Time t = 0; t < 20; ++t) run_step(rig, t, &rec);
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    const RunOutcome& out = rec.run(i);
    if (out.last_send == kNever) continue;
    EXPECT_LE(out.last_send, s.runs()[i].arrival + b / r);
  }
}

TEST(GenericAlgorithm, FifoOrderAcrossRuns) {
  const Stream s = stream_of({units(0, 3), units(1, 3), units(2, 3)});
  ServerRig rig(s, ServerConfig{.buffer = 16, .rate = 2},
                std::make_unique<TailDropPolicy>());
  std::vector<std::size_t> order;
  for (Time t = 0; t < 8; ++t) {
    for (const auto& piece : run_step(rig, t)) {
      order.push_back(piece.run_index);
    }
  }
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(GenericAlgorithm, DropCountIsPolicyIndependentForUnitSlices) {
  // The Eq. (3) drop *count* does not depend on which slices the policy
  // picks (unit slices) — the crux of Theorem 3.5's genericity.
  const Stream s = stream_of({units(0, 9, 1.0), units(1, 9, 5.0),
                              units(2, 9, 2.0), units(4, 9, 9.0)});
  std::vector<Bytes> dropped;
  for (const auto& name : known_policies()) {
    ServerRig rig(s, ServerConfig{.buffer = 5, .rate = 2}, make_policy(name));
    for (Time t = 0; t < 25; ++t) run_step(rig, t);
    dropped.push_back(rig.report().dropped_server.bytes);
  }
  for (std::size_t i = 1; i < dropped.size(); ++i) {
    // The proactive policy may legitimately drop *more* (it drops early);
    // every pure-overflow policy must lose exactly the same byte count.
    if (known_policies()[i] == "proactive") continue;
    EXPECT_EQ(dropped[i], dropped[0]) << known_policies()[i];
  }
}

TEST(GenericAlgorithm, EarlyDropsAreAccountedToTheReport) {
  // The proactive policy drops before arrivals; those drops must flow
  // through the same drop-log accounting as overflow drops.
  const Stream s = stream_of({units(0, 8, 1.0), units(1, 2, 9.0)});
  auto policy = std::make_unique<ProactiveThresholdPolicy>(
      ProactiveConfig{.watermark = 0.25, .value_floor = 2.0});
  ServerRig rig(s, ServerConfig{.buffer = 8, .rate = 1}, std::move(policy));
  ScheduleRecorder rec(s.run_count());
  // Step 0: 8 cheap arrive, no early state yet; 1 sent, 7 held (no
  // overflow: 8 <= B + s). Step 1: early drop fires first (7 > 2 = 0.25*8),
  // shedding 5 cheap slices down to the watermark.
  run_step(rig, 0, &rec);
  EXPECT_EQ(rig.report().dropped_server.bytes, 0);
  run_step(rig, 1, &rec);
  EXPECT_EQ(rig.report().dropped_server.bytes, 5);
  EXPECT_DOUBLE_EQ(rig.report().dropped_server.weight, 5.0);
  EXPECT_EQ(rec.run(0).dropped_server, 5);
  EXPECT_EQ(rec.run(1).dropped_server, 0);  // the dear slices survive
}

TEST(GenericAlgorithm, ShedTimerIsSampledAndChangesNoResult) {
  // Three unit slices arrive per step into B = 1 at R = 1: every arrival
  // step sheds (3 - 1 - 1 on the first, 1 + 3 - 1 - 1 after), so a stream
  // of n runs sheds exactly n times. Every shed is counted; one in
  // kDropTimerPeriod is timed, the first always.
  constexpr std::int64_t period = SmoothingServer::kDropTimerPeriod;
  for (const std::int64_t n : {std::int64_t{1}, period, period + 1,
                               std::int64_t{130}, std::int64_t{200}}) {
    std::vector<SliceRun> runs;
    for (Time t = 0; t < n; ++t) runs.push_back(units(t, 3));
    const Stream s = stream_of(std::move(runs));
    const ServerConfig config{.buffer = 1, .rate = 1};
    ServerRig plain(s, config, std::make_unique<TailDropPolicy>());
    ServerRig timed(s, config, std::make_unique<TailDropPolicy>());
    obs::Registry reg;
    timed.pipe.server().set_telemetry(obs::Telemetry{.registry = &reg});
    for (Time t = 0; t <= n + 2; ++t) {
      run_step(plain, t);
      run_step(timed, t);
    }
    EXPECT_EQ(timed.report(), plain.report()) << "n = " << n;
    EXPECT_EQ(timed.report().dropped_server.bytes, 2 * n - 1);
    EXPECT_EQ(reg.counter("server.shed_events").value(), n);
    ASSERT_EQ(reg.timers().count("policy.drop"), 1u) << "n = " << n;
    EXPECT_EQ(reg.timers().at("policy.drop").count(),
              (n + period - 1) / period)
        << "n = " << n;
  }
}

TEST(GenericAlgorithm, RunWithoutShedsHasNoDropTimer) {
  // The timer is resolved on the first shed, so a run that never sheds
  // keeps the timer section without it (and the counter at 0).
  const Stream s = stream_of({units(0, 4), units(3, 2)});
  ServerRig rig(s, ServerConfig{.buffer = 10, .rate = 2},
                std::make_unique<TailDropPolicy>());
  obs::Registry reg;
  rig.pipe.server().set_telemetry(obs::Telemetry{.registry = &reg});
  for (Time t = 0; t < 8; ++t) run_step(rig, t);
  EXPECT_EQ(rig.report().dropped_server.bytes, 0);
  EXPECT_EQ(reg.counter("server.shed_events").value(), 0);
  EXPECT_EQ(reg.timers().count("policy.drop"), 0u);
}

TEST(GenericAlgorithm, MovedServerBooksItsDrops) {
  // A server is a plain value: moved (here by std::vector growth), it still
  // books its sheds into the step's report, its own tally and the client
  // ledger, as a tandem's hops rely on.
  const Stream s = stream_of({units(0, 6)});
  const SliceRun& run = s.runs()[0];
  std::vector<SmoothingServer> servers;
  servers.reserve(1);
  servers.emplace_back(ServerConfig{.buffer = 2, .rate = 1},
                       std::make_unique<TailDropPolicy>());
  servers.emplace_back(ServerConfig{.buffer = 2, .rate = 1},
                       std::make_unique<TailDropPolicy>());  // moves [0]
  SmoothingServer& server = servers.front();
  Client client(s.run_count(), Client::kUnbounded, /*playout_offset=*/3);
  SimReport report;
  // Step 0: 6 arrive, S = 1, D = 6 - 1 - 2 = 3. Steps 1-2 send the rest
  // over a zero-delay hand-off, and frame 0 plays at step 3.
  for (Time t = 0; t <= 3; ++t) {
    server.begin_step(t, {}, report, client, nullptr);
    if (t == 0) {
      report.add_offered(run);
      client.admit(run, 0);
      server.admit(run, 0, run.count);
    }
    std::vector<SentPiece> sent;
    server.finish_step(sent);
    client.deliver(t, sent, report, nullptr);
    client.play(t, report, nullptr);
  }
  EXPECT_EQ(report.dropped_server.bytes, 3);
  EXPECT_EQ(server.dropped(), report.dropped_server);
  EXPECT_EQ(report.played.bytes, 3);
  // The run retired at its playout step: the ledger holds the 3 dropped
  // bytes as terminal, so nothing is left owing.
  EXPECT_EQ(client.live_runs(), 0);
  client.finalize(report);
  EXPECT_EQ(report.residual.bytes, 0);
  EXPECT_TRUE(report.conserves());
}

}  // namespace
}  // namespace rtsmooth
