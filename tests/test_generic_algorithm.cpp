// Unit tests for the generic server algorithm: Eq. (2) work-conserving
// sends, Eq. (3) overflow drops, FIFO order, Lemma 3.2's occupancy and
// sojourn bounds.

#include <gtest/gtest.h>

#include "core/generic_algorithm.h"
#include "policies/policy_factory.h"
#include "policies/proactive_threshold.h"
#include "policies/tail_drop.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

std::vector<SentPiece> run_step(SmoothingServer& server, Time t,
                                const Stream& stream, ArrivalCursor& cursor,
                                SimReport& report,
                                ScheduleRecorder* rec = nullptr) {
  (void)stream;
  if (rec != nullptr) rec->begin_step(t);
  return server.step(t, cursor.step(t), report, rec);
}

TEST(GenericAlgorithm, SendsAtFullRateWhileBacklogged) {
  const Stream s = stream_of({units(0, 10)});
  SmoothingServer server(ServerConfig{.buffer = 10, .rate = 3},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  Bytes sent_total = 0;
  for (Time t = 0; t < 4; ++t) {
    std::vector<SentPiece> pieces =
        run_step(server, t, s, cursor, report);
    Bytes sent = 0;
    for (const auto& piece : pieces) sent += piece.bytes;
    sent_total += sent;
    EXPECT_EQ(sent, t < 3 ? 3 : 1);  // 3,3,3 then the last byte
  }
  EXPECT_EQ(sent_total, 10);
  EXPECT_TRUE(server.buffer().empty());
  EXPECT_EQ(report.dropped_server.bytes, 0);
}

TEST(GenericAlgorithm, Equation2UsesPreDropOccupancy) {
  // Arrival of 12 with B=4, R=2: S = min(2, 12) = 2, D = 12 - 2 - 4 = 6.
  const Stream s = stream_of({units(0, 12)});
  SmoothingServer server(ServerConfig{.buffer = 4, .rate = 2},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  const auto pieces = run_step(server, 0, s, cursor, report);
  Bytes sent = 0;
  for (const auto& piece : pieces) sent += piece.bytes;
  EXPECT_EQ(sent, 2);
  EXPECT_EQ(report.dropped_server.bytes, 6);
  EXPECT_EQ(server.buffer().occupancy(), 4);
}

TEST(GenericAlgorithm, NoDropWithoutOverflow) {
  const Stream s = stream_of({units(0, 5), units(1, 5)});
  SmoothingServer server(ServerConfig{.buffer = 8, .rate = 1},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  run_step(server, 0, s, cursor, report);  // 5 arrive, 1 sent, 4 left
  run_step(server, 1, s, cursor, report);  // 9 pre-drop, 1 sent, 8 kept
  EXPECT_EQ(report.dropped_server.bytes, 0);
  EXPECT_EQ(server.buffer().occupancy(), 8);
}

TEST(GenericAlgorithm, OccupancyNeverExceedsB) {
  // Lemma 3.2 part 1: |Bs(t)| <= B under any arrivals.
  const Stream s = stream_of({units(0, 20), units(1, 15), units(3, 30)});
  SmoothingServer server(ServerConfig{.buffer = 7, .rate = 2},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  for (Time t = 0; t < 12; ++t) {
    run_step(server, t, s, cursor, report);
    EXPECT_LE(server.buffer().occupancy(), 7);
  }
  EXPECT_EQ(report.max_server_occupancy, 7);
}

TEST(GenericAlgorithm, SojournBoundedByBOverR) {
  // Lemma 3.2 part 2: a byte transmitted leaves within B/R steps of arrival.
  const Stream s = stream_of({units(0, 12), units(2, 6), units(5, 9)});
  const Bytes b = 6;
  const Bytes r = 2;
  SmoothingServer server(ServerConfig{.buffer = b, .rate = r},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  ScheduleRecorder rec(s.run_count());
  for (Time t = 0; t < 20; ++t) run_step(server, t, s, cursor, report, &rec);
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    const RunOutcome& out = rec.run(i);
    if (out.last_send == kNever) continue;
    EXPECT_LE(out.last_send, s.runs()[i].arrival + b / r);
  }
}

TEST(GenericAlgorithm, FifoOrderAcrossRuns) {
  const Stream s = stream_of({units(0, 3), units(1, 3), units(2, 3)});
  SmoothingServer server(ServerConfig{.buffer = 16, .rate = 2},
                         std::make_unique<TailDropPolicy>());
  ArrivalCursor cursor(s);
  SimReport report;
  std::vector<std::size_t> order;
  for (Time t = 0; t < 8; ++t) {
    for (const auto& piece : run_step(server, t, s, cursor, report)) {
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
    SimReport report;
    SmoothingServer server(ServerConfig{.buffer = 5, .rate = 2},
                           make_policy(name));
    ArrivalCursor cursor(s);
    for (Time t = 0; t < 25; ++t) run_step(server, t, s, cursor, report);
    dropped.push_back(report.dropped_server.bytes);
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
  // through the same observer-based accounting as overflow drops.
  const Stream s = stream_of({units(0, 8, 1.0), units(1, 2, 9.0)});
  auto policy = std::make_unique<ProactiveThresholdPolicy>(
      ProactiveConfig{.watermark = 0.25, .value_floor = 2.0});
  SmoothingServer server(ServerConfig{.buffer = 8, .rate = 1},
                         std::move(policy));
  ArrivalCursor cursor(s);
  SimReport report;
  ScheduleRecorder rec(s.run_count());
  // Step 0: 8 cheap arrive, no early state yet; 1 sent, 7 held (no
  // overflow: 8 <= B + s). Step 1: early drop fires first (7 > 2 = 0.25*8),
  // shedding 5 cheap slices down to the watermark.
  rec.begin_step(0);
  server.step(0, cursor.step(0), report, &rec);
  EXPECT_EQ(report.dropped_server.bytes, 0);
  rec.begin_step(1);
  server.step(1, cursor.step(1), report, &rec);
  EXPECT_EQ(report.dropped_server.bytes, 5);
  EXPECT_DOUBLE_EQ(report.dropped_server.weight, 5.0);
  EXPECT_EQ(rec.run(0).dropped_server, 5);
  EXPECT_EQ(rec.run(1).dropped_server, 0);  // the dear slices survive
}

}  // namespace
}  // namespace rtsmooth
