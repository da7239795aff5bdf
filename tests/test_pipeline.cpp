// Unit tests for the shared server -> link -> client step: the step record
// adds up to the report, sent()/delivered() expose the step's pieces, and
// server drops settle the client's run ledger within the step.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/pipeline.h"
#include "policies/tail_drop.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

/// A tail-drop pipeline over `s` with B, R, P, D and a client buffer of B.
Pipeline make_pipeline(const Stream& s, Bytes buffer, Bytes rate,
                       Time link_delay, Time smoothing_delay) {
  return Pipeline(ServerConfig{.buffer = buffer, .rate = rate},
                  std::make_unique<TailDropPolicy>(),
                  std::make_unique<FixedDelayLink>(link_delay),
                  Client(s.run_count(), buffer, link_delay + smoothing_delay));
}

/// Runs step t of `pipe`, admitting the stream's arrivals at t.
const obs::StepRecord& run_step(Pipeline& pipe, ArrivalCursor& cursor,
                                Time t) {
  pipe.begin(t);
  const ArrivalBatch batch = cursor.step(t);
  for (std::size_t i = 0; i < batch.runs.size(); ++i) {
    pipe.admit(batch.runs[i], batch.first_index + i);
  }
  return pipe.finish();
}

TEST(Pipeline, StepRecordsAddUpToTheReport) {
  // Oversubscribed (B = R*D = 4, R = 2): Eq. (3) sheds, the client is
  // balanced and never drops.
  const Stream s = stream_of(
      {units(0, 12), units(1, 3), units(2, 9), units(5, 4), units(6, 1)});
  Pipeline pipe = make_pipeline(s, 4, 2, 1, 2);
  ArrivalCursor cursor(s);
  obs::StepRecord total;
  Time t = 0;
  for (; t <= s.horizon() + 3 || !pipe.server().idle() ||
         !pipe.link().idle() || pipe.client().occupancy() > 0;
       ++t) {
    const obs::StepRecord& step = run_step(pipe, cursor, t);
    EXPECT_EQ(step.t, t);
    EXPECT_EQ(step.server_occupancy, pipe.server().buffer().occupancy());
    EXPECT_EQ(step.client_occupancy, pipe.client().occupancy());
    EXPECT_FALSE(step.stalled);
    total.arrived += step.arrived;
    total.sent += step.sent;
    total.delivered += step.delivered;
    total.played += step.played;
    total.dropped_server += step.dropped_server;
    total.dropped_client += step.dropped_client;
  }
  pipe.report().steps = t;
  pipe.finalize();
  const SimReport& report = pipe.report();
  EXPECT_EQ(total.arrived, report.offered.bytes);
  EXPECT_EQ(total.sent, total.delivered);
  EXPECT_EQ(total.played, report.played.bytes);
  EXPECT_EQ(total.dropped_server, report.dropped_server.bytes);
  EXPECT_GT(total.dropped_server, 0);
  EXPECT_EQ(total.dropped_client, 0);
  EXPECT_EQ(total.arrived, total.played + total.dropped_server);
  EXPECT_TRUE(report.conserves());
}

TEST(Pipeline, SentAndDeliveredExposeTheStepsPieces) {
  const Stream s = stream_of({units(0, 5), units(1, 1), units(2, 4)});
  for (const Time link_delay : {0, 2}) {
    Pipeline pipe = make_pipeline(s, 8, 2, link_delay, 4);
    ArrivalCursor cursor(s);
    std::vector<std::vector<SentPiece>> sent;
    for (Time t = 0; t < 12; ++t) {
      const obs::StepRecord& step = run_step(pipe, cursor, t);
      sent.emplace_back(pipe.sent().begin(), pipe.sent().end());
      Bytes sent_bytes = 0;
      for (const SentPiece& piece : pipe.sent()) sent_bytes += piece.bytes;
      EXPECT_EQ(sent_bytes, step.sent);
      const std::vector<SentPiece> due =
          t >= link_delay ? sent[static_cast<std::size_t>(t - link_delay)]
                          : std::vector<SentPiece>{};
      ASSERT_EQ(pipe.delivered().size(), due.size()) << "t=" << t;
      Bytes delivered_bytes = 0;
      for (std::size_t i = 0; i < due.size(); ++i) {
        EXPECT_EQ(pipe.delivered()[i].run_index, due[i].run_index);
        EXPECT_EQ(pipe.delivered()[i].bytes, due[i].bytes);
        delivered_bytes += due[i].bytes;
      }
      EXPECT_EQ(delivered_bytes, step.delivered);
    }
  }
}

TEST(Pipeline, ServerDropsRetireRunsWithinTheStep) {
  // B = 2, R = 1, P = 1, D = 2: six slices arrive at step 0; Eq. (3) sheds
  // three, the other three trickle over the link and play at step 3. The
  // run's last byte becomes terminal there, so it retires before any
  // finalize().
  const Stream s = stream_of({units(0, 6)});
  Pipeline pipe = make_pipeline(s, 2, 1, 1, 2);
  ArrivalCursor cursor(s);
  const obs::StepRecord first = run_step(pipe, cursor, 0);
  EXPECT_EQ(first.arrived, 6);
  EXPECT_EQ(first.sent, 1);
  EXPECT_EQ(first.dropped_server, 3);
  EXPECT_EQ(first.server_occupancy, 2);
  EXPECT_FALSE(first.link_idle);
  for (Time t = 1; t < 3; ++t) run_step(pipe, cursor, t);
  EXPECT_EQ(pipe.client().live_runs(), 1);
  const obs::StepRecord& last = run_step(pipe, cursor, 3);
  EXPECT_EQ(last.delivered, 1);
  EXPECT_EQ(last.played, 3);
  EXPECT_EQ(last.client_occupancy, 0);
  EXPECT_TRUE(last.link_idle);
  EXPECT_EQ(pipe.client().live_runs(), 0);
  EXPECT_EQ(pipe.report().played.bytes, 3);
  EXPECT_EQ(pipe.report().dropped_server.bytes, 3);
  EXPECT_TRUE(pipe.report().conserves());
}

}  // namespace
}  // namespace rtsmooth
