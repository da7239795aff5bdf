// Unit tests for the client: reconstruction, playout timing (PT = AT+P+D),
// overflow refusal, deadline misses, and end-of-run loss attribution.

#include <gtest/gtest.h>

#include "core/client.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

/// A client with every run of `s` admitted up front; the simulator admits
/// each run on its arrival step.
Client admitted(const Stream& s, Bytes capacity, Time playout_offset) {
  Client client(s.run_count(), capacity, playout_offset);
  for (std::size_t i = 0; i < s.run_count(); ++i) client.admit(s.runs()[i], i);
  return client;
}

std::vector<SentPiece> piece_of(const Stream& s, std::size_t run_index,
                                Bytes bytes, std::int64_t completed) {
  return {SentPiece{.run = &s.runs()[run_index],
                    .run_index = run_index,
                    .bytes = bytes,
                    .completed_slices = completed}};
}

TEST(Client, PlaysCompleteFrameAtOffset) {
  const Stream s = stream_of({units(0, 4, 2.0)});
  SimReport report;
  Client client = admitted(s, /*capacity=*/100, /*playout_offset=*/3);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.bytes, 0);  // not its playout step yet
  client.play(3, report, nullptr);    // frame 0 plays at 0 + offset
  EXPECT_EQ(report.played.bytes, 4);
  EXPECT_EQ(report.played.slices, 4);
  EXPECT_DOUBLE_EQ(report.played.weight, 8.0);
  EXPECT_EQ(client.occupancy(), 0);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_late.bytes, 0);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
}

TEST(Client, BytesArrivingAtPlayoutStepStillPlay) {
  // Lemma 3.3's equality case RT = AT + P + B/R must count as on time.
  const Stream s = stream_of({units(0, 2)});
  SimReport report;
  Client client = admitted(s, 100, 2);
  client.deliver(2, piece_of(s, 0, 2, 2), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.slices, 2);
}

TEST(Client, LateBytesAreDeadlineMisses) {
  const Stream s = stream_of({units(0, 3)});
  SimReport report;
  Client client = admitted(s, 100, 1);
  client.play(1, report, nullptr);  // playout step passes, nothing stored
  client.deliver(2, piece_of(s, 0, 3, 3), report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.played.bytes, 0);
  EXPECT_EQ(report.dropped_client_late.bytes, 3);
  EXPECT_EQ(report.dropped_client_late.slices, 3);
}

TEST(Client, OverflowEvictsExcessAfterPlayout) {
  const Stream s = stream_of({units(0, 8)});
  SimReport report;
  Client client = admitted(s, /*capacity=*/5, /*playout_offset=*/4);
  client.deliver(1, piece_of(s, 0, 8, 8), report, nullptr);
  client.play(1, report, nullptr);  // settles capacity for the step
  EXPECT_EQ(client.occupancy(), 5);
  for (Time t = 2; t <= 4; ++t) client.play(t, report, nullptr);
  EXPECT_EQ(report.played.slices, 5);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 3);
  EXPECT_EQ(report.dropped_client_overflow.slices, 3);
}

TEST(Client, SameStepPlayoutMakesRoomBeforeCapacityCheck) {
  // Lemma 3.4's accounting: |Bc(t)| is measured after frame t leaves, so a
  // delivery that transiently exceeds Bc while the playing frame departs is
  // not an overflow.
  const Stream s = stream_of({units(0, 4), units(1, 4)});
  SimReport report;
  Client client = admitted(s, /*capacity=*/4, /*playout_offset=*/2);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.deliver(2, piece_of(s, 1, 4, 4), report, nullptr);  // 8 transient
  client.play(2, report, nullptr);  // frame 0 plays, frame 1 fits
  client.play(3, report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.played.slices, 8);
  EXPECT_EQ(report.dropped_client_overflow.bytes, 0);
}

TEST(Client, IncompleteSliceDoesNotPlay) {
  // 2 slices of 5 bytes; only 7 bytes arrive by playout: one slice plays,
  // the 2 leftover bytes are charged to the client (late bucket), and the
  // 3 straggler bytes arriving later are late too.
  const Stream s = stream_of(
      {SliceRun{.arrival = 0, .slice_size = 5, .count = 2, .weight = 5.0}});
  SimReport report;
  Client client = admitted(s, 100, 2);
  client.deliver(1, piece_of(s, 0, 7, 1), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.played.slices, 1);
  EXPECT_EQ(report.played.bytes, 5);
  client.deliver(3, piece_of(s, 0, 3, 1), report, nullptr);
  client.finalize(report);
  EXPECT_EQ(report.dropped_client_late.bytes, 5);
  EXPECT_EQ(report.dropped_client_late.slices, 1);
}

TEST(Client, UnboundedCapacityNeverOverflows) {
  const Stream s = stream_of({units(0, 1000000)});
  SimReport report;
  Client client = admitted(s, Client::kUnbounded, 5);
  client.deliver(1, piece_of(s, 0, 1000000, 1000000), report, nullptr);
  EXPECT_EQ(client.occupancy(), 1000000);
  for (Time t = 1; t <= 5; ++t) client.play(t, report, nullptr);
  EXPECT_EQ(report.played.slices, 1000000);
}

TEST(Client, MaxOccupancyTracked) {
  const Stream s = stream_of({units(0, 4), units(1, 4)});
  SimReport report;
  Client client = admitted(s, 100, 3);
  client.deliver(1, piece_of(s, 0, 4, 4), report, nullptr);
  client.play(1, report, nullptr);
  client.deliver(2, piece_of(s, 1, 4, 4), report, nullptr);
  client.play(2, report, nullptr);
  EXPECT_EQ(report.max_client_occupancy, 8);
}

TEST(Client, ResidualWhenNeverPlayed) {
  const Stream s = stream_of({units(0, 6)});
  SimReport report;
  Client client = admitted(s, 100, 10);
  client.deliver(1, piece_of(s, 0, 6, 6), report, nullptr);
  client.finalize(report);  // playout never reached
  EXPECT_EQ(report.residual.bytes, 6);
  EXPECT_EQ(report.residual.slices, 6);
}

TEST(Client, RecorderGetsPlayTimeAndReceiveTimes) {
  const Stream s = stream_of({units(0, 2)});
  SimReport report;
  ScheduleRecorder rec(s.run_count(), ScheduleRecorder::Level::RunsAndSteps);
  Client client = admitted(s, 100, 2);
  client.deliver(1, piece_of(s, 0, 2, 2), report, &rec);
  client.play(1, report, &rec);
  client.play(2, report, &rec);
  EXPECT_EQ(rec.run(0).first_receive, 1);
  EXPECT_EQ(rec.run(0).play_time, 2);
  EXPECT_EQ(rec.run(0).played, 2);
}

using ClientDeathTest = ::testing::Test;

TEST(ClientDeathTest, DoubleFinalizeAborts) {
  const Stream s = stream_of({units(0, 1)});
  SimReport report;
  Client client = admitted(s, 10, 1);
  client.finalize(report);
  EXPECT_DEATH(client.finalize(report), "precondition");
}

}  // namespace
}  // namespace rtsmooth
