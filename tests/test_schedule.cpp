// Unit tests for the schedule recorder: per-run event times, kept step
// records, recording levels.

#include <gtest/gtest.h>

#include "core/schedule.h"

namespace rtsmooth {
namespace {

TEST(ScheduleRecorder, RunOutcomesStartUnset) {
  const ScheduleRecorder rec(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rec.run(i).first_send, kNever);
    EXPECT_EQ(rec.run(i).play_time, kNever);
    EXPECT_EQ(rec.run(i).played, 0);
  }
}

TEST(ScheduleRecorder, NoteSendTracksFirstAndLast) {
  ScheduleRecorder rec(1);
  rec.note_send(0, 5, 10);
  rec.note_send(0, 9, 3);
  EXPECT_EQ(rec.run(0).first_send, 5);
  EXPECT_EQ(rec.run(0).last_send, 9);
}

TEST(ScheduleRecorder, NoteReceiveTracksFirstAndLast) {
  ScheduleRecorder rec(1);
  rec.note_receive(0, 7, 4);
  rec.note_receive(0, 8, 4);
  EXPECT_EQ(rec.run(0).first_receive, 7);
  EXPECT_EQ(rec.run(0).last_receive, 8);
}

TEST(ScheduleRecorder, RunsOnlyLevelKeepsNoSteps) {
  ScheduleRecorder rec(1, ScheduleRecorder::Level::RunsOnly);
  rec.record_step(StepSets{.t = 0, .arrived = 10});
  rec.record_step(StepSets{.t = 1});
  EXPECT_TRUE(rec.steps().empty());
}

TEST(ScheduleRecorder, RunsAndStepsKeepsPerStepSets) {
  ScheduleRecorder rec(2, ScheduleRecorder::Level::RunsAndSteps);
  rec.record_step(StepSets{.t = 0, .arrived = 10, .sent = 4});
  rec.record_step(StepSets{.t = 1, .sent = 2, .delivered = 4});
  ASSERT_EQ(rec.steps().size(), 2u);
  EXPECT_EQ(rec.steps()[0].t, 0);
  EXPECT_EQ(rec.steps()[0].arrived, 10);
  EXPECT_EQ(rec.steps()[0].sent, 4);
  EXPECT_EQ(rec.steps()[1].sent, 2);
  EXPECT_EQ(rec.steps()[1].delivered, 4);
}

using ScheduleRecorderDeathTest = ::testing::Test;

TEST(ScheduleRecorderDeathTest, OutOfRangeRunAborts) {
  ScheduleRecorder rec(2);
  EXPECT_DEATH(rec.run(2), "precondition");
}

TEST(ScheduleRecorderDeathTest, ZeroByteSendAborts) {
  ScheduleRecorder rec(1);
  EXPECT_DEATH(rec.note_send(0, 0, 0), "precondition");
}

}  // namespace
}  // namespace rtsmooth
