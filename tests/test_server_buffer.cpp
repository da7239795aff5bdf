// Unit tests for the chunked FIFO server buffer: push/merge, FIFO sends
// across slice boundaries, drop legality, the no-preemption rule and the
// drop log.

#include <gtest/gtest.h>

#include "core/server_buffer.h"
#include "stream_helpers.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

class ServerBufferTest : public ::testing::Test {
 protected:
  // Keep a stream alive for stable SliceRun pointers.
  Stream stream_ = stream_of({
      units(0, 10, 2.0),                                 // run 0: 10 x 1B
      SliceRun{.arrival = 1, .slice_size = 5, .count = 3, .weight = 10.0},
      SliceRun{.arrival = 2, .slice_size = 3, .count = 2, .weight = 3.0},
  });
  const SliceRun& run(std::size_t i) { return stream_.runs()[i]; }
};

TEST_F(ServerBufferTest, StartsEmpty) {
  ServerBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.occupancy(), 0);
  EXPECT_EQ(buf.chunk_count(), 0u);
}

TEST_F(ServerBufferTest, PushAccumulatesOccupancy) {
  ServerBuffer buf;
  buf.push(run(0), 0, 10);
  buf.push(run(1), 1, 3);
  EXPECT_EQ(buf.occupancy(), 10 + 15);
  EXPECT_EQ(buf.chunk_count(), 2u);
}

TEST_F(ServerBufferTest, PushMergesSameRunAtTail) {
  ServerBuffer buf;
  buf.push(run(0), 0, 4);
  buf.push(run(0), 0, 6);
  EXPECT_EQ(buf.chunk_count(), 1u);
  EXPECT_EQ(buf.chunk(0).slices, 10);
}

TEST_F(ServerBufferTest, SendTakesFifoAcrossChunks) {
  ServerBuffer buf;
  buf.push(run(0), 0, 2);  // 2 bytes
  buf.push(run(1), 1, 1);  // 5 bytes
  std::vector<SentPiece> pieces;
  EXPECT_EQ(buf.send(4, pieces), 4);
  ASSERT_EQ(pieces.size(), 2u);
  EXPECT_EQ(pieces[0].run_index, 0u);
  EXPECT_EQ(pieces[0].bytes, 2);
  EXPECT_EQ(pieces[0].completed_slices, 2);
  EXPECT_EQ(pieces[1].run_index, 1u);
  EXPECT_EQ(pieces[1].bytes, 2);
  EXPECT_EQ(pieces[1].completed_slices, 0);  // 2 of 5 bytes sent
  EXPECT_TRUE(buf.head_in_transmission());
  EXPECT_EQ(buf.occupancy(), 3);
}

TEST_F(ServerBufferTest, SendCompletesPartialSliceAcrossCalls) {
  ServerBuffer buf;
  buf.push(run(1), 1, 2);  // two 5-byte slices
  std::vector<SentPiece> pieces;
  buf.send(3, pieces);
  EXPECT_TRUE(buf.head_in_transmission());
  pieces.clear();
  buf.send(2, pieces);  // finishes the first slice exactly
  ASSERT_EQ(pieces.size(), 1u);
  EXPECT_EQ(pieces[0].completed_slices, 1);
  EXPECT_FALSE(buf.head_in_transmission());
  EXPECT_EQ(buf.occupancy(), 5);
}

TEST_F(ServerBufferTest, SendClampsToOccupancy) {
  ServerBuffer buf;
  buf.push(run(0), 0, 3);
  std::vector<SentPiece> pieces;
  EXPECT_EQ(buf.send(100, pieces), 3);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.chunk_count(), 0u);
}

TEST_F(ServerBufferTest, SendZeroBudgetIsNoop) {
  ServerBuffer buf;
  buf.push(run(0), 0, 3);
  std::vector<SentPiece> pieces;
  EXPECT_EQ(buf.send(0, pieces), 0);
  EXPECT_TRUE(pieces.empty());
}

TEST_F(ServerBufferTest, DropFreesBytesAndWeight) {
  ServerBuffer buf;
  buf.push(run(1), 1, 3);  // 3 slices x 5B x weight 10
  const DropResult freed = buf.drop_slices(0, 2);
  EXPECT_EQ(freed.bytes, 10);
  EXPECT_DOUBLE_EQ(freed.weight, 20.0);
  EXPECT_EQ(freed.slices, 2);
  EXPECT_EQ(buf.occupancy(), 5);
}

TEST_F(ServerBufferTest, DropRemovesEmptiedChunk) {
  ServerBuffer buf;
  buf.push(run(0), 0, 2);
  buf.push(run(2), 2, 2);
  buf.drop_slices(0, 2);
  EXPECT_EQ(buf.chunk_count(), 1u);
  EXPECT_EQ(buf.chunk(0).run_index, 2u);
}

TEST_F(ServerBufferTest, HeadSliceInTransmissionIsProtected) {
  ServerBuffer buf;
  buf.push(run(1), 1, 3);
  std::vector<SentPiece> pieces;
  buf.send(2, pieces);  // partially send first slice
  EXPECT_EQ(buf.droppable_slices(0), 2);  // only the two untouched slices
  const DropResult freed = buf.drop_slices(0, 2);
  EXPECT_EQ(freed.slices, 2);
  // The partially-sent slice remains, with 3 bytes outstanding.
  EXPECT_EQ(buf.occupancy(), 3);
  EXPECT_TRUE(buf.head_in_transmission());
}

TEST_F(ServerBufferTest, DropLogRecordsEveryDrop) {
  ServerBuffer buf;
  buf.push(run(0), 0, 5);
  buf.push(run(2), 2, 2);
  EXPECT_TRUE(buf.drop_log().empty());
  buf.drop_slices(0, 3);
  buf.drop_slices(1, 1);
  // One entry per drop_slices() call, in drop order.
  ASSERT_EQ(buf.drop_log().size(), 2u);
  EXPECT_EQ(buf.drop_log()[0].run, &run(0));
  EXPECT_EQ(buf.drop_log()[0].run_index, 0u);
  EXPECT_EQ(buf.drop_log()[0].slices, 3);
  EXPECT_EQ(buf.drop_log()[1].run, &run(2));
  EXPECT_EQ(buf.drop_log()[1].run_index, 2u);
  EXPECT_EQ(buf.drop_log()[1].slices, 1);
  buf.clear_drop_log();
  EXPECT_TRUE(buf.drop_log().empty());
  // Sends are not drops.
  std::vector<SentPiece> pieces;
  buf.send(3, pieces);
  EXPECT_TRUE(buf.drop_log().empty());
}

using ServerBufferDeathTest = ServerBufferTest;

TEST_F(ServerBufferDeathTest, OverDropAborts) {
  ServerBuffer buf;
  buf.push(run(0), 0, 2);
  EXPECT_DEATH(buf.drop_slices(0, 3), "precondition");
}

TEST_F(ServerBufferDeathTest, DroppingTransmittingSliceAborts) {
  ServerBuffer buf;
  buf.push(run(1), 1, 1);
  std::vector<SentPiece> pieces;
  buf.send(1, pieces);
  EXPECT_DEATH(buf.drop_slices(0, 1), "precondition");
}

}  // namespace
}  // namespace rtsmooth
