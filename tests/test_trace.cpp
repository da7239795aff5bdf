// Unit tests for the trace substrate: GOP patterns, the synthetic MPEG
// model's calibration against the paper's reported statistics, trace IO
// round-trips, slicers and value models.

#include <gtest/gtest.h>

#include <sstream>

#include "trace/frame.h"
#include "trace/gop.h"
#include "trace/mpeg_model.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"
#include "trace/trace_io.h"
#include "trace/value_model.h"
#include "util/stats.h"

namespace rtsmooth::trace {
namespace {

TEST(Gop, ParsesAndCycles) {
  const GopPattern gop("IBBP");
  EXPECT_EQ(gop.length(), 4u);
  EXPECT_EQ(gop.type_at(0), FrameType::I);
  EXPECT_EQ(gop.type_at(1), FrameType::B);
  EXPECT_EQ(gop.type_at(3), FrameType::P);
  EXPECT_EQ(gop.type_at(4), FrameType::I);  // cyclic
}

TEST(Gop, Frequencies) {
  const GopPattern gop = GopPattern::paper_default();
  EXPECT_NEAR(gop.frequency(FrameType::I), 0.08, 0.01);
  EXPECT_NEAR(gop.frequency(FrameType::P), 0.31, 0.01);
  EXPECT_NEAR(gop.frequency(FrameType::B), 0.61, 0.01);
}

TEST(Gop, RejectsBadPatterns) {
  EXPECT_THROW(GopPattern(""), std::invalid_argument);
  EXPECT_THROW(GopPattern("BBI"), std::invalid_argument);
  EXPECT_THROW(GopPattern("IXB"), std::invalid_argument);
}

TEST(MpegModel, ReproducesPaperStatistics) {
  MpegTraceModel model(MpegModelConfig{}, 42);
  const FrameSequence frames = model.generate(20000);
  const TraceStats stats = compute_stats(frames);
  // Paper Sect. 5: mean ~38 KB, max ~120 KB, I:P:B ~ 8%:31%:61%.
  EXPECT_NEAR(stats.mean_frame_bytes, 38.0 * 1024, 38.0 * 1024 * 0.15);
  EXPECT_NEAR(static_cast<double>(stats.max_frame_bytes), 120.0 * 1024,
              120.0 * 1024 * 0.05);
  EXPECT_NEAR(stats.frequency_i, 0.077, 0.01);
  EXPECT_NEAR(stats.frequency_p, 0.308, 0.01);
  EXPECT_NEAR(stats.frequency_b, 0.615, 0.01);
  // I frames carry the big bursts (configured I:P:B means 4 : 2.2 : 1; the
  // 120 KB cap compresses the I tail, so assert ordering with headroom
  // rather than the raw ratios).
  EXPECT_GT(stats.mean_i, 1.5 * stats.mean_p);
  EXPECT_GT(stats.mean_p, 1.5 * stats.mean_b);
}

TEST(MpegModel, DeterministicInSeed) {
  MpegTraceModel a(MpegModelConfig{}, 7);
  MpegTraceModel b(MpegModelConfig{}, 7);
  EXPECT_EQ(a.generate(500), b.generate(500));
  MpegTraceModel c(MpegModelConfig{}, 8);
  EXPECT_NE(a.generate(500), c.generate(500));
}

TEST(MpegModel, SizesAreBursty) {
  // Scene-level modulation must show up as strong lag-1 autocorrelation of
  // the per-GOP byte rate (per-frame sizes alternate with frame type, so
  // aggregate per GOP first).
  MpegTraceModel model(MpegModelConfig{}, 13);
  const FrameSequence frames = model.generate(13 * 800);
  std::vector<double> gop_bytes;
  double acc = 0.0;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    acc += static_cast<double>(frames[i].size);
    if ((i + 1) % 13 == 0) {
      gop_bytes.push_back(acc);
      acc = 0.0;
    }
  }
  EXPECT_GT(autocorrelation_lag1(gop_bytes), 0.5);
}

TEST(MpegModel, RespectsSizeBounds) {
  MpegModelConfig cfg;
  cfg.min_frame_bytes = 1000;
  cfg.max_frame_bytes = 50000;
  MpegTraceModel model(cfg, 3);
  for (const Frame& f : model.generate(5000)) {
    EXPECT_GE(f.size, 1000);
    EXPECT_LE(f.size, 50000);
  }
}

TEST(StockClips, AllNamesGenerate) {
  for (const auto& name : stock_clip_names()) {
    const FrameSequence frames = stock_clip(name, 100);
    EXPECT_EQ(frames.size(), 100u) << name;
  }
  EXPECT_THROW(stock_clip("bogus", 10), std::invalid_argument);
}

TEST(StockClips, SmoothCbrIsConstant) {
  const FrameSequence frames = stock_clip("smooth-cbr", 50);
  for (const Frame& f : frames) EXPECT_EQ(f.size, frames[0].size);
}

TEST(TraceIo, RoundTrip) {
  const FrameSequence original = stock_clip("cnn-news", 200);
  std::stringstream buffer;
  write_trace(buffer, original);
  const FrameSequence parsed = read_trace(buffer);
  EXPECT_EQ(parsed, original);
}

TEST(TraceIo, AcceptsAllLineShapes) {
  std::istringstream in(
      "# a comment\n"
      "\n"
      "1234\n"
      "I 5000\n"
      "7 P 600  # trailing comment\n");
  const FrameSequence frames = read_trace(in);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::Other);
  EXPECT_EQ(frames[0].size, 1234);
  EXPECT_EQ(frames[1].type, FrameType::I);
  EXPECT_EQ(frames[2].type, FrameType::P);
  EXPECT_EQ(frames[2].size, 600);
}

TEST(TraceIo, RejectsMalformedLines) {
  std::istringstream bad1("I -5\n");
  EXPECT_THROW(read_trace(bad1), std::runtime_error);
  std::istringstream bad2("X 100\n");
  EXPECT_THROW(read_trace(bad2), std::runtime_error);
  std::istringstream bad3("1 2 3 4\n");
  EXPECT_THROW(read_trace(bad3), std::runtime_error);
  // A size past the 64-bit range is malformed too, not an out_of_range.
  std::istringstream bad4("I 99999999999999999999\n");
  EXPECT_THROW(read_trace(bad4), std::runtime_error);
  EXPECT_THROW(read_trace_file("/nonexistent/trace.txt"),
               std::runtime_error);
}

TEST(Slicer, ByteSlicesPreserveTotals) {
  const FrameSequence frames = {{FrameType::I, 100}, {FrameType::B, 40}};
  const Stream s =
      slice_frames(frames, ValueModel::mpeg_default(), Slicing::ByteSlices);
  EXPECT_TRUE(s.unit_slices());
  EXPECT_EQ(s.total_bytes(), 140);
  EXPECT_EQ(s.total_slices(), 140);
  EXPECT_DOUBLE_EQ(s.total_weight(), 12.0 * 100 + 1.0 * 40);
}

TEST(Slicer, WholeFramePreservesTotals) {
  const FrameSequence frames = {{FrameType::I, 100}, {FrameType::B, 40}};
  const Stream s =
      slice_frames(frames, ValueModel::mpeg_default(), Slicing::WholeFrame);
  EXPECT_EQ(s.total_bytes(), 140);
  EXPECT_EQ(s.total_slices(), 2);
  EXPECT_DOUBLE_EQ(s.total_weight(), 12.0 * 100 + 1.0 * 40);
  EXPECT_EQ(s.max_slice_size(), 100);
}

TEST(Slicer, WeightInvariantAcrossSlicings) {
  // The same clip must carry identical total weight at any granularity —
  // the premise of comparing Figs. 5/6 curves.
  const FrameSequence frames = stock_clip("cnn-news", 300);
  const ValueModel values = ValueModel::mpeg_default();
  const Weight w_bytes =
      slice_frames(frames, values, Slicing::ByteSlices).total_weight();
  const Weight w_frames =
      slice_frames(frames, values, Slicing::WholeFrame).total_weight();
  const Weight w_packets =
      slice_frames(frames, values, Slicing::FixedPacket, 188).total_weight();
  EXPECT_NEAR(w_bytes, w_frames, 1e-6);
  EXPECT_NEAR(w_bytes, w_packets, 1e-6);
}

TEST(Slicer, FixedPacketSplitsTail) {
  const FrameSequence frames = {{FrameType::P, 450}};
  const Stream s = slice_frames(frames, ValueModel::throughput(),
                                Slicing::FixedPacket, 188);
  // 450 = 2*188 + 74.
  ASSERT_EQ(s.run_count(), 2u);
  EXPECT_EQ(s.runs()[0].slice_size, 188);
  EXPECT_EQ(s.runs()[0].count, 2);
  EXPECT_EQ(s.runs()[1].slice_size, 74);
  EXPECT_EQ(s.runs()[1].count, 1);
}

TEST(ValueModel, PaperWeights) {
  const ValueModel v = ValueModel::mpeg_default();
  EXPECT_DOUBLE_EQ(v.byte_value(FrameType::I), 12.0);
  EXPECT_DOUBLE_EQ(v.byte_value(FrameType::P), 8.0);
  EXPECT_DOUBLE_EQ(v.byte_value(FrameType::B), 1.0);
  EXPECT_DOUBLE_EQ(v.slice_weight(FrameType::P, 10), 80.0);
}

TEST(ValueModel, ThroughputIsUnit) {
  const ValueModel v = ValueModel::throughput();
  for (FrameType t : {FrameType::I, FrameType::P, FrameType::B,
                      FrameType::Other}) {
    EXPECT_DOUBLE_EQ(v.byte_value(t), 1.0);
  }
}

}  // namespace
}  // namespace rtsmooth::trace
