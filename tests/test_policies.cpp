// Unit tests for the drop policies: victim selection semantics of TailDrop,
// Greedy, HeadDrop, Random and the proactive threshold policy.

#include <gtest/gtest.h>

#include <vector>

#include "core/client.h"
#include "core/generic_algorithm.h"
#include "core/server_buffer.h"
#include "policies/greedy_drop.h"
#include "policies/head_drop.h"
#include "policies/policy_factory.h"
#include "policies/proactive_threshold.h"
#include "policies/random_drop.h"
#include "policies/shed_algorithms.h"
#include "policies/tail_drop.h"
#include "reference_core.h"
#include "stream_helpers.h"
#include "util/rng.h"

namespace rtsmooth {
namespace {

using testing::stream_of;
using testing::units;

class PolicyTest : public ::testing::Test {
 protected:
  // Three unit-slice runs with distinct byte values, arriving in time order:
  // old cheap (w=1), middle precious (w=9), new medium (w=5).
  Stream stream_ = stream_of({units(0, 4, 1.0), units(1, 4, 9.0),
                              units(2, 4, 5.0)});

  ServerBuffer filled() {
    ServerBuffer buf;
    for (std::size_t i = 0; i < stream_.run_count(); ++i) {
      buf.push(stream_.runs()[i], i, stream_.runs()[i].count);
    }
    return buf;  // 12 bytes
  }

  std::int64_t remaining(const ServerBuffer& buf, std::size_t run_index) {
    std::int64_t n = 0;
    for (std::size_t i = 0; i < buf.chunk_count(); ++i) {
      if (buf.chunk(i).run_index == run_index) n += buf.chunk(i).slices;
    }
    return n;
  }
};

TEST_F(PolicyTest, TailDropShedsNewestFirst) {
  ServerBuffer buf = filled();
  TailDropPolicy policy;
  const DropResult freed = policy.shed(buf, 6);
  EXPECT_EQ(freed.slices, 6);
  EXPECT_EQ(buf.occupancy(), 6);
  EXPECT_EQ(remaining(buf, 2), 0);  // newest gone entirely
  EXPECT_EQ(remaining(buf, 1), 2);  // then the middle
  EXPECT_EQ(remaining(buf, 0), 4);  // oldest untouched
}

TEST_F(PolicyTest, GreedyShedsCheapestFirst) {
  ServerBuffer buf = filled();
  GreedyDropPolicy policy;
  policy.shed(buf, 6);
  EXPECT_EQ(buf.occupancy(), 6);
  EXPECT_EQ(remaining(buf, 0), 0);  // w=1 gone entirely
  EXPECT_EQ(remaining(buf, 2), 2);  // then w=5
  EXPECT_EQ(remaining(buf, 1), 4);  // w=9 untouched
}

TEST_F(PolicyTest, GreedyRespectsTransmittingHead) {
  ServerBuffer buf = filled();
  std::vector<SentPiece> pieces;
  buf.send(1, pieces);  // completes one cheap unit slice; no partial head
  GreedyDropPolicy policy;
  policy.shed(buf, 5);
  EXPECT_EQ(buf.occupancy(), 5);
  EXPECT_EQ(remaining(buf, 0), 0);
}

TEST_F(PolicyTest, GreedyTieGoesToTheNewestChunk) {
  // Two cheap runs of equal value around a precious one: the newer cheap
  // run goes first.
  const Stream s =
      stream_of({units(0, 4, 1.0), units(1, 4, 9.0), units(2, 4, 1.0)});
  ServerBuffer buf;
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    buf.push(s.runs()[i], i, s.runs()[i].count);
  }
  GreedyDropPolicy policy;
  policy.shed(buf, 10);
  ASSERT_EQ(buf.drop_log().size(), 1u);
  EXPECT_EQ(buf.drop_log()[0].run_index, 2u);
  EXPECT_EQ(buf.drop_log()[0].slices, 2);
  EXPECT_EQ(remaining(buf, 0), 4);
}

TEST_F(PolicyTest, GreedySkipsTheCheapestChunkWhenItIsTheSliceInTransmission) {
  // The head is one 4-byte slice of byte value 0.25 with a byte already on
  // the link, so it cannot be dropped; the next cheapest run (value 2) goes.
  const Stream s = stream_of({
      SliceRun{.arrival = 0, .slice_size = 4, .count = 1, .weight = 1.0},
      SliceRun{.arrival = 1, .slice_size = 2, .count = 2, .weight = 4.0},
      units(2, 4, 3.0),
  });
  ServerBuffer buf;
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    buf.push(s.runs()[i], i, s.runs()[i].count);
  }
  std::vector<SentPiece> pieces;
  buf.send(1, pieces);
  ASSERT_TRUE(buf.head_in_transmission());
  EXPECT_EQ(buf.min_value(), 0.25);
  GreedyDropPolicy policy;
  policy.shed(buf, 7);  // 11 bytes: one 2-byte slice is not enough
  EXPECT_EQ(buf.occupancy(), 7);
  EXPECT_EQ(remaining(buf, 0), 1);
  EXPECT_EQ(remaining(buf, 1), 0);
  EXPECT_EQ(remaining(buf, 2), 4);
}

TEST_F(PolicyTest, ValueFloorShedsChunksAtExactlyTheFloor) {
  // shed_below_value() drops every droppable slice whose byte value is <=
  // the floor: the w=1 and w=5 runs at floor 5, never the w=9 run.
  const Stream& s = stream_;
  SmoothingServer server(ServerConfig{.buffer = 100, .rate = 1},
                         std::make_unique<GreedyDropPolicy>());
  Client client(s.run_count(), Client::kUnbounded, /*playout_offset=*/10);
  SimReport report;
  server.begin_step(0, {}, report, client, nullptr);
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    report.add_offered(s.runs()[i]);
    client.admit(s.runs()[i], i);
    server.admit(s.runs()[i], i, s.runs()[i].count);
  }
  const DropResult dropped = server.shed_below_value(5.0);
  EXPECT_EQ(dropped.slices, 8);
  EXPECT_DOUBLE_EQ(dropped.weight, 4 * 1.0 + 4 * 5.0);
  EXPECT_EQ(server.buffer().occupancy(), 4);
  EXPECT_EQ(remaining(server.buffer(), 1), 4);
  EXPECT_EQ(report.dropped_server.slices, 8);
}

TEST_F(PolicyTest, ProactiveFloorShedsChunksAtExactlyTheFloor) {
  ServerBuffer buf = filled();  // 12 bytes
  ProactiveThresholdPolicy policy(
      ProactiveConfig{.watermark = 0.5, .value_floor = 5.0});
  // Watermark 6: the w=1 run, then two slices of the w=5 run.
  const DropResult freed = policy.early_drop(buf, 12, 0);
  EXPECT_EQ(freed.slices, 6);
  EXPECT_EQ(buf.occupancy(), 6);
  EXPECT_EQ(remaining(buf, 0), 0);
  EXPECT_EQ(remaining(buf, 1), 4);
  EXPECT_EQ(remaining(buf, 2), 2);
}

/// Builds a random buffer history and checks, at every shed, that the
/// newest-first scan with its value-floor stop picks the same victims as a
/// full scan of every chunk (tests/reference_core.h). `values` draws each
/// run's byte value.
template <class DrawValue>
void expect_greedy_matches_full_scan(std::uint64_t seed, DrawValue values) {
  Rng rng(seed);
  std::vector<SliceRun> runs;
  for (Time t = 0; t < 60; ++t) {
    for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
      const Bytes size = rng.uniform_int(1, 3);
      const Weight weight = values(rng) * static_cast<Weight>(size);
      runs.push_back(SliceRun{.arrival = t,
                              .slice_size = size,
                              .count = rng.uniform_int(1, 6),
                              .weight = weight});
    }
  }
  const Stream s = stream_of(runs);
  ServerBuffer fast;
  ServerBuffer full;
  std::vector<SentPiece> pieces;
  for (std::size_t i = 0; i < s.run_count(); ++i) {
    const SliceRun& run = s.runs()[i];
    fast.push(run, i, run.count);
    full.push(run, i, run.count);
    // Send a few bytes now and then, often leaving a part-sent head slice.
    if (rng.bernoulli(0.5)) {
      const Bytes budget = rng.uniform_int(0, 4);
      fast.send(budget, pieces);
      full.send(budget, pieces);
    }
    if (!rng.bernoulli(0.3)) continue;
    const Bytes target = rng.uniform_int(0, fast.occupancy());
    // A cap at or between the drawn values, or none.
    const double cap = rng.bernoulli(0.5) ? values(rng) : shed::kAnyValue;
    const DropResult a = shed::greedy_shed(fast, target, cap);
    const DropResult b = refcore::forward_greedy_shed(full, target, cap);
    ASSERT_EQ(a.slices, b.slices) << "seed " << seed << " run " << i;
    ASSERT_EQ(a.bytes, b.bytes) << "seed " << seed << " run " << i;
    ASSERT_EQ(fast.drop_log().size(), full.drop_log().size());
    for (std::size_t k = 0; k < fast.drop_log().size(); ++k) {
      ASSERT_EQ(fast.drop_log()[k].run_index, full.drop_log()[k].run_index)
          << "seed " << seed << " run " << i << " victim " << k;
      ASSERT_EQ(fast.drop_log()[k].slices, full.drop_log()[k].slices);
    }
    fast.clear_drop_log();
    full.clear_drop_log();
  }
}

TEST(GreedyScan, VictimsEqualAFullScanOnRandomBuffers) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    // Three frame-type values, continuous values, and all values equal.
    expect_greedy_matches_full_scan(seed, [](Rng& rng) {
      const double ipb[] = {12.0, 8.0, 1.0};
      return ipb[rng.uniform_int(0, 2)];
    });
    expect_greedy_matches_full_scan(
        seed, [](Rng& rng) { return rng.uniform(0.0, 10.0); });
    expect_greedy_matches_full_scan(seed, [](Rng&) { return 2.0; });
  }
}

TEST_F(PolicyTest, HeadDropShedsOldestFirst) {
  ServerBuffer buf = filled();
  HeadDropPolicy policy;
  policy.shed(buf, 6);
  EXPECT_EQ(buf.occupancy(), 6);
  EXPECT_EQ(remaining(buf, 0), 0);
  EXPECT_EQ(remaining(buf, 1), 2);
  EXPECT_EQ(remaining(buf, 2), 4);
}

TEST_F(PolicyTest, RandomDropReachesTargetDeterministically) {
  ServerBuffer buf1 = filled();
  ServerBuffer buf2 = filled();
  RandomDropPolicy a(123);
  RandomDropPolicy b(123);
  const DropResult f1 = a.shed(buf1, 5);
  const DropResult f2 = b.shed(buf2, 5);
  EXPECT_LE(buf1.occupancy(), 5);
  EXPECT_EQ(f1.bytes, f2.bytes);
  EXPECT_EQ(remaining(buf1, 0), remaining(buf2, 0));
  EXPECT_EQ(remaining(buf1, 1), remaining(buf2, 1));
}

TEST_F(PolicyTest, ShedIsNoopWhenAlreadyUnderTarget) {
  for (const auto& name : known_policies()) {
    ServerBuffer buf = filled();
    auto policy = make_policy(name);
    const DropResult freed = policy->shed(buf, 100);
    EXPECT_EQ(freed.slices, 0) << name;
    EXPECT_EQ(buf.occupancy(), 12) << name;
  }
}

TEST_F(PolicyTest, VariableSizeSlicesShedWholeSlicesOnly) {
  Stream s = stream_of({
      SliceRun{.arrival = 0, .slice_size = 5, .count = 2, .weight = 5.0},
      SliceRun{.arrival = 1, .slice_size = 3, .count = 2, .weight = 30.0},
  });
  ServerBuffer buf;
  buf.push(s.runs()[0], 0, 2);
  buf.push(s.runs()[1], 1, 2);  // 16 bytes total
  GreedyDropPolicy policy;
  policy.shed(buf, 8);  // must drop 5-byte value-1 slices (cheapest)
  EXPECT_EQ(buf.occupancy(), 6);  // dropped both 5B slices: 16 -> 6
}

TEST_F(PolicyTest, ProactiveEarlyDropsOnlyCheapDataAboveWatermark) {
  ServerBuffer buf = filled();  // 12 bytes
  ProactiveThresholdPolicy policy(
      ProactiveConfig{.watermark = 0.5, .value_floor = 2.0});
  // B = 12 -> watermark 6; only the w=1 run qualifies for early dropping.
  const DropResult freed = policy.early_drop(buf, 12, 0);
  EXPECT_EQ(freed.slices, 4);
  EXPECT_EQ(buf.occupancy(), 8);  // stuck above watermark: rest is too dear
  EXPECT_EQ(remaining(buf, 1), 4);
  EXPECT_EQ(remaining(buf, 2), 4);
}

TEST_F(PolicyTest, ProactiveBelowWatermarkDoesNothing) {
  ServerBuffer buf = filled();
  ProactiveThresholdPolicy policy(
      ProactiveConfig{.watermark = 1.0, .value_floor = 100.0});
  EXPECT_EQ(policy.early_drop(buf, 12, 0).slices, 0);
}

TEST_F(PolicyTest, FactoryKnowsAllNamesAndRejectsUnknown) {
  for (const auto& name : known_policies()) {
    EXPECT_EQ(make_policy(name)->name(), name);
  }
  EXPECT_THROW(make_policy("no-such-policy"), std::invalid_argument);
}

TEST_F(PolicyTest, CloneProducesEqualBehaviour) {
  for (const auto& name : known_policies()) {
    auto original = make_policy(name, 99);
    auto copy = original->clone();
    ServerBuffer b1 = filled();
    ServerBuffer b2 = filled();
    original->shed(b1, 4);
    copy->shed(b2, 4);
    EXPECT_EQ(b1.occupancy(), b2.occupancy()) << name;
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(remaining(b1, r), remaining(b2, r)) << name;
    }
  }
}

}  // namespace
}  // namespace rtsmooth
