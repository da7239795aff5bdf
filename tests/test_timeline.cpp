// Timeline tests (DESIGN.md Sect. 16): delta encoding against a live
// registry, the base-folding eviction invariant (base + sum(deltas) ==
// total at every instant), merge-on-same-step sampling, mid-run metric
// appearance, multi-window burn-rate math with its both-windows gate, and
// the determinism of the rtsmooth-series-v1 dump and its exact bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/timeline.h"

namespace rtsmooth::obs {
namespace {

TimelineConfig small_config() {
  TimelineConfig config;
  config.slot_steps = 10;
  config.capacity = 4;
  config.short_slots = 1;
  config.long_slots = 2;
  return config;
}

/// base + sum(deltas) == total for one counter column of a dump.
void expect_conserves(const Json& doc, const std::string& counter) {
  const Json& column = doc.at("counters").at(counter);
  std::int64_t sum = column.at("base").as_int();
  for (const Json& d : column.at("deltas").items()) sum += d.as_int();
  EXPECT_EQ(sum, column.at("total").as_int()) << counter;
}

TEST(TimelineConfig, Validation) {
  EXPECT_EQ(TimelineConfig{}.validate(), "");  // disabled is always fine
  TimelineConfig config;
  config.slot_steps = -1;
  EXPECT_NE(config.validate(), "");

  config = small_config();
  EXPECT_EQ(config.validate(), "");
  config.capacity = 0;
  EXPECT_NE(config.validate(), "");

  config = small_config();
  config.long_slots = 0;  // < short_slots
  EXPECT_NE(config.validate(), "");

  config = small_config();
  config.capacity = 1;  // long window no longer fits in the ring
  EXPECT_NE(config.validate(), "");

  // A disabled config may carry nonsense everywhere else.
  config = small_config();
  config.slot_steps = 0;
  config.capacity = 0;
  EXPECT_EQ(config.validate(), "");

  config = small_config();
  config.budgets.push_back(BurnBudget{.name = "x", .total = {"t"}});
  EXPECT_NE(config.validate(), "");  // empty bad list
  config.budgets.back().bad = {"b"};
  EXPECT_EQ(config.validate(), "");
  config.budgets.back().budget = 1.5;
  EXPECT_NE(config.validate(), "");
  config.budgets.back().budget = 0.5;
  config.budgets.back().threshold = 0.0;
  EXPECT_NE(config.validate(), "");

  EXPECT_THROW(Timeline(TimelineConfig{.slot_steps = -3}),
               std::invalid_argument);
}

TEST(Timeline, DeltaEncodesCountersGaugesAndHistograms) {
  Registry registry;
  Counter& bytes = registry.counter("d.bytes");
  Gauge& depth = registry.gauge("d.depth");
  Histogram& sizes =
      registry.histogram("d.sizes", HistogramSpec::exponential(4, 2));

  Timeline timeline(small_config());
  bytes.add(100);
  depth.update(7);
  sizes.record(3, 2);  // first bucket, weight 2
  timeline.sample(10, registry);
  bytes.add(40);
  depth.update(5);   // below the watermark: gauge stays at 7
  sizes.record(50);  // overflow bucket
  timeline.sample(20, registry);

  const Json doc = Json::parse(timeline.dump());
  EXPECT_EQ(doc.at("schema").as_string(), "rtsmooth-series-v1");
  EXPECT_EQ(doc.at("slots").as_int(), 2);
  EXPECT_EQ(doc.at("evicted").as_int(), 0);
  EXPECT_EQ(doc.at("slot_end_steps").at(0).as_int(), 10);
  EXPECT_EQ(doc.at("slot_end_steps").at(1).as_int(), 20);

  const Json& column = doc.at("counters").at("d.bytes");
  EXPECT_EQ(column.at("base").as_int(), 0);
  EXPECT_EQ(column.at("deltas").at(0).as_int(), 100);
  EXPECT_EQ(column.at("deltas").at(1).as_int(), 40);
  EXPECT_EQ(column.at("total").as_int(), 140);
  expect_conserves(doc, "d.bytes");

  const Json& gauge = doc.at("gauges").at("d.depth");
  EXPECT_EQ(gauge.at(0).as_int(), 7);
  EXPECT_EQ(gauge.at(1).as_int(), 7);

  const Json& hist = doc.at("histograms").at("d.sizes");
  EXPECT_EQ(hist.at("count").at("deltas").at(0).as_int(), 2);
  EXPECT_EQ(hist.at("count").at("deltas").at(1).as_int(), 1);
  EXPECT_EQ(hist.at("count").at("total").as_int(), 3);
  EXPECT_EQ(hist.at("sum").at("total").as_int(), 2 * 3 + 50);
  // Slot 0 landed weight 2 in the first bucket, slot 1 one record in the
  // overflow bucket.
  EXPECT_EQ(hist.at("buckets").at(0).at(0).as_int(), 2);
  EXPECT_EQ(hist.at("buckets").at(1).at(2).as_int(), 1);
}

TEST(Timeline, EvictionFoldsOldestSlotIntoBase) {
  Registry registry;
  Counter& c = registry.counter("c");
  Histogram& h = registry.histogram("h", HistogramSpec::linear(10, 2));

  TimelineConfig config = small_config();
  config.capacity = 2;
  Timeline timeline(config);
  for (std::int64_t t = 1; t <= 5; ++t) {
    c.add(t);        // deltas 1, 2, 3, 4, 5
    h.record(5, t);  // first bucket, weight t
    timeline.sample(t * 10, registry);
  }

  EXPECT_EQ(timeline.slots(), 2u);
  EXPECT_EQ(timeline.evicted(), 3);
  const Json doc = Json::parse(timeline.dump());
  const Json& column = doc.at("counters").at("c");
  EXPECT_EQ(column.at("base").as_int(), 1 + 2 + 3);
  EXPECT_EQ(column.at("deltas").at(0).as_int(), 4);
  EXPECT_EQ(column.at("deltas").at(1).as_int(), 5);
  EXPECT_EQ(column.at("total").as_int(), 15);
  expect_conserves(doc, "c");

  const Json& hist = doc.at("histograms").at("h");
  // record(v, w) adds w to the count, so the evicted weight is 1+2+3.
  EXPECT_EQ(hist.at("count").at("base").as_int(), 1 + 2 + 3);
  EXPECT_EQ(hist.at("bucket_base").at(0).as_int(), 1 + 2 + 3);
  EXPECT_EQ(hist.at("sum").at("base").as_int(), 5 * (1 + 2 + 3));
  // Only the surviving slots keep per-slot rows.
  EXPECT_EQ(hist.at("buckets").size(), 2u);
  EXPECT_EQ(hist.at("buckets").at(1).at(0).as_int(), 5);
}

TEST(Timeline, SampleAtSameStepMergesIntoLastSlot) {
  Registry registry;
  Counter& c = registry.counter("c");
  Timeline timeline(small_config());

  c.add(10);
  timeline.sample(10, registry);
  // The daemon's terminal sample can land on the step of the last cadence
  // sample after the shutdown drain mutated counters without advancing
  // the step count — it must merge, not open a duplicate slot.
  c.add(5);
  timeline.sample(10, registry);

  EXPECT_EQ(timeline.slots(), 1u);
  const Json doc = Json::parse(timeline.dump());
  EXPECT_EQ(doc.at("counters").at("c").at("deltas").at(0).as_int(), 15);
  EXPECT_EQ(doc.at("counters").at("c").at("total").as_int(), 15);
  expect_conserves(doc, "c");
}

TEST(Timeline, MetricAppearingMidRunZeroFillsItsHistory) {
  Registry registry;
  registry.counter("early").add(1);
  Timeline timeline(small_config());
  timeline.sample(10, registry);

  registry.counter("late").add(9);
  registry.gauge("late_gauge").update(4);
  timeline.sample(20, registry);

  const Json doc = Json::parse(timeline.dump());
  const Json& late = doc.at("counters").at("late");
  EXPECT_EQ(late.at("deltas").size(), 2u);
  EXPECT_EQ(late.at("deltas").at(0).as_int(), 0);  // zero-filled history
  EXPECT_EQ(late.at("deltas").at(1).as_int(), 9);
  expect_conserves(doc, "late");
  // Gauges backfill with the current value (monotone either way).
  const Json& gauge = doc.at("gauges").at("late_gauge");
  EXPECT_EQ(gauge.at(0).as_int(), 4);
  EXPECT_EQ(gauge.at(1).as_int(), 4);
}

TEST(Timeline, BurnFiresOnlyWhenBothWindowsExceedThreshold) {
  Registry registry;
  Counter& bad = registry.counter("bad");
  Counter& total = registry.counter("total");

  TimelineConfig config = small_config();
  config.capacity = 8;
  config.short_slots = 1;
  config.long_slots = 4;
  config.budgets.push_back(BurnBudget{.name = "miss",
                                      .bad = {"bad"},
                                      .total = {"total"},
                                      .budget = 0.10,
                                      .threshold = 1.0});
  Timeline timeline(config);

  // Three clean slots: no burn at all.
  for (std::int64_t t = 1; t <= 3; ++t) {
    total.add(100);
    const std::vector<BurnStatus>& statuses =
        timeline.sample(t * 10, registry);
    ASSERT_EQ(statuses.size(), 1u);
    EXPECT_EQ(statuses[0].short_burn, 0.0);
    EXPECT_FALSE(statuses[0].firing);
  }

  // A mildly bad slot stays under the threshold in both windows.
  bad.add(4);  // short fraction 4/100 = 0.04 -> 0.4x budget
  total.add(100);
  {
    const BurnStatus& status = timeline.sample(40, registry)[0];
    EXPECT_FALSE(status.firing);
    EXPECT_DOUBLE_EQ(status.short_burn, 0.4);
    EXPECT_DOUBLE_EQ(status.long_burn, 0.1);  // 4/400 over the budget
  }

  // A hot spike: the short window fires instantly (20/100 = 2x budget),
  // but the long window holds the gate closed (24/400 = 0.6x).
  bad.add(20);
  total.add(100);
  {
    const BurnStatus& status = timeline.sample(50, registry)[0];
    EXPECT_DOUBLE_EQ(status.short_burn, 2.0);
    EXPECT_DOUBLE_EQ(status.long_burn, 0.6);
    EXPECT_FALSE(status.firing) << "one spike must not page";
    EXPECT_EQ(status.alerts, 0);
  }

  // Sustained badness: both windows exceed the threshold -> firing, and
  // alerts counts every firing sample.
  for (std::int64_t t = 6; t <= 8; ++t) {
    bad.add(50);
    total.add(50);
    const BurnStatus& status = timeline.sample(t * 10, registry)[0];
    EXPECT_GE(status.short_burn, 1.0);
    if (t == 8) {
      EXPECT_GE(status.long_burn, 1.0);
      EXPECT_TRUE(status.firing);
      EXPECT_GE(status.alerts, 1);
    }
  }

  // Budgets naming absent counters never fire and never divide by zero.
  TimelineConfig absent = small_config();
  absent.budgets.push_back(
      BurnBudget{.name = "ghost", .bad = {"no.such"}, .total = {"nope"}});
  Timeline ghost(absent);
  const BurnStatus& status = ghost.sample(10, registry)[0];
  EXPECT_EQ(status.short_burn, 0.0);
  EXPECT_FALSE(status.firing);
}

TEST(Timeline, DumpIsDeterministicAcrossIdenticalFeeds) {
  const auto run = [] {
    Registry registry;
    Timeline timeline(small_config());
    for (std::int64_t t = 1; t <= 6; ++t) {
      registry.counter("z.last").add(t);
      registry.counter("a.first").add(2 * t);
      registry.gauge("m.depth").update(t * t);
      registry.histogram("h", HistogramSpec::exponential(2, 3))
          .record(t, 3);
      timeline.sample(t * 10, registry);
    }
    return timeline.dump();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"a.first\""), std::string::npos);
  // Lexicographic metric order, independent of registration order.
  EXPECT_LT(first.find("\"a.first\""), first.find("\"z.last\""));
}

/// Feeds a capacity-4 ring nine samples: eight slots, so four evict into
/// base; a counter, a gauge and a histogram that appear mid-run; a sample
/// at the same step that merges into the last slot; and budgets whose burn
/// rates are not whole numbers, one of them firing and one named with
/// characters that need escaping.
std::string golden_feed_dump() {
  TimelineConfig config;
  config.slot_steps = 10;
  config.capacity = 4;
  config.short_slots = 2;
  config.long_slots = 3;
  config.budgets.push_back(BurnBudget{.name = "miss \"late\"\t",
                                      .bad = {"late"},
                                      .total = {"played", "late"},
                                      .budget = 0.03,
                                      .threshold = 1.5});
  config.budgets.push_back(BurnBudget{
      .name = "hot", .bad = {"late"}, .total = {"played"}, .budget = 0.01});
  config.budgets.push_back(BurnBudget{.name = "ghost",
                                      .bad = {"no.such"},
                                      .total = {"played"},
                                      .budget = 0.7});
  Timeline timeline(config);
  Registry registry;
  Counter& played = registry.counter("played");
  Gauge& depth = registry.gauge("depth");
  Histogram& sizes =
      registry.histogram("sizes", HistogramSpec::exponential(2, 3));
  for (std::int64_t i = 1; i <= 7; ++i) {
    played.add(97 * i);
    depth.update(3 * i + (i % 3));
    sizes.record(i * i, i);
    if (i >= 2) {
      registry.histogram("late.sizes", HistogramSpec::linear(5, 2))
          .record(7 * i);
    }
    if (i >= 3) registry.counter("late").add(i + 1);
    if (i >= 4) registry.gauge("late.depth").update(10 + i);
    timeline.sample(i * 10, registry);
  }
  played.add(5);
  registry.counter("late").add(2);
  sizes.record(1);
  timeline.sample(70, registry);  // same step: merges into the last slot
  played.add(13);
  timeline.sample(80, registry);
  EXPECT_EQ(timeline.slots(), 4u);
  EXPECT_EQ(timeline.evicted(), 4);
  return timeline.dump();
}

TEST(Timeline, DumpMatchesGoldenBytesThroughEvictionMergeAndBurn) {
  // The exact rtsmooth-series-v1 bytes: key order, integer and shortest
  // double forms, and escapes, through eviction, merge and burn.
  const std::string golden =
      R"json({"schema":"rtsmooth-series-v1","slot_steps":10,"capacity":4,)json"
      R"json("slots":4,"evicted":4,"slot_end_steps":[50,60,70,80],)json"
      R"json("counters":{"late":{"base":9,"deltas":[6,7,10,0],"total":32},)json"
      R"json("played":{"base":970,"deltas":[485,582,684,13],)json"
      R"json("total":2734}},)json"
      R"json("gauges":{"depth":[17,18,22,22],"late.depth":[15,16,17,17]},)json"
      R"json("histograms":{"late.sizes":{"bounds":[5,10],)json"
      R"json("count":{"base":3,"deltas":[1,1,1,0],"total":6},)json"
      R"json("sum":{"base":63,"deltas":[35,42,49,0],"total":189},)json"
      R"json("bucket_base":[0,0,3],"buckets":[[0,0,1],[0,0,1],[0,0,1],[0,)json"
      R"json(0,0]]},)json"
      R"json("sizes":{"bounds":[2,4,8],"count":{"base":10,"deltas":[5,6,8,)json"
      R"json(0],"total":29},"sum":{"base":100,"deltas":[125,216,344,0],)json"
      R"json("total":785},"bucket_base":[1,2,0,7],"buckets":[[0,0,0,5],[0,)json"
      R"json(0,0,6],[1,0,0,7],[0,0,0,0]]}},)json"
      R"json("burn":{"short_slots":2,"long_slots":3,)json"
      R"json("budgets":[{"name":"miss \"late\"\t","budget":0.03,)json"
      R"json("threshold":1.5,"bad":["late"],"total":["played","late"],)json"
      R"json("short_burn":0.47147571900047147,)json"
      R"json("long_burn":0.43724279835390945,"firing":false,"alerts":0},)json"
      R"json({"name":"hot","budget":0.01,"threshold":1.0,"bad":["late"],)json"
      R"json("total":["played"],"short_burn":1.4347202295552366,)json"
      R"json("long_burn":1.3291634089132134,"firing":true,"alerts":6},)json"
      R"json({"name":"ghost","budget":0.7,"threshold":1.0,)json"
      R"json("bad":["no.such"],"total":["played"],"short_burn":0.0,)json"
      R"json("long_burn":0.0,"firing":false,"alerts":0}]}})json";
  EXPECT_EQ(golden_feed_dump(), golden);
}

}  // namespace
}  // namespace rtsmooth::obs
