// Unit tests for the obs layer: Json serialization, Counter/Gauge/Histogram
// semantics, deterministic Registry merging, TraceWriter error handling —
// plus the acceptance checks that tie telemetry back to the paper: the
// byte-sojourn histogram of a lossless balanced run respects Lemma 3.2
// (no byte sits in the server buffer longer than D = B/R), and the JSONL
// run trace has the documented event shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "trace/slicer.h"
#include "trace/stock_clips.h"

namespace rtsmooth::obs {
namespace {

// ------------------------------------------------------------------- Json

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::int64_t{-42}).dump(), "-42");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, DoublesUseShortestRoundTripWithDecimalPoint) {
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  // Integral doubles keep a ".0" so readers can't mistake them for ints.
  EXPECT_EQ(Json(3.0).dump(), "3.0");
  EXPECT_EQ(Json(0.1).dump(), "0.1");
  // Non-finite values are not representable in JSON; they become null.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, StringsEscapeControlCharactersAndQuotes) {
  EXPECT_EQ(Json("a\"b").dump(), "\"a\\\"b\"");
  EXPECT_EQ(Json("a\\b").dump(), "\"a\\\\b\"");
  EXPECT_EQ(Json("a\nb\tc").dump(), "\"a\\nb\\tc\"");
  EXPECT_EQ(Json(std::string("a\x01z")).dump(), "\"a\\u0001z\"");
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json obj = Json::object();
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["zebra"] = 3;  // overwrite keeps the original position
  EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"apple\":2}");
}

TEST(Json, ArraysAndNesting) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  Json inner = Json::object();
  inner["k"] = Json();
  arr.push_back(std::move(inner));
  EXPECT_EQ(arr.dump(), "[1,\"two\",{\"k\":null}]");
}

TEST(Json, RawFragmentDumpsVerbatimInObjectsAndArrays) {
  const std::string fragment = R"({"a":[1,2.5,"x\ty"],"b":{"c":null}})";
  Json obj = Json::object();
  obj["before"] = 1;
  obj["raw"] = Json::raw(fragment);
  obj["after"] = "z";
  EXPECT_EQ(obj.dump(), "{\"before\":1,\"raw\":" + fragment +
                            ",\"after\":\"z\"}");
  Json arr = Json::array();
  arr.push_back(Json::raw(fragment));
  arr.push_back(Json::raw("7"));
  EXPECT_EQ(arr.dump(), "[" + fragment + ",7]");

  // Parsing the spliced document gives the tree parsing the fragment gives.
  const Json parsed = Json::parse(obj.dump());
  EXPECT_EQ(parsed.at("raw"), Json::parse(fragment));
  EXPECT_EQ(Json::parse(arr.dump()).at(0), Json::parse(fragment));
  EXPECT_EQ(parsed.dump(), obj.dump());

  // A raw fragment is opaque: every accessor throws, like on any other
  // kind mismatch.
  const Json raw = Json::raw(fragment);
  EXPECT_FALSE(raw.is_object());
  EXPECT_FALSE(raw.is_string());
  EXPECT_EQ(raw.find("a"), nullptr);
  EXPECT_THROW((void)raw.at("a"), std::runtime_error);
  EXPECT_THROW((void)raw.at(std::size_t{0}), std::runtime_error);
  EXPECT_THROW((void)raw.as_string(), std::runtime_error);
  EXPECT_THROW((void)raw.as_int(), std::runtime_error);
}

TEST(Json, WriterHandlesIntegerExtremesAndAdjacentEscapes) {
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::min()).dump(),
            "-9223372036854775808");
  EXPECT_EQ(Json(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");
  EXPECT_EQ(Json(-0.0).dump(), "-0.0");
  EXPECT_EQ(Json(1e300).dump(), "1e+300");
  // Escapes back to back and between plain bytes; UTF-8 passes through.
  std::string out;
  Json::append_string(out, std::string("ab\"\\\x1f\ncd\xc3\xa9"));
  EXPECT_EQ(out, "\"ab\\\"\\\\\\u001f\\ncd\xc3\xa9\"");
}

// ------------------------------------------------------------ Json parse

TEST(JsonParse, RoundTripsDumpedDocuments) {
  Json doc = Json::object();
  doc["name"] = "run";
  doc["count"] = 42;
  doc["ratio"] = 0.5;
  doc["ok"] = true;
  doc["nothing"] = Json();
  Json arr = Json::array();
  arr.push_back(-7);
  arr.push_back("x");
  doc["list"] = std::move(arr);
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(JsonParse, PreservesIntVersusDouble) {
  const Json doc = Json::parse("{\"i\":10,\"d\":10.0,\"e\":1e2,\"n\":-3}");
  EXPECT_TRUE(doc.at("i").is_int());
  EXPECT_EQ(doc.at("i").as_int(), 10);
  EXPECT_TRUE(doc.at("d").is_double());
  EXPECT_DOUBLE_EQ(doc.at("d").as_double(), 10.0);
  EXPECT_TRUE(doc.at("e").is_double());
  EXPECT_DOUBLE_EQ(doc.at("e").as_double(), 100.0);
  EXPECT_EQ(doc.at("n").as_int(), -3);
  // as_double accepts either number kind; as_int only true ints.
  EXPECT_DOUBLE_EQ(doc.at("i").as_double(), 10.0);
  EXPECT_THROW(doc.at("d").as_int(), std::runtime_error);
}

TEST(JsonParse, DecodesEscapesIncludingUnicode) {
  const Json doc =
      Json::parse("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\n\tA\xc3\xa9");
  // Surrogate pair: U+1F600 must decode to 4 UTF-8 bytes.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, WhitespaceIsInsignificant) {
  const Json doc = Json::parse("  { \"a\" : [ 1 , 2 ] , \"b\" : null }  ");
  EXPECT_EQ(doc.dump(), "{\"a\":[1,2],\"b\":null}");
}

TEST(JsonParse, ErrorsNameTheByteOffset) {
  try {
    Json::parse("{\"a\":}");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("byte 5"), std::string::npos);
  }
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1 2]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW(Json::parse("truish"), std::runtime_error);
}

TEST(JsonParse, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // 100k levels would recurse the stack away; the parser stops at level
  // 129 and names the byte where it did.
  const auto expect_depth_error = [](const std::string& text,
                                     const std::string& offset) {
    try {
      Json::parse(text);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nesting deeper than 128"), std::string::npos)
          << what;
      EXPECT_NE(what.find("byte " + offset), std::string::npos) << what;
    }
  };
  expect_depth_error(std::string(100000, '['), "128");
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  expect_depth_error(objects, "640");  // 128 levels of 5 bytes
}

TEST(JsonParse, NestingAtTheCapParses) {
  const std::string at_cap = std::string(128, '[') + std::string(128, ']');
  EXPECT_EQ(Json::parse(at_cap).dump(), at_cap);
  std::string objects;
  for (int i = 0; i < 127; ++i) objects += "{\"a\":";
  objects += "{}" + std::string(127, '}');
  EXPECT_EQ(Json::parse(objects).dump(), objects);
  const std::string past_cap = "[" + at_cap + "]";
  EXPECT_THROW(Json::parse(past_cap), std::runtime_error);
}

TEST(JsonParse, AccessorsProbeAndThrow) {
  const Json doc = Json::parse("{\"a\":1}");
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_THROW(doc.at("missing"), std::runtime_error);
  EXPECT_THROW(doc.at(std::size_t{0}), std::runtime_error);  // not an array
  EXPECT_THROW(doc.at("a").as_string(), std::runtime_error);
  EXPECT_THROW(doc.at("a").as_bool(), std::runtime_error);
}

// ------------------------------------------------------- instrument types

TEST(Counter, AddsAndDefaultsToOne) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.add();
  c.add(10);
  EXPECT_EQ(c.value(), 11);
}

TEST(Gauge, KeepsHighWatermark) {
  Gauge g;
  g.update(5);
  g.update(3);
  EXPECT_EQ(g.value(), 5);
  g.update(9);
  EXPECT_EQ(g.value(), 9);
}

TEST(HistogramSpec, ExponentialDoublesAndLinearSteps) {
  EXPECT_EQ(HistogramSpec::exponential(1, 4).bounds,
            (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(HistogramSpec::linear(10, 3).bounds,
            (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(Histogram, BucketsByInclusiveUpperBoundWithOverflow) {
  Histogram h(HistogramSpec{.bounds = {1, 10, 100}});
  h.record(1);    // first bucket (bound inclusive)
  h.record(2);    // second
  h.record(10);   // second
  h.record(101);  // overflow
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{1, 2, 0, 1}));
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 114);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 101);
  EXPECT_DOUBLE_EQ(h.mean(), 114.0 / 4.0);
}

TEST(Histogram, WeightedRecordCountsWeightNotSamples) {
  Histogram h(HistogramSpec{.bounds = {4, 8}});
  h.record(3, 100);  // e.g. a 100-byte piece with sojourn 3
  EXPECT_EQ(h.count(), 100);
  EXPECT_EQ(h.sum(), 300);
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{100, 0, 0}));
}

TEST(Histogram, BoundaryValuesLandInTheLowerBucket) {
  Histogram h(HistogramSpec{.bounds = {0, 5, 10}});
  h.record(0);    // inclusive upper bound of the first bucket
  h.record(5);    // second
  h.record(6);    // third
  h.record(10);   // third
  h.record(11);   // overflow
  h.record(-3);   // below every bound: first bucket
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{2, 1, 2, 1}));
  EXPECT_EQ(h.min(), -3);
  EXPECT_EQ(h.max(), 11);
}

TEST(Histogram, BucketLookupMatchesLowerBound) {
  // record() starts at a table entry chosen by the value's bit width and
  // scans forward; whatever the spec, the bucket must be the one
  // std::lower_bound picks (the first bound >= value, else overflow).
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<HistogramSpec> specs = {
      // Every spec the library's instrumentation sites use.
      HistogramSpec::exponential(1, 16), HistogramSpec::exponential(1, 20),
      HistogramSpec::exponential(1, 24), HistogramSpec::exponential(1, 32),
      HistogramSpec::exponential(64, 16),
      // Linear layouts, up to the largest bucket count a table byte holds.
      HistogramSpec::linear(1, 10), HistogramSpec::linear(7, 30),
      HistogramSpec::linear(1000, 253),
      // Arbitrary, zero, negative and extreme bounds.
      HistogramSpec{.bounds = {1, 10, 100}},
      HistogramSpec{.bounds = {0, 5, 10}}, HistogramSpec{.bounds = {4, 8}},
      HistogramSpec{.bounds = {-100, -1, 0, 1}},
      HistogramSpec{.bounds = {kMin + 1, 0, kMax}},
      HistogramSpec{.bounds = {kMin + 1}}, HistogramSpec{.bounds = {kMax}},
      HistogramSpec{.bounds = {-5, 3, std::int64_t{1} << 40, kMax - 1}}};

  std::vector<std::int64_t> common = {kMin, kMin + 1, -1, 0, 1, kMax - 1,
                                      kMax};
  for (int k = 0; k < 63; ++k) {
    const std::int64_t p = std::int64_t{1} << k;
    for (const std::int64_t v : {p - 1, p, p + 1, -p}) common.push_back(v);
  }
  std::uint64_t state = 0x2545f4914f6cdd1dULL;  // fixed seed (splitmix64)
  for (int i = 0; i < 2000; ++i) {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    // Spread magnitudes: shift by a random amount, keep the sign bit's
    // draw for half of them.
    const std::uint64_t shifted = z >> (z % 64);
    common.push_back(static_cast<std::int64_t>(i % 2 == 0 ? z : shifted));
  }

  for (const HistogramSpec& spec : specs) {
    std::vector<std::int64_t> values = common;
    for (const std::int64_t bound : spec.bounds) {
      for (std::int64_t d = -2; d <= 2; ++d) {
        if ((d < 0 && bound < kMin - d) || (d > 0 && bound > kMax - d)) {
          continue;  // bound + d would overflow
        }
        values.push_back(bound + d);
      }
    }
    for (const std::int64_t value : values) {
      const std::size_t expected = static_cast<std::size_t>(
          std::lower_bound(spec.bounds.begin(), spec.bounds.end(), value) -
          spec.bounds.begin());
      Histogram h(spec);  // fresh: one sample, so sum() cannot overflow
      h.record(value);
      ASSERT_EQ(h.counts()[expected], 1)
          << "value " << value << " with " << spec.bounds.size()
          << " bounds from " << spec.bounds.front();
    }
  }
}

TEST(Histogram, ZeroWeightIsANoOp) {
  Histogram h(HistogramSpec{.bounds = {4, 8}});
  h.record(3, 0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);  // still the empty sentinel
  EXPECT_EQ(h.counts(), (std::vector<std::int64_t>{0, 0, 0}));
}

TEST(Histogram, NegativeWeightThrows) {
  Histogram h(HistogramSpec{.bounds = {4, 8}});
  EXPECT_THROW(h.record(3, -1), std::invalid_argument);
  EXPECT_EQ(h.count(), 0);  // the rejected record left no trace
}

TEST(Histogram, MergeOfMismatchedSpecsThrows) {
  Histogram a(HistogramSpec{.bounds = {1, 10}});
  Histogram narrow(HistogramSpec{.bounds = {1}});
  Histogram shifted(HistogramSpec{.bounds = {1, 20}});
  a.record(5);
  narrow.record(1);
  shifted.record(15);
  EXPECT_THROW(a.merge(narrow), std::invalid_argument);
  EXPECT_THROW(a.merge(shifted), std::invalid_argument);
  // The failed merges changed nothing.
  EXPECT_EQ(a.count(), 1);
  EXPECT_EQ(a.counts(), (std::vector<std::int64_t>{0, 1, 0}));
}

TEST(Histogram, EmptyMinMaxAreZero) {
  const Histogram h(HistogramSpec{.bounds = {1}});
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(Histogram, MergeAddsBucketsAndWidensExtremes) {
  Histogram a(HistogramSpec{.bounds = {1, 10}});
  Histogram b(HistogramSpec{.bounds = {1, 10}});
  a.record(1);
  b.record(7);
  b.record(50);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_EQ(a.min(), 1);
  EXPECT_EQ(a.max(), 50);
  EXPECT_EQ(a.counts(), (std::vector<std::int64_t>{1, 1, 1}));
}

TEST(Histogram, ToJsonCarriesBoundsAndCounts) {
  Histogram h(HistogramSpec{.bounds = {2, 4}});
  h.record(3);
  EXPECT_EQ(h.to_json().dump(),
            "{\"count\":1,\"sum\":3,\"min\":3,\"max\":3,"
            "\"bounds\":[2,4],\"counts\":[0,1,0]}");
}

// --------------------------------------------------------------- Registry

TEST(Registry, FetchOrCreateReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("x");
  a.add(3);
  EXPECT_EQ(reg.counter("x").value(), 3);
  Histogram& h = reg.histogram("h", HistogramSpec::exponential(1, 4));
  h.record(2);
  // Later lookups ignore the (different) spec and return the existing one.
  EXPECT_EQ(reg.histogram("h", HistogramSpec::linear(5, 2)).count(), 1);
}

TEST(Registry, MergeFoldsEverySection) {
  Registry a;
  Registry b;
  a.counter("c").add(1);
  b.counter("c").add(2);
  b.counter("only_b").add(5);
  a.gauge("g").update(10);
  b.gauge("g").update(7);
  a.histogram("h", HistogramSpec::exponential(1, 4)).record(2);
  b.histogram("h", HistogramSpec::exponential(1, 4)).record(3);
  b.timer("t").record(100);
  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 3);
  EXPECT_EQ(a.counter("only_b").value(), 5);
  EXPECT_EQ(a.gauge("g").value(), 10);
  EXPECT_EQ(a.histogram("h", HistogramSpec::exponential(1, 4)).count(), 2);
  EXPECT_EQ(a.timers().at("t").count(), 1);
}

TEST(Registry, MergeIsOrderInsensitiveForCommutativeSections) {
  // Counters, gauges and histograms all fold commutatively, which is why
  // the per-cell merge in sweep() yields thread-count-independent
  // snapshots (the fixed submission order makes it deterministic even if
  // a future instrument is not commutative).
  Registry a1;
  Registry a2;
  Registry b1;
  Registry b2;
  for (Registry* r : {&a1, &b2}) {
    r->counter("c").add(2);
    r->gauge("g").update(4);
    r->histogram("h", HistogramSpec::exponential(1, 4)).record(1);
  }
  for (Registry* r : {&a2, &b1}) {
    r->counter("c").add(7);
    r->gauge("g").update(1);
    r->histogram("h", HistogramSpec::exponential(1, 4)).record(9);
  }
  a1.merge(a2);  // x then y
  b1.merge(b2);  // y then x
  EXPECT_EQ(a1.to_json(false).dump(), b1.to_json(false).dump());
}

TEST(Registry, SnapshotOrdersNamesLexicographicallyAndQuarantinesTimers) {
  Registry reg;
  reg.counter("z.last").add(1);
  reg.counter("a.first").add(2);
  reg.timer("noisy").record(5);
  const std::string with_timers = reg.to_json(true).dump();
  const std::string deterministic = reg.to_json(false).dump();
  EXPECT_LT(with_timers.find("a.first"), with_timers.find("z.last"));
  EXPECT_NE(with_timers.find("\"timers\""), std::string::npos);
  EXPECT_EQ(deterministic.find("noisy"), std::string::npos);
  EXPECT_FALSE(reg.empty());
  EXPECT_TRUE(Registry{}.empty());
}

// ------------------------------------------------------ Telemetry & Span

TEST(Telemetry, NullHandleIsDisabled) {
  const Telemetry null_handle;
  EXPECT_FALSE(null_handle.enabled());
  EXPECT_FALSE(static_cast<bool>(null_handle));
  Registry reg;
  const Telemetry with_registry{.registry = &reg};
  EXPECT_TRUE(with_registry.enabled());
}

TEST(Span, RecordsIntoTimerSectionOnlyWhenEnabled) {
  Registry reg;
  {
    const Span span(Telemetry{.registry = &reg}, "scope");
  }
  {
    const Span disabled(Telemetry{}, "scope");  // must be a no-op
  }
  ASSERT_EQ(reg.timers().count("scope"), 1u);
  EXPECT_EQ(reg.timers().at("scope").count(), 1);
  EXPECT_TRUE(reg.to_json(false).dump().find("scope") == std::string::npos);
}

// -------------------------------------------------------------- TraceWriter

TEST(TraceWriter, ThrowsWhenPathCannotBeOpened) {
  EXPECT_THROW(TraceWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

TEST(TraceWriter, WritesOneLinePerEvent) {
  std::ostringstream out;
  TraceWriter writer(out);
  Json e1 = Json::object();
  e1["type"] = "step";
  writer.write(e1);
  Json e2 = Json::object();
  e2["type"] = "run";
  writer.write(e2);
  EXPECT_EQ(writer.events(), 2);
  EXPECT_EQ(out.str(), "{\"type\":\"step\"}\n{\"type\":\"run\"}\n");
}

// A streambuf that refuses every byte, simulating a full disk.
struct FailBuf : std::streambuf {
  int overflow(int) override { return traits_type::eof(); }
};

TEST(TraceWriter, ThrowsWhenTheStreamFailsMidWrite) {
  FailBuf buf;
  std::ostream broken(&buf);
  TraceWriter writer(broken);
  Json event = Json::object();
  event["type"] = "step";
  EXPECT_THROW(writer.write(event), std::runtime_error);
}

TEST(TraceWriter, WriteFailureOnAFileNamesThePath) {
  // /dev/full opens fine and fails with ENOSPC once the stream's buffer
  // actually flushes — the closest thing to a deterministic full disk.
  if (!std::ifstream("/dev/full").good()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  TraceWriter writer("/dev/full");
  Json event = Json::object();
  event["payload"] = std::string(1 << 16, 'x');  // defeat stream buffering
  try {
    for (int i = 0; i < 64; ++i) writer.write(event);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos);
  }
}

// -------------------------------------------- simulator acceptance checks

Stream clip(std::size_t frames) {
  return trace::slice_frames(trace::stock_clip("cnn-news", frames),
                             trace::ValueModel::mpeg_default(),
                             trace::Slicing::ByteSlices);
}

// Lemma 3.2: in the balanced plan (B = D*R) no accepted byte spends more
// than D steps in the server buffer. The byte-weighted sojourn histogram
// of a lossless run must respect that bound exactly.
TEST(SimulatorTelemetry, LosslessSojournRespectsLemma32) {
  const Stream s = clip(300);
  const Plan plan = Planner::from_buffer_rate(8 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 1.2));
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  Registry reg;
  config.telemetry = Telemetry{.registry = &reg};
  const SimReport report = sim::simulate(s, config, "greedy");
  ASSERT_EQ(report.dropped_server.bytes, 0) << "run must be lossless";
  const auto it = reg.histograms().find("byte.sojourn_steps");
  ASSERT_NE(it, reg.histograms().end());
  EXPECT_EQ(it->second.count(), report.offered.bytes);  // byte-weighted
  EXPECT_LE(it->second.max(), plan.delay);
  EXPECT_GE(it->second.max(), 1);
}

TEST(SimulatorTelemetry, RegistryCountersMatchReport) {
  const Stream s = clip(200);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 0.9));
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  Registry reg;
  config.telemetry = Telemetry{.registry = &reg};
  const SimReport report = sim::simulate(s, config, "tail-drop");
  EXPECT_EQ(reg.counter("server.sent_bytes").value(),
            static_cast<std::int64_t>(report.played.bytes) +
                static_cast<std::int64_t>(report.residual.bytes));
  EXPECT_EQ(reg.counter("client.played_bytes").value(),
            static_cast<std::int64_t>(report.played.bytes));
  EXPECT_EQ(reg.counter("sim.steps").value(),
            static_cast<std::int64_t>(report.steps));
  EXPECT_EQ(reg.counter("sim.runs").value(), 1);
  EXPECT_EQ(reg.gauge("server.max_occupancy").value(),
            static_cast<std::int64_t>(report.max_server_occupancy));
}

// The telemetry handle must not perturb the simulation itself: identical
// runs with and without a registry produce identical reports.
TEST(SimulatorTelemetry, InstrumentationDoesNotChangeResults) {
  const Stream s = clip(200);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 0.9));
  const SimReport bare = sim::simulate(s, plan, "greedy");
  Registry reg;
  const SimReport instrumented =
      sim::simulate(s, plan, "greedy", 1, Telemetry{.registry = &reg});
  EXPECT_EQ(bare, instrumented);
  EXPECT_FALSE(reg.empty());
}

// ------------------------------------------------------ JSONL trace shape

std::vector<std::string> trace_lines(const Stream& s, const Plan& plan) {
  std::ostringstream out;
  TraceWriter writer(out);
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  config.telemetry = Telemetry{.tracer = &writer};
  sim::simulate(s, config, "greedy");
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(SimulatorTrace, EventStreamHasDocumentedShape) {
  const Stream s = clip(100);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 0.9));
  const auto lines = trace_lines(s, plan);
  ASSERT_GE(lines.size(), 3u);
  // Golden prefix: the config event is fully deterministic.
  std::ostringstream expected;
  expected << "{\"type\":\"config\",\"server_buffer\":" << plan.buffer
           << ",\"client_buffer\":" << plan.buffer
           << ",\"rate\":" << plan.rate
           << ",\"smoothing_delay\":" << plan.delay
           << ",\"link_delay\":1,\"runs\":" << s.run_count() << "}";
  EXPECT_EQ(lines.front(), expected.str());
  EXPECT_NE(lines.back().find("\"type\":\"run\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"invariant_violations\":0"),
            std::string::npos);
  // Every line between them is a step event carrying the CSV columns.
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(lines[i].find("{\"type\":\"step\",\"t\":"), 0u) << lines[i];
    for (const char* key :
         {"\"arrived\":", "\"sent\":", "\"delivered\":", "\"played\":",
          "\"dropped_server\":", "\"dropped_client\":",
          "\"server_occupancy\":", "\"client_occupancy\":",
          "\"stalled\":"}) {
      EXPECT_NE(lines[i].find(key), std::string::npos)
          << "step event missing " << key;
    }
  }
}

TEST(SimulatorTrace, TraceMatchesStepTraceRowCount) {
  const Stream s = clip(80);
  const Plan plan = Planner::from_buffer_rate(2 * s.max_frame_bytes(),
                                              sim::relative_rate(s, 1.0));
  const auto lines = trace_lines(s, plan);
  sim::SimConfig config = sim::SimConfig::balanced(plan);
  const SimReport report = sim::simulate(s, config, "greedy");
  // config + one step event per simulated step + run summary.
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(report.steps) + 2);
}

}  // namespace
}  // namespace rtsmooth::obs
