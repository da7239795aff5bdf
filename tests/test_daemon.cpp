// Daemon subsystem tests (DESIGN.md Sect. 13): frame sources and the wire
// format, ingest stall/retry/timeout handling, the SLO watchdog and
// degradation ladder, the Sect. 3.3 plan classifier, the fault schedule
// parser, the engine's abort-to-residual path, and the Daemon's serving
// loop end to end — clean completion, a fault program's erasures, NACKs
// and cap splits across reconfigurations, overload escalation with valid
// incident documents, signal-driven
// shutdown, and the snapshot's ledger tallies against the registry counters
// that hold them. The drain-and-replan differential suite lives in
// test_reconfig.cpp.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/rtsmoothd.h"
#include "faults/fault_schedule.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"

namespace rtsmooth::daemon {
namespace {

// ------------------------------------------------------------ frame sources

TEST(GeneratorSource, DeterministicFromSeedAndBounded) {
  GeneratorConfig cfg;
  cfg.channels = 3;
  cfg.mean_frame_bytes = 512;
  cfg.max_frame_bytes = 2048;
  cfg.min_frame_bytes = 32;
  cfg.seed = 42;
  cfg.frames_per_channel = 20;
  GeneratorSource a(cfg);
  GeneratorSource b(cfg);
  std::vector<IngestFrame> fa;
  std::vector<IngestFrame> fb;
  for (Time t = 0; t < 20; ++t) {
    EXPECT_EQ(a.poll(t, fa), PollStatus::Ready);
    EXPECT_EQ(b.poll(t, fb), PollStatus::Ready);
  }
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(fa.size(), 60u);  // 3 channels x 20 frames
  for (const IngestFrame& f : fa) {
    EXPECT_GE(f.size, cfg.min_frame_bytes);
    EXPECT_LE(f.size, cfg.max_frame_bytes);
  }
  EXPECT_EQ(a.poll(20, fa), PollStatus::End);
  EXPECT_EQ(fa.size(), 60u);
}

TEST(GeneratorSource, AddingChannelsKeepsExistingStreams) {
  GeneratorConfig small;
  small.channels = 2;
  small.seed = 9;
  GeneratorConfig big = small;
  big.channels = 4;
  GeneratorSource a(small);
  GeneratorSource b(big);
  std::vector<IngestFrame> fa;
  std::vector<IngestFrame> fb;
  for (Time t = 0; t < 10; ++t) {
    a.poll(t, fa);
    b.poll(t, fb);
  }
  // Channel c's generator is seeded with split(seed, c): the frames on
  // channels 0 and 1 must be identical in both sources.
  std::vector<IngestFrame> b01;
  for (const IngestFrame& f : fb) {
    if (f.channel < 2) b01.push_back(f);
  }
  EXPECT_EQ(fa, b01);
}

TEST(ReplaySource, EmitsSequentiallyThenEnds) {
  trace::FrameSequence frames = {{FrameType::I, 10},
                                 {FrameType::P, 5},
                                 {FrameType::B, 3}};
  ReplaySource src(frames, ReplayConfig{.channel = 2, .loop = false});
  std::vector<IngestFrame> out;
  for (Time t = 0; t < 3; ++t) EXPECT_EQ(src.poll(t, out), PollStatus::Ready);
  EXPECT_EQ(src.poll(3, out), PollStatus::End);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (IngestFrame{2, FrameType::I, 10}));
  EXPECT_EQ(out[2], (IngestFrame{2, FrameType::B, 3}));
  EXPECT_EQ(src.channels(), 3);  // channel index 2 implies 3 channels
}

TEST(ReplaySource, LoopWrapsAround) {
  trace::FrameSequence frames = {{FrameType::I, 7}, {FrameType::B, 2}};
  ReplaySource src(frames, ReplayConfig{.channel = 0, .loop = true});
  std::vector<IngestFrame> out;
  for (Time t = 0; t < 5; ++t) EXPECT_EQ(src.poll(t, out), PollStatus::Ready);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[2].size, 7);  // wrapped back to the first frame
  EXPECT_EQ(out[3].size, 2);
}

TEST(WireFrame, RoundTripAndRejection) {
  const IngestFrame frame{300, FrameType::P, 123456};
  unsigned char buf[WireFrame::kWireSize];
  WireFrame::encode(frame, buf);
  IngestFrame back;
  ASSERT_TRUE(WireFrame::decode(buf, back));
  EXPECT_EQ(back, frame);

  unsigned char bad[WireFrame::kWireSize];
  WireFrame::encode(frame, bad);
  bad[0] ^= 0xFF;  // corrupt the magic
  EXPECT_FALSE(WireFrame::decode(bad, back));
  WireFrame::encode(frame, bad);
  bad[4] = 200;  // invalid frame type
  EXPECT_FALSE(WireFrame::decode(bad, back));
}

TEST(PipeSource, StallThenDataThenEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_NE(::fcntl(fds[0], F_SETFL, O_NONBLOCK), -1);
  PipeSource src(fds[0], 4);

  std::vector<IngestFrame> out;
  EXPECT_EQ(src.poll(0, out), PollStatus::Stalled);
  EXPECT_TRUE(out.empty());

  const IngestFrame a{1, FrameType::I, 900};
  const IngestFrame b{3, FrameType::B, 40};
  ASSERT_TRUE(PipeSource::write_frame(fds[1], a));
  ASSERT_TRUE(PipeSource::write_frame(fds[1], b));
  EXPECT_EQ(src.poll(1, out), PollStatus::Ready);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], a);
  EXPECT_EQ(out[1], b);

  // A partial record is buffered, not emitted.
  unsigned char partial[WireFrame::kWireSize];
  WireFrame::encode(a, partial);
  ASSERT_EQ(::write(fds[1], partial, 7), 7);
  EXPECT_EQ(src.poll(2, out), PollStatus::Stalled);
  ::close(fds[1]);
  EXPECT_EQ(src.poll(3, out), PollStatus::End);
  EXPECT_EQ(src.truncated_tail(), 7u);
  EXPECT_EQ(out.size(), 2u);
}

// ------------------------------------------------------------ fault program

TEST(FaultSchedule, ParsesPhasesAndCycles) {
  const auto phases =
      faults::parse_fault_schedule("0:0:-1,2000:0.25:-1,3500:0:128");
  ASSERT_EQ(phases.size(), 3u);
  EXPECT_EQ(phases[0].from, 0);
  EXPECT_EQ(phases[1].from, 2000);
  EXPECT_DOUBLE_EQ(phases[1].loss_probability, 0.25);
  EXPECT_EQ(phases[2].rate_cap, 128);
}

TEST(FaultSchedule, RejectsMalformedPrograms) {
  EXPECT_THROW(faults::parse_fault_schedule(""), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("0:0"), std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("0:1.5:-1"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("5:0:-1,2:0:-1"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("0:zero:-1"),
               std::invalid_argument);
  // NaN compares false to both range ends; a phase past the period would
  // never be reached. Both used to abort in the link's constructor.
  EXPECT_THROW(faults::parse_fault_schedule("0:nan:-1"),
               std::invalid_argument);
  EXPECT_THROW(faults::parse_fault_schedule("0:0:-1,200:0.1:-1", 100),
               std::invalid_argument);
}

// ----------------------------------------------------------- ladder + SLOs

TEST(DegradationLadder, EscalatesThroughRungsAndRelaxes) {
  LadderConfig cfg;
  cfg.escalate_after = 4;
  cfg.deescalate_after = 6;
  cfg.floor_start = 1.0;
  cfg.floor_max = 4.0;  // floor rungs: 1.0, 2.0, 4.0
  cfg.max_shed_channels = 2;
  DegradationLadder ladder(cfg);
  EXPECT_EQ(ladder.level(), DegradationLevel::Normal);
  EXPECT_EQ(ladder.value_floor(), 0.0);

  auto push = [&ladder](bool pressured, int n) {
    for (int i = 0; i < n; ++i) ladder.update(pressured);
  };
  push(true, 4);
  EXPECT_EQ(ladder.level(), DegradationLevel::AdmissionControl);
  EXPECT_TRUE(ladder.admission_control());
  push(true, 4);
  EXPECT_EQ(ladder.level(), DegradationLevel::ValueFloor);
  EXPECT_DOUBLE_EQ(ladder.value_floor(), 1.0);
  push(true, 8);
  EXPECT_DOUBLE_EQ(ladder.value_floor(), 4.0);
  push(true, 4);
  EXPECT_EQ(ladder.level(), DegradationLevel::StreamShed);
  EXPECT_EQ(ladder.shed_channels(), 1);
  push(true, 4);
  EXPECT_EQ(ladder.shed_channels(), 2);
  push(true, 40);  // saturates at the top rung
  EXPECT_EQ(ladder.shed_channels(), 2);
  EXPECT_EQ(ladder.rung(), 6);

  // Mixed signals reset both streaks: no flapping.
  push(false, 5);
  push(true, 1);
  push(false, 5);
  EXPECT_EQ(ladder.rung(), 6);
  push(false, 6);
  EXPECT_EQ(ladder.rung(), 5);
  push(false, 6 * 5);
  EXPECT_EQ(ladder.level(), DegradationLevel::Normal);
  EXPECT_GE(ladder.deescalations(), 6);
}

TEST(Watchdog, StallBreachCapturesIncidentWithCooldown) {
  obs::Registry registry;
  obs::FlightRecorderConfig rc;
  rc.window = 16;
  rc.max_incidents = 4;
  rc.trigger_on_violation = true;
  obs::FlightRecorder recorder(rc);
  SloConfig slo;
  slo.max_stall_rate = 0.05;
  slo.window = 8;
  slo.cooldown = 100;
  Watchdog wd(slo, /*server_buffer=*/100, &recorder, registry);

  StepStats stalled;
  stalled.playouts = 1;
  stalled.degraded = 1;  // 100% stall rate
  Watchdog::Pressure last;
  for (Time t = 0; t < 20; ++t) last = wd.observe(t, stalled);
  EXPECT_TRUE(last.stall);
  EXPECT_GT(wd.breaches().stall, 0);
  EXPECT_DOUBLE_EQ(wd.stall_rate(), 1.0);
  // The cooldown rate-limits captures but not breach counting.
  ASSERT_EQ(recorder.incidents().size(), 1u);
  const obs::Json& incident = recorder.incidents()[0];
  EXPECT_EQ(incident.at("schema").as_string(), "rtsmooth-incident-v1");
  EXPECT_EQ(incident.at("trigger").at("kind").as_string(), "slo.stall_rate");
}

TEST(Watchdog, HealthyTrafficNeverBreaches) {
  obs::Registry registry;
  SloConfig slo;
  slo.window = 8;
  Watchdog wd(slo, 100, nullptr, registry);
  StepStats healthy;
  healthy.playouts = 1;
  healthy.offered_weight = 10.0;
  healthy.record.server_occupancy = 10;
  for (Time t = 0; t < 50; ++t) {
    EXPECT_FALSE(wd.observe(t, healthy).any());
  }
  EXPECT_EQ(wd.breaches().total(), 0);
}

// ------------------------------------------------------------ plan classes

TEST(ClassifyPlan, CoversTheSection33Cases) {
  auto cases = [](Bytes bs, Bytes bc, Bytes r, Time d) {
    EngineConfig cfg;
    cfg.server_buffer = bs;
    cfg.client_buffer = bc;
    cfg.rate = r;
    cfg.smoothing_delay = d;
    std::vector<PlanCase> out;
    classify_plan(cfg, out);
    return out;
  };
  using PC = PlanCase;
  EXPECT_EQ(cases(32, 32, 8, 4), (std::vector<PC>{PC::Balanced}));
  EXPECT_EQ(cases(16, 32, 8, 4),
            (std::vector<PC>{PC::ServerBufferDeficit, PC::BufferMismatch}));
  EXPECT_EQ(cases(64, 32, 8, 4),
            (std::vector<PC>{PC::ServerBufferExcess, PC::BufferMismatch}));
  EXPECT_EQ(cases(32, 16, 8, 4),
            (std::vector<PC>{PC::ClientBufferDeficit, PC::BufferMismatch}));
  EXPECT_EQ(cases(32, 64, 8, 4),
            (std::vector<PC>{PC::ClientBufferExcess, PC::BufferMismatch}));
  EXPECT_EQ(cases(16, 64, 8, 4),
            (std::vector<PC>{PC::ServerBufferDeficit, PC::ClientBufferExcess,
                             PC::BufferMismatch}));
  EXPECT_STREQ(to_string(PC::Balanced), "balanced");
  EXPECT_STREQ(to_string(PC::BufferMismatch), "buffer_mismatch");
}

// -------------------------------------------------------------- the daemon

DaemonOptions balanced_options(Bytes rate, Time delay) {
  DaemonOptions opts;
  opts.engine.rate = rate;
  opts.engine.smoothing_delay = delay;
  opts.engine.server_buffer = rate * delay;
  opts.engine.client_buffer = rate * delay;
  opts.engine.link_delay = 1;
  opts.slo.enabled = false;
  opts.ladder.enabled = false;
  return opts;
}

// ------------------------------------------------------------ live engine

TEST(LiveEngine, DegradedPlayoutIsNotAStall) {
  // 10-byte frames every step against R = 2, B = 4: Eq. (3) sheds most of
  // every frame, so playouts are degraded. The engine plays out under Skip
  // and never rebuffers, so no step record may claim a stall; degraded
  // playouts are counted in StepStats::degraded instead.
  EngineConfig config;
  config.rate = 2;
  config.smoothing_delay = 2;
  config.server_buffer = 4;
  config.client_buffer = 4;
  config.link_delay = 1;
  obs::FlightRecorder recorder({.window = 64, .trigger_on_violation = false});
  LiveEngine engine(config, obs::Telemetry{.recorder = &recorder});
  const IngestFrame frame{.type = FrameType::P, .size = 10};
  std::int64_t degraded = 0;
  for (Time t = 0; t < 40; ++t) {
    const StepStats st = t < 30 ? engine.step({&frame, 1}) : engine.step({});
    degraded += st.degraded;
    EXPECT_FALSE(st.record.stalled) << "step " << t;
  }
  EXPECT_GT(degraded, 0);
  for (const obs::StepRecord& step : recorder.window()) {
    EXPECT_FALSE(step.stalled) << "recorded step " << step.t;
  }
}

TEST(LiveEngine, AbortMovesEverythingOwedToResidual) {
  // R = 2, B = 8, P = 3, D = 4: a 12-byte frame sheds 2 bytes on arrival
  // (Eq. (3)) and sends 2 per step. After four steps the first 2 sent bytes
  // are stored at the client (frame 0 plays at step 7), 6 are on the link
  // and 2 are still buffered at the server.
  EngineConfig config;
  config.rate = 2;
  config.smoothing_delay = 4;
  config.server_buffer = 8;
  config.client_buffer = 8;
  config.link_delay = 3;
  LiveEngine engine(config);
  const IngestFrame frame{.type = FrameType::I, .size = 12};
  Bytes sent = 0;
  Bytes delivered = 0;
  for (Time t = 0; t < 4; ++t) {
    const StepStats st =
        t == 0 ? engine.step({&frame, 1}) : engine.step({});
    sent += st.record.sent;
    delivered += st.record.delivered;
  }
  const Bytes in_server = engine.server_occupancy();
  const Bytes on_link = sent - delivered;
  const Bytes in_client = engine.client_occupancy();
  ASSERT_GT(in_server, 0);
  ASSERT_GT(on_link, 0);
  ASSERT_GT(in_client, 0);
  ASSERT_GT(engine.report().dropped_server.bytes, 0);
  EXPECT_FALSE(engine.quiescent());
  EXPECT_EQ(engine.active_runs(), 1);

  engine.abort_residual();
  const SimReport& report = engine.report();
  EXPECT_TRUE(report.conserves());
  EXPECT_EQ(report.residual.bytes, in_server + on_link + in_client);
  EXPECT_EQ(report.residual.slices, report.residual.bytes);  // unit slices
  EXPECT_EQ(report.offered.bytes,
            report.dropped_server.bytes + report.residual.bytes);
  EXPECT_TRUE(engine.quiescent());
  EXPECT_EQ(engine.active_runs(), 0);
  EXPECT_EQ(engine.client_occupancy(), 0);
}

TEST(Daemon, ServesBoundedGeneratorCleanly) {
  GeneratorConfig gen;
  gen.channels = 2;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 256;
  gen.min_frame_bytes = 8;
  gen.seed = 5;
  gen.frames_per_channel = 500;
  DaemonOptions opts = balanced_options(/*rate=*/256, /*delay=*/4);
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  EXPECT_EQ(daemon.serve(), 0);
  EXPECT_EQ(daemon.polled_frames(), 1000);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  const SimReport report = daemon.total_report();
  // A generously provisioned balanced plan plays every byte.
  EXPECT_EQ(report.played.bytes, daemon.polled_bytes());
  EXPECT_EQ(report.offered.bytes, daemon.polled_bytes());

  const obs::Json snap = daemon.snapshot();
  EXPECT_EQ(snap.at("schema").as_string(), "rtsmooth-soak-v1");
  EXPECT_TRUE(snap.at("daemon").at("balanced").as_bool());
  EXPECT_EQ(snap.at("ingest").at("polled_frames").as_int(), 1000);
  EXPECT_TRUE(snap.at("ingest").at("source_ended").as_bool());
  EXPECT_TRUE(snap.at("admission").at("ledger_conserves").as_bool());
  EXPECT_TRUE(snap.at("report").at("conserves").as_bool());
  EXPECT_EQ(snap.at("stop_signal").as_int(), 0);
}

TEST(Daemon, OverloadEscalatesAndWritesValidIncidents) {
  const std::string dir = ::testing::TempDir() + "rtsmoothd_overload";
  const std::string snap_path = dir + "/snapshot.json";
  const std::string incident_dir = dir + "/incidents";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  GeneratorConfig gen;
  gen.channels = 2;
  gen.mean_frame_bytes = 256;
  gen.max_frame_bytes = 512;
  gen.min_frame_bytes = 64;
  gen.seed = 11;
  DaemonOptions opts = balanced_options(/*rate=*/64, /*delay=*/4);
  opts.slo.enabled = true;
  opts.slo.window = 64;
  opts.slo.cooldown = 256;
  opts.ladder.enabled = true;
  opts.ladder.escalate_after = 32;
  opts.ladder.deescalate_after = 100000;
  opts.recorder.window = 64;
  opts.recorder.max_incidents = 4;
  opts.max_steps = 3000;
  opts.snapshot_path = snap_path;
  opts.incident_dir = incident_dir;
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  EXPECT_EQ(daemon.serve(), 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  // ~512 offered bytes/step against a 64-byte link is sustained overload:
  // the watchdog must breach and the ladder must leave Normal.
  EXPECT_GT(daemon.watchdog().breaches().total(), 0);
  EXPECT_GE(daemon.ladder().rung(), 1);
  EXPECT_GE(daemon.ladder().escalations(), 1);

  ASSERT_GT(daemon.incidents_written(), 0);
  for (std::int64_t i = 0; i < daemon.incidents_written(); ++i) {
    char name[32];
    std::snprintf(name, sizeof name, "incident_%04d.json",
                  static_cast<int>(i));
    std::ifstream in(incident_dir + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::ostringstream text;
    text << in.rdbuf();
    const obs::Json incident = obs::Json::parse(text.str());
    EXPECT_EQ(incident.at("schema").as_string(), "rtsmooth-incident-v1");
    EXPECT_TRUE(incident.at("trigger").at("kind").as_string().rfind("slo.",
                                                                    0) == 0);
    EXPECT_GT(incident.at("window").size(), 0u);
  }

  std::ifstream snap_in(snap_path);
  ASSERT_TRUE(snap_in.good());
  std::ostringstream snap_text;
  snap_text << snap_in.rdbuf();
  const obs::Json snap = obs::Json::parse(snap_text.str());
  EXPECT_EQ(snap.at("schema").as_string(), "rtsmooth-soak-v1");
  EXPECT_TRUE(snap.at("admission").at("ledger_conserves").as_bool());
  EXPECT_EQ(snap.at("slo").at("incidents_written").as_int(),
            daemon.incidents_written());
  EXPECT_GE(snap.at("degradation").at("rung").as_int(), 1);
  std::filesystem::remove_all(dir);
}

// The daemon builds a fresh link for every engine, and each engine's clock
// starts at 0, so a fault program reads engine-local time. This program's
// phases all lie inside one 500-step reconfiguration epoch, so its loss,
// the recovery path's NACKs and its cap act whichever clock it reads.
TEST(Daemon, FaultProgramInsideOneEpochErasesNacksAndSplits) {
  GeneratorConfig gen;
  gen.channels = 4;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 256;
  gen.min_frame_bytes = 16;
  gen.seed = 3;
  DaemonOptions opts = balanced_options(/*rate=*/256, /*delay=*/4);
  opts.engine.recovery.enabled = true;
  opts.max_steps = 3000;
  const Time period = 300;
  const std::vector<faults::FaultPhase> phases =
      faults::parse_fault_schedule("0:0.2:-1,100:0:128,200:0:-1", period);
  Daemon daemon(
      opts, std::make_unique<GeneratorSource>(gen),
      [&phases, period](const EngineConfig& cfg) -> std::unique_ptr<Link> {
        return std::make_unique<faults::ScheduledFaultLink>(
            cfg.link_delay, phases, Rng(17), /*feedback_delay=*/-1, period);
      });
  const Bytes buffer = opts.engine.server_buffer;
  daemon.schedule_reconfig_cycle(
      500, {{2 * buffer, 2 * buffer, 2 * opts.engine.rate, 4, 1, ""},
            {buffer, buffer, opts.engine.rate, 4, 1, ""}});

  EXPECT_EQ(daemon.serve(), 0);
  EXPECT_GE(daemon.reconfigs_applied(), 4);
  const obs::Json snap = daemon.snapshot();
  const obs::Json& counters = snap.at("registry").at("counters");
  EXPECT_GT(counters.at("link.erased_pieces").as_int(), 0);
  EXPECT_GT(counters.at("server.nacks").as_int(), 0);
  EXPECT_GT(counters.at("link.split_pieces").as_int(), 0);
  EXPECT_GT(daemon.total_report().retransmitted_bytes, 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  EXPECT_TRUE(snap.at("admission").at("ledger_conserves").as_bool());
  EXPECT_TRUE(snap.at("report").at("conserves").as_bool());
}

TEST(Daemon, PipeStallTimeoutDeclaresSourceDead) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_NE(::fcntl(fds[0], F_SETFL, O_NONBLOCK), -1);

  DaemonOptions opts = balanced_options(/*rate=*/64, /*delay=*/2);
  opts.ingest.max_retries = 1;
  opts.ingest.retry_sleep_us = 0;
  opts.ingest.stall_timeout_steps = 5;
  Daemon daemon(opts, std::make_unique<PipeSource>(fds[0], 1));

  // Nobody ever writes: the daemon must give up after the stall timeout
  // instead of spinning forever.
  EXPECT_EQ(daemon.serve(), 0);
  const obs::Json snap = daemon.snapshot();
  EXPECT_TRUE(snap.at("ingest").at("timed_out").as_bool());
  EXPECT_TRUE(snap.at("ingest").at("source_ended").as_bool());
  EXPECT_GE(snap.at("ingest").at("stalled_polls").as_int(), 5);
  EXPECT_EQ(daemon.polled_frames(), 0);
  ::close(fds[1]);
}

TEST(Daemon, SignalHandlerRoutesToDaemon) {
  GeneratorConfig gen;
  gen.channels = 1;
  gen.mean_frame_bytes = 32;
  gen.max_frame_bytes = 64;
  gen.min_frame_bytes = 8;
  Daemon daemon(balanced_options(64, 2),
                std::make_unique<GeneratorSource>(gen));
  install_signal_handlers(daemon);
  std::raise(SIGTERM);
  EXPECT_EQ(daemon.stop_signal(), SIGTERM);
  EXPECT_EQ(daemon.serve(), 0);  // stops at the first step boundary
  EXPECT_EQ(daemon.snapshot().at("stop_signal").as_int(), SIGTERM);
}

TEST(Daemon, RequestStopMidRunDrainsCleanly) {
  GeneratorConfig gen;
  gen.channels = 2;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 128;
  gen.min_frame_bytes = 16;
  gen.seed = 3;
  // Endless source: only the stop request ends this run.
  Daemon daemon(balanced_options(512, 4),
                std::make_unique<GeneratorSource>(gen));
  std::thread stopper([&daemon] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    daemon.request_stop(SIGTERM);
  });
  const int rc = daemon.serve();
  stopper.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(daemon.stop_signal(), SIGTERM);
  EXPECT_GT(daemon.steps(), 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  EXPECT_EQ(daemon.total_report().residual.bytes, 0);
}

TEST(Daemon, RequestSnapshotWritesMidRunWithoutStopping) {
  const std::string dir = ::testing::TempDir() + "rtsmoothd_sighup";
  const std::string snap_path = dir + "/snapshot.json";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  GeneratorConfig gen;
  gen.channels = 2;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 128;
  gen.min_frame_bytes = 16;
  gen.seed = 8;
  DaemonOptions opts = balanced_options(512, 4);
  opts.snapshot_path = snap_path;  // snapshot_every stays 0: only on demand
  // Endless source: only the stop request ends this run.
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  std::thread hupper([&daemon, &snap_path] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    daemon.request_snapshot();  // what the SIGHUP handler calls
    // The forced snapshot lands at the next step boundary; the daemon
    // must keep serving long after it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!std::filesystem::exists(snap_path) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(std::filesystem::exists(snap_path));
    EXPECT_EQ(daemon.stop_signal(), 0);  // still running
    daemon.request_stop(SIGTERM);
  });
  EXPECT_EQ(daemon.serve(), 0);
  hupper.join();

  // The shutdown snapshot overwrote the forced one; both came through the
  // same path, and the final document records the SIGHUP trigger.
  std::ifstream in(snap_path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const obs::Json doc = obs::Json::parse(text.str());
  EXPECT_EQ(doc.at("stop_signal").as_int(), SIGTERM);
  EXPECT_EQ(doc.at("registry")
                .at("counters")
                .at("daemon.snapshot.sighup")
                .as_int(),
            1);
}

TEST(Daemon, RejectsInvalidInitialConfig) {
  GeneratorConfig gen;
  DaemonOptions opts;
  opts.engine.rate = 0;  // invalid
  EXPECT_THROW(Daemon(opts, std::make_unique<GeneratorSource>(gen)),
               std::invalid_argument);
}

// --------------------------------------------------------------- the ledger

TEST(DaemonLedger, SnapshotTalliesEqualTheirCounters) {
  // Every snapshot tally that a daemon.* registry counter also holds: the
  // snapshot path and the counter's name.
  struct Tally {
    std::vector<std::string> path;
    std::string counter;
  };
  const std::vector<Tally> tallies = {
      {{"ingest", "polled_bytes"}, "daemon.ingest.polled_bytes"},
      {{"ingest", "stalled_polls"}, "daemon.ingest.stalled_polls"},
      {{"ingest", "retries"}, "daemon.ingest.retries"},
      {{"admission", "budget_refused_bytes"},
       "daemon.admission.budget_refused_bytes"},
      {{"admission", "channel_shed_bytes"},
       "daemon.admission.channel_shed_bytes"},
      {{"admission", "slot_refused_bytes"},
       "daemon.admission.slot_refused_bytes"},
      {{"admission", "floor_shed_bytes"}, "daemon.admission.floor_shed_bytes"},
      {{"admission", "slot_refused_frames"},
       "daemon.admission.slot_refused_frames"},
      {{"slo", "breaches", "stall"}, "daemon.slo.stall_rate_breaches"},
      {{"slo", "breaches", "loss"}, "daemon.slo.loss_rate_breaches"},
      {{"slo", "breaches", "occupancy"}, "daemon.slo.occupancy_breaches"},
      {{"slo", "breaches", "burn"}, "daemon.slo.burn_breaches"},
      {{"slo", "cooldown_suppressed"}, "daemon.slo.cooldown_suppressed"},
  };

  // Sustained overload through a small run table: the ladder climbs to
  // channel shedding, frames are refused for want of a slot, and every
  // watchdog SLO and burn budget breaches.
  GeneratorConfig gen;
  gen.channels = 6;
  gen.mean_frame_bytes = 64;
  gen.max_frame_bytes = 256;
  gen.min_frame_bytes = 16;
  gen.seed = 1;
  DaemonOptions overload = balanced_options(/*rate=*/256, /*delay=*/4);
  overload.engine.max_live_runs = 32;
  overload.slo.enabled = true;
  overload.ladder.enabled = true;
  overload.max_steps = 6000;
  overload.timeline.slot_steps = 100;
  overload.timeline.short_slots = 2;
  overload.timeline.long_slots = 8;
  overload.timeline.budgets = default_slo_budgets();
  Daemon loaded(overload, std::make_unique<GeneratorSource>(gen));
  EXPECT_EQ(loaded.serve(), 0);

  // A pipe nobody writes to: every poll stalls and is retried.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_NE(::fcntl(fds[0], F_SETFL, O_NONBLOCK), -1);
  DaemonOptions stall = balanced_options(/*rate=*/64, /*delay=*/2);
  stall.ingest.max_retries = 2;
  stall.ingest.retry_sleep_us = 0;
  stall.ingest.stall_timeout_steps = 5;
  Daemon stalled(stall, std::make_unique<PipeSource>(fds[0], 1));
  EXPECT_EQ(stalled.serve(), 0);
  ::close(fds[1]);

  std::vector<bool> nonzero(tallies.size(), false);
  for (const Daemon* d : {&loaded, &stalled}) {
    const obs::Json snap = d->snapshot();
    const obs::Json& counters = snap.at("registry").at("counters");
    for (std::size_t i = 0; i < tallies.size(); ++i) {
      const obs::Json* field = &snap;
      for (const std::string& key : tallies[i].path) field = &field->at(key);
      const std::int64_t value = field->as_int();
      EXPECT_EQ(value, counters.at(tallies[i].counter).as_int())
          << tallies[i].counter;
      if (value != 0) nonzero[i] = true;
    }
    EXPECT_EQ(d->polled_bytes(),
              counters.at("daemon.ingest.polled_bytes").as_int());
    EXPECT_TRUE(d->ingest_ledger_conserves());
  }
  for (std::size_t i = 0; i < tallies.size(); ++i) {
    EXPECT_TRUE(nonzero[i]) << tallies[i].counter << " is 0 in both runs";
  }
}

}  // namespace
}  // namespace rtsmooth::daemon
