// Differential tests for the daemon's graceful reconfiguration (DESIGN.md
// Sect. 13) against the tests-only reference core (tests/reference_core.h).
//
// The contract under test: a LiveEngine epoch fed a known arrival schedule
// must produce a SimReport byte-identical (on every tally) to a batch
// ReferenceSimulator run over a Stream with the same arrivals, and a
// drain-and-replan daemon run must therefore equal the *sum* of independent
// batch runs, one per engine epoch. The replay timing of deferred ingest
// groups (up to two per step after a drain) is reproduced here from the
// daemon's published drain-step count, so the suffix stream's arrival
// schedule is derived, not guessed.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/rtsmoothd.h"
#include "differential.h"
#include "obs/json.h"
#include "policies/policy_factory.h"
#include "reference_core.h"
#include "sim/simulator.h"
#include "trace/value_model.h"

namespace rtsmooth::daemon {
namespace {

// Deterministic, bursty frame schedule: sizes sweep 2..21 with a period
// chosen so busy steps exceed the link rate and force server queueing (and,
// at tight provisionings, policy drops) without ever dwarfing the buffers.
trace::FrameSequence make_clip(std::size_t frames) {
  trace::FrameSequence seq;
  seq.reserve(frames);
  const FrameType types[4] = {FrameType::I, FrameType::P, FrameType::B,
                              FrameType::Other};
  for (std::size_t i = 0; i < frames; ++i) {
    const Bytes size = 2 + static_cast<Bytes>((7 * i) % 20);
    seq.push_back(trace::Frame{types[i % 4], size});
  }
  return seq;
}

// The engine slices an admitted frame into unit slices with the value
// model's per-byte weight — the batch-equivalent run for frame `f` arriving
// at engine-local step `at`.
SliceRun run_for(const trace::Frame& f, Time at,
                 const trace::ValueModel& values) {
  SliceRun run;
  run.arrival = at;
  run.slice_size = 1;
  run.count = f.size;
  run.weight = values.byte_value(f.type);
  run.frame_type = f.type;
  return run;
}

sim::SimConfig sim_config_of(const EngineConfig& cfg) {
  sim::SimConfig sc;
  sc.server_buffer = cfg.server_buffer;
  sc.client_buffer = cfg.client_buffer;
  sc.rate = cfg.rate;
  sc.smoothing_delay = cfg.smoothing_delay;
  sc.link_delay = cfg.link_delay;
  return sc;
}

// Field-wise comparison excluding steps (epoch bookkeeping differs from a
// batch run's horizon) and the invariant tallies (the reference replicates
// the monitor; the live engine does not run one).
void expect_reports_match(const SimReport& daemon, const SimReport& batch) {
  EXPECT_EQ(daemon.offered, batch.offered);
  EXPECT_EQ(daemon.played, batch.played);
  EXPECT_EQ(daemon.dropped_server, batch.dropped_server);
  EXPECT_EQ(daemon.dropped_client_overflow, batch.dropped_client_overflow);
  EXPECT_EQ(daemon.dropped_client_late, batch.dropped_client_late);
  EXPECT_EQ(daemon.lost_link, batch.lost_link);
  EXPECT_EQ(daemon.residual, batch.residual);
  for (std::size_t k = 0; k < daemon.offered_by_type.size(); ++k) {
    EXPECT_EQ(daemon.offered_by_type[k], batch.offered_by_type[k]) << k;
    EXPECT_EQ(daemon.played_by_type[k], batch.played_by_type[k]) << k;
  }
  EXPECT_EQ(daemon.retransmitted_bytes, batch.retransmitted_bytes);
  EXPECT_EQ(daemon.stall_steps, batch.stall_steps);
  EXPECT_EQ(daemon.max_lateness, batch.max_lateness);
  EXPECT_EQ(daemon.max_server_occupancy, batch.max_server_occupancy);
  EXPECT_EQ(daemon.max_client_occupancy, batch.max_client_occupancy);
}

DaemonOptions quiet_options(EngineConfig engine) {
  DaemonOptions opts;
  opts.engine = engine;
  opts.slo.enabled = false;
  opts.ladder.enabled = false;
  return opts;
}

TEST(Reconfig, SteadyStateEngineMatchesReferenceBatch) {
  const trace::FrameSequence clip = make_clip(300);
  EngineConfig engine;
  engine.rate = 8;
  engine.smoothing_delay = 4;
  engine.server_buffer = 32;  // balanced: B = R*D
  engine.client_buffer = 32;
  engine.link_delay = 1;
  Daemon daemon(quiet_options(engine),
                std::make_unique<ReplaySource>(clip));
  ASSERT_EQ(daemon.serve(), 0);

  // One frame per poll, one group per step: frame i arrives at engine
  // step i, exactly like the batch stream below.
  std::vector<SliceRun> runs;
  const trace::ValueModel values = engine.values;
  for (std::size_t i = 0; i < clip.size(); ++i) {
    runs.push_back(run_for(clip[i], static_cast<Time>(i), values));
  }
  const Stream stream = Stream::from_runs(std::move(runs));
  refcore::ReferenceSimulator reference(stream, sim_config_of(engine),
                                        engine.policy);
  const SimReport batch = reference.run();
  expect_reports_match(daemon.total_report(), batch);
  // The tight plan must actually have exercised the drop path, or this
  // differential proves less than it claims.
  EXPECT_GT(batch.dropped_server.bytes, 0);

  // The production simulator replays the same schedule: it must equal the
  // reference batch on every field and reconcile against the daemon's
  // totals just like the reference does.
  sim::SmoothingSimulator production(stream, sim_config_of(engine),
                                     make_policy(engine.policy));
  const SimReport production_batch = production.run();
  EXPECT_TRUE(production_batch == batch)
      << "production batch diverges from the reference batch";
  expect_reports_match(daemon.total_report(), production_batch);
}

TEST(Reconfig, DrainAndReplanMatchesReferencePrefixPlusSuffix) {
  const std::size_t kFrames = 400;
  const Time kReconfigAt = 120;
  const trace::FrameSequence clip = make_clip(kFrames);

  EngineConfig first;
  first.rate = 8;
  first.smoothing_delay = 4;
  first.server_buffer = 32;
  first.client_buffer = 32;
  first.link_delay = 1;

  EnginePlan plan;
  plan.rate = 12;
  plan.smoothing_delay = 3;   // balanced point 36
  plan.server_buffer = 30;    // deficit + mismatch: a Sect. 3.3 waste case
  plan.client_buffer = 36;
  plan.link_delay = 2;

  std::ostringstream log;
  DaemonOptions opts = quiet_options(first);
  opts.log = &log;
  Daemon daemon(opts, std::make_unique<ReplaySource>(clip));
  daemon.schedule_reconfig(kReconfigAt, plan);
  ASSERT_EQ(daemon.serve(), 0);
  ASSERT_EQ(daemon.reconfigs_applied(), 1);
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  EXPECT_TRUE(daemon.total_report().conserves());

  // The begin-reconfig log names the waste cases the new plan lands in.
  EXPECT_NE(log.str().find("server_buffer_deficit"), std::string::npos);
  EXPECT_NE(log.str().find("buffer_mismatch"), std::string::npos);

  // Reconstruct the epoch split from the daemon's published drain length.
  // Epoch 1 saw frames 0..kReconfigAt-1 at engine-local step == index.
  // Frames polled during the d drain steps (and after) were deferred and
  // replayed two groups per step into the new engine.
  const obs::Json snap = daemon.snapshot();
  const Time d = snap.at("reconfigs").at("drain_steps").as_int();
  ASSERT_GT(d, 0);
  EXPECT_EQ(snap.at("reconfigs").at("max_lag").as_int(), d);
  EXPECT_FALSE(snap.at("reconfigs").at("forced_residual").as_bool());

  const trace::ValueModel values = first.values;
  std::vector<SliceRun> prefix_runs;
  for (Time i = 0; i < kReconfigAt; ++i) {
    prefix_runs.push_back(
        run_for(clip[static_cast<std::size_t>(i)], i, values));
  }

  // Queue replay: the backlog holds the groups polled at global steps
  // kReconfigAt .. kReconfigAt+d-1; from the first post-drain step on, one
  // fresh group is polled per step (until the clip ends) and up to two
  // groups are admitted per engine-local step, oldest first.
  std::deque<std::size_t> backlog;
  for (Time j = 0; j < d; ++j) {
    backlog.push_back(static_cast<std::size_t>(kReconfigAt + j));
  }
  std::vector<SliceRun> suffix_runs;
  std::size_t next_poll = static_cast<std::size_t>(kReconfigAt + d);
  for (Time local = 0; !backlog.empty() || next_poll < kFrames; ++local) {
    if (next_poll < kFrames) backlog.push_back(next_poll++);
    for (int take = 0; take < 2 && !backlog.empty(); ++take) {
      const std::size_t frame = backlog.front();
      backlog.pop_front();
      suffix_runs.push_back(run_for(clip[frame], local, values));
    }
  }

  EngineConfig second = first;
  second.server_buffer = plan.server_buffer;
  second.client_buffer = plan.client_buffer;
  second.rate = plan.rate;
  second.smoothing_delay = plan.smoothing_delay;
  second.link_delay = plan.link_delay;

  // The simulators hold pointers into the streams: both must outlive them.
  const Stream prefix_stream = Stream::from_runs(std::move(prefix_runs));
  const Stream suffix_stream = Stream::from_runs(std::move(suffix_runs));
  refcore::ReferenceSimulator ref_prefix(prefix_stream, sim_config_of(first),
                                         first.policy);
  refcore::ReferenceSimulator ref_suffix(suffix_stream,
                                         sim_config_of(second),
                                         second.policy);
  SimReport expected = ref_prefix.run();
  expected += ref_suffix.run();
  expect_reports_match(daemon.total_report(), expected);
  EXPECT_EQ(daemon.total_report().offered.bytes, daemon.polled_bytes());

  // The same epoch split replayed on the production simulator, stepping
  // every slot and skipping quiescent spans: both must produce the same
  // sum, and it must reconcile against the daemon's ingest ledger and
  // conservation totals exactly like the reference sum above.
  auto batch_sum = [&](bool stepping) {
    const sim::SimConfig prefix_config = sim_config_of(first);
    sim::SmoothingSimulator prefix_sim(
        prefix_stream, prefix_config, make_policy(first.policy),
        stepping ? difftest::stepping_link(prefix_config) : nullptr);
    SimReport total = prefix_sim.run();
    const sim::SimConfig suffix_config = sim_config_of(second);
    sim::SmoothingSimulator suffix_sim(
        suffix_stream, suffix_config, make_policy(second.policy),
        stepping ? difftest::stepping_link(suffix_config) : nullptr);
    total += suffix_sim.run();
    return total;
  };
  const SimReport stepping_sum = batch_sum(true);
  const SimReport skipping_sum = batch_sum(false);
  EXPECT_TRUE(stepping_sum == skipping_sum)
      << "stepping vs skipping drain-and-replan batch sums diverge";
  EXPECT_TRUE(skipping_sum.conserves());
  expect_reports_match(daemon.total_report(), skipping_sum);
}

TEST(Reconfig, ManyReconfigsConserveWithBoundedLag) {
  GeneratorConfig gen;
  gen.channels = 3;
  gen.mean_frame_bytes = 48;
  gen.max_frame_bytes = 128;
  gen.min_frame_bytes = 8;
  gen.seed = 21;

  EngineConfig engine;
  engine.rate = 256;
  engine.smoothing_delay = 4;
  engine.server_buffer = 1024;
  engine.client_buffer = 1024;
  engine.link_delay = 1;
  DaemonOptions opts = quiet_options(engine);
  opts.max_steps = 4000;
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  // A three-plan cycle: balanced at double rate, a deliberately mismatched
  // shrink, and back to base — every 100 steps.
  for (Time at = 100; at < 4000; at += 100) {
    EnginePlan plan;
    switch ((at / 100) % 3) {
      case 0:
        plan = EnginePlan{1024, 1024, 256, 4, 1, ""};
        break;
      case 1:
        plan = EnginePlan{2048, 2048, 512, 4, 1, ""};
        break;
      default:
        plan = EnginePlan{512, 1024, 256, 4, 1, ""};
        break;
    }
    daemon.schedule_reconfig(at, plan);
  }
  ASSERT_EQ(daemon.serve(), 0);
  EXPECT_GE(daemon.reconfigs_applied(), 20);
  EXPECT_EQ(daemon.reconfigs_rejected(), 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  // The two-groups-per-step replay works each drain's backlog off before
  // the next reconfiguration: the lag never compounds across 30+ drains.
  const obs::Json snap = daemon.snapshot();
  const Time max_lag = snap.at("reconfigs").at("max_lag").as_int();
  EXPECT_GT(max_lag, 0);
  EXPECT_LT(max_lag, 100);
}

TEST(Reconfig, CycleProgramChurnsWithoutAHorizon) {
  GeneratorConfig gen;
  gen.channels = 3;
  gen.mean_frame_bytes = 48;
  gen.max_frame_bytes = 128;
  gen.min_frame_bytes = 8;
  gen.seed = 22;

  EngineConfig engine;
  engine.rate = 256;
  engine.smoothing_delay = 4;
  engine.server_buffer = 1024;
  engine.client_buffer = 1024;
  engine.link_delay = 1;
  DaemonOptions opts = quiet_options(engine);
  opts.max_steps = 5000;
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  // Unlike schedule_reconfig, the cycle has no pre-enumerated horizon: the
  // applied count is set by the run length, not by how many requests were
  // queued up front.
  daemon.schedule_reconfig_cycle(
      100, {EnginePlan{2048, 2048, 512, 4, 1, ""},
            EnginePlan{1024, 1024, 256, 4, 1, ""}});
  ASSERT_EQ(daemon.serve(), 0);
  // ~50 periods; drains stretch the effective period a little, so leave
  // headroom while still proving the program outlived any fixed schedule.
  EXPECT_GE(daemon.reconfigs_applied(), 40);
  EXPECT_EQ(daemon.reconfigs_rejected(), 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  const obs::Json snap = daemon.snapshot();
  EXPECT_EQ(snap.at("reconfigs").at("queued").as_int(), 0);
}

TEST(Reconfig, CycleRejectsDegeneratePrograms) {
  EngineConfig engine;
  engine.rate = 64;
  engine.smoothing_delay = 2;
  engine.server_buffer = 128;
  engine.client_buffer = 128;
  engine.link_delay = 1;
  GeneratorConfig gen;
  gen.channels = 1;
  gen.frames_per_channel = 10;
  Daemon daemon(quiet_options(engine), std::make_unique<GeneratorSource>(gen));
  EXPECT_THROW(daemon.schedule_reconfig_cycle(
                   0, {EnginePlan{128, 128, 64, 2, 1, ""}}),
               std::invalid_argument);
  EXPECT_THROW(daemon.schedule_reconfig_cycle(100, {}), std::invalid_argument);
}

TEST(Reconfig, InvalidPlanIsRejectedAndServingContinues) {
  GeneratorConfig gen;
  gen.channels = 1;
  gen.mean_frame_bytes = 32;
  gen.max_frame_bytes = 64;
  gen.min_frame_bytes = 8;
  gen.frames_per_channel = 300;

  EngineConfig engine;
  engine.rate = 64;
  engine.smoothing_delay = 2;
  engine.server_buffer = 128;
  engine.client_buffer = 128;
  std::ostringstream log;
  DaemonOptions opts = quiet_options(engine);
  opts.log = &log;
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));

  EnginePlan bad;
  bad.rate = 0;  // invalid: the engine requires R >= 1
  daemon.schedule_reconfig(50, bad);
  ASSERT_EQ(daemon.serve(), 0);
  EXPECT_EQ(daemon.reconfigs_applied(), 0);
  EXPECT_EQ(daemon.reconfigs_rejected(), 1);
  EXPECT_NE(log.str().find("rejected"), std::string::npos);
  // The rejected plan never interrupted serving: everything completed.
  EXPECT_EQ(daemon.polled_frames(), 300);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  EXPECT_EQ(daemon.engine().config().rate, 64);  // old plan still live
}

TEST(Reconfig, DrainCeilingWritesOffResidual) {
  // A one-step drain ceiling with frames still in flight: the reconfig
  // drain and the shutdown drain both hit it and write off what is owed.
  GeneratorConfig gen;  // endless: max_steps ends the run
  gen.channels = 2;
  gen.mean_frame_bytes = 32;
  gen.max_frame_bytes = 64;
  gen.min_frame_bytes = 8;

  EngineConfig engine;
  engine.rate = 64;
  engine.smoothing_delay = 2;
  engine.server_buffer = 128;
  engine.client_buffer = 128;
  engine.link_delay = 1;
  std::ostringstream log;
  DaemonOptions opts = quiet_options(engine);
  opts.max_drain_steps = 1;
  opts.max_steps = 200;
  opts.log = &log;
  Daemon daemon(opts, std::make_unique<GeneratorSource>(gen));
  daemon.schedule_reconfig(100, EnginePlan{128, 128, 64, 2, 1, ""});
  ASSERT_EQ(daemon.serve(), 0);

  EXPECT_EQ(daemon.reconfigs_applied(), 1);
  EXPECT_GT(daemon.total_report().residual.bytes, 0);
  EXPECT_TRUE(daemon.total_report().conserves());
  EXPECT_TRUE(daemon.ingest_ledger_conserves());
  const obs::Json snap = daemon.snapshot();
  EXPECT_TRUE(snap.at("reconfigs").at("forced_residual").as_bool());
  EXPECT_EQ(snap.at("registry")
                .at("counters")
                .at("daemon.drain.forced_residual")
                .as_int(),
            2);
  EXPECT_NE(log.str().find("rtsmoothd: drain ceiling (1 steps) hit"),
            std::string::npos);
  EXPECT_NE(log.str().find("rtsmoothd: shutdown drain ceiling (1 steps) hit"),
            std::string::npos);
}

}  // namespace
}  // namespace rtsmooth::daemon
