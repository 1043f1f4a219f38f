// On-line campaign contract (src/sim/online.h): bitwise determinism
// across thread counts, kill/resume through the on-line checkpoint,
// electrical-backend self-consistency, interference accounting, and the
// schedule/backend-keyed checkpoint identity.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "sim/online.h"
#include "sim/campaign.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/parallel.h"
#include "xtalk/electrical.h"

using namespace xtest;

namespace {

struct Fixture {
  soc::SystemConfig config;
  soc::OnlineConfig online;
  sbst::TestProgram program;
  xtalk::DefectLibrary library;
};

Fixture make_fixture(std::size_t defects = 24) {
  spec::ScenarioSpec scn;
  scn.multi_session = false;
  scn.defect_count = defects;
  Fixture f{scn.system, {}, scn.make_sessions()[0].program,
            scn.make_library()};
  f.online.enabled = true;
  return f;
}

std::string temp_checkpoint(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("xtest_online_") + tag + ".ckpt"))
      .string();
}

struct InjectorGuard {
  ~InjectorGuard() { util::FaultInjector::global().disarm(); }
};

TEST(OnlineCampaign, ThreadCountInvariant) {
  const Fixture s = make_fixture();
  sim::CampaignOptions serial;
  serial.parallel = {1};
  const sim::OnlineResult one = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      serial);
  sim::CampaignOptions four;
  four.parallel = {4};
  const sim::OnlineResult many = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      four);
  EXPECT_EQ(one.verdicts, many.verdicts);
  EXPECT_EQ(one.outcomes, many.outcomes);
  EXPECT_EQ(one.gold, many.gold);
}

TEST(OnlineCampaign, DetectedDefectsCarryLatency) {
  const Fixture s = make_fixture();
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult r = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  std::size_t detected = 0;
  for (const sim::OnlineOutcome& o : r.outcomes) {
    if (sim::is_detected(o.verdict)) {
      ++detected;
      EXPECT_GT(o.detection_latency_cycles, 0u);
    } else {
      EXPECT_EQ(o.detection_latency_cycles, 0u);
    }
    EXPECT_GT(o.rounds, 0u);
  }
  EXPECT_GT(detected, 0u);          // the library is not all-benign
  EXPECT_GT(r.gold.rounds, 1u);     // the schedule really interleaves
  EXPECT_GT(r.gold.heartbeats, 0u); // the workload really runs
}

TEST(OnlineCampaign, KillResumeMatchesUninterrupted) {
  const Fixture s = make_fixture();
  util::CampaignStats ref_stats;
  sim::CampaignOptions ref_opts;
  ref_opts.parallel = {1};
  ref_opts.stats = &ref_stats;
  const sim::OnlineResult ref = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      ref_opts);

  const std::string ckpt = temp_checkpoint("kill_resume");
  std::remove(ckpt.c_str());
  util::CampaignStats stats;
  sim::CampaignOptions opts;
  opts.parallel = {2};
  opts.stats = &stats;
  opts.checkpoint_path = ckpt;
  opts.checkpoint_every = 2;

  InjectorGuard guard;
  util::FaultInjector::global().configure("campaign.kill@5");
  EXPECT_THROW(sim::run_online_detection(s.config, s.online, s.program,
                                         soc::BusKind::kAddress, s.library,
                                         opts),
               sim::CampaignInterrupted);
  util::FaultInjector::global().disarm();

  const sim::OnlineResult resumed = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  std::remove(ckpt.c_str());
  EXPECT_EQ(resumed.verdicts, ref.verdicts);
  EXPECT_EQ(resumed.outcomes, ref.outcomes);
  EXPECT_GT(stats.restored_from_checkpoint, 0u);
  // The resumed run reports exactly the uninterrupted aggregates: the
  // interrupted attempt contributed nothing to the on-line sums.
  EXPECT_EQ(stats.online_rounds, ref_stats.online_rounds);
  EXPECT_EQ(stats.online_mmio_heartbeats, ref_stats.online_mmio_heartbeats);
  EXPECT_EQ(stats.online_deadlines_late, ref_stats.online_deadlines_late);
  EXPECT_EQ(stats.online_deadlines_missed,
            ref_stats.online_deadlines_missed);
  EXPECT_EQ(stats.online_detection_latency_cycles,
            ref_stats.online_detection_latency_cycles);
  EXPECT_EQ(stats.online_latency_samples, ref_stats.online_latency_samples);
  EXPECT_EQ(stats.detected, ref_stats.detected);
  EXPECT_EQ(stats.undetected, ref_stats.undetected);
}

TEST(OnlineCampaign, ScheduleChangeRejectsStaleCheckpoint) {
  const Fixture s = make_fixture(6);
  const std::string ckpt = temp_checkpoint("key_mismatch");
  std::remove(ckpt.c_str());
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.checkpoint_path = ckpt;
  sim::run_online_detection(s.config, s.online, s.program,
                            soc::BusKind::kAddress, s.library, opts);
  soc::OnlineConfig other = s.online;
  other.slice_cycles += 128;  // a different interleaving schedule
  try {
    sim::run_online_detection(s.config, other, s.program,
                              soc::BusKind::kAddress, s.library, opts);
    FAIL() << "stale checkpoint accepted across a schedule change";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("key mismatch"), std::string::npos);
  }
  std::remove(ckpt.c_str());
}

TEST(OnlineCampaign, CheckpointKeyCoversScheduleAndBackend) {
  const Fixture s = make_fixture(4);
  xtalk::ElectricalConfig full;  // default full-swing
  xtalk::ElectricalConfig low;
  low.backend = xtalk::ElectricalBackend::kLowSwing;
  const std::string base = sim::online_checkpoint_key(
      soc::BusKind::kAddress, s.library, s.online, full);
  soc::OnlineConfig other = s.online;
  other.workload_cycles += 1;
  EXPECT_NE(base, sim::online_checkpoint_key(soc::BusKind::kAddress,
                                             s.library, other, full));
  EXPECT_NE(base, sim::online_checkpoint_key(soc::BusKind::kAddress,
                                             s.library, s.online, low));
}

TEST(OnlineCampaign, ElectricalBackendsSelfConsistent) {
  for (const xtalk::ElectricalBackend backend :
       {xtalk::ElectricalBackend::kFullSwing,
        xtalk::ElectricalBackend::kLowSwing}) {
    Fixture s = make_fixture(12);
    s.config.electrical.backend = backend;
    // The library is generated against the same electricals the campaign
    // simulates, like ScenarioSpec::make_library does.
    spec::ScenarioSpec scn;
    scn.multi_session = false;
    scn.defect_count = 12;
    scn.system.electrical.backend = backend;
    s.library = scn.make_library();
    sim::CampaignOptions opts;
    opts.parallel = {1};
    const sim::OnlineResult a = sim::run_online_detection(
        s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
        opts);
    opts.parallel = {4};
    const sim::OnlineResult b = sim::run_online_detection(
        s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
        opts);
    EXPECT_EQ(a.outcomes, b.outcomes)
        << "backend " << xtalk::to_string(backend);
  }
}

TEST(OnlineCampaign, TightDeadlineShowsInterference) {
  const Fixture s = make_fixture(1);
  soc::OnlineConfig tight = s.online;
  tight.slice_cycles = 512;
  tight.workload_cycles = 64;
  tight.deadline_cycles = 16;  // every test slice blows the deadline
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult r = sim::run_online_detection(
      s.config, tight, s.program, soc::BusKind::kAddress, s.library, opts);
  EXPECT_GT(r.gold.deadlines_late + r.gold.deadlines_missed, 0u);
}

TEST(OnlineCampaign, ShardingRejected) {
  const Fixture s = make_fixture(2);
  sim::CampaignOptions opts;
  opts.parallel = {1};
  opts.shard = {0, 2};
  EXPECT_THROW(sim::run_online_detection(s.config, s.online, s.program,
                                         soc::BusKind::kAddress, s.library,
                                         opts),
               std::invalid_argument);
}

TEST(OnlineCampaign, SessionsMergeFirstDetectionWins) {
  spec::ScenarioSpec scn;
  scn.defect_count = 12;
  const auto sessions = scn.make_sessions();
  const auto lib = scn.make_library();
  soc::OnlineConfig online;
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult merged = sim::run_online_detection_sessions(
      scn.system, online, sessions, scn.bus, lib, opts);
  ASSERT_EQ(merged.verdicts.size(), lib.size());
  std::uint64_t single_gold_rounds = 0;
  std::size_t live = 0;
  for (const auto& sess : sessions) {
    if (sess.program.tests.empty()) continue;
    ++live;
    sim::OnlineResult one = sim::run_online_detection(
        scn.system, online, sess.program, scn.bus, lib, opts);
    single_gold_rounds += one.gold.rounds;
  }
  ASSERT_GT(live, 1u);
  EXPECT_EQ(merged.gold.rounds, single_gold_rounds);
  for (const sim::OnlineOutcome& o : merged.outcomes) {
    if (sim::is_detected(o.verdict)) {
      EXPECT_GT(o.detection_latency_cycles, 0u);
    }
  }
}

TEST(OnlineCampaign, EmptySessionSetRejected) {
  spec::ScenarioSpec scn;
  scn.defect_count = 2;
  const auto lib = scn.make_library();
  std::vector<sbst::GenerationResult> none(1);  // a session with no tests
  sim::CampaignOptions opts;
  opts.parallel = {1};
  EXPECT_THROW(sim::run_online_detection_sessions(scn.system, {}, none,
                                                  scn.bus, lib, opts),
               std::runtime_error);
}

TEST(OnlineCampaign, HeaderTruncatedCheckpointRestartsCleanly) {
  // A checkpoint cut inside its header -- empty, mid-magic, mid-key line --
  // is salvage, not a foreign file: the campaign restarts from zero and
  // lands on the uninterrupted outcomes.
  const Fixture s = make_fixture(8);
  sim::CampaignOptions opts;
  opts.parallel = {1};
  const sim::OnlineResult ref = sim::run_online_detection(
      s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
      opts);
  const std::string ckpt = temp_checkpoint("header_cut");
  opts.checkpoint_path = ckpt;
  for (const std::uintmax_t len : {0u, 10u, 29u}) {
    std::remove(ckpt.c_str());
    sim::run_online_detection(s.config, s.online, s.program,
                              soc::BusKind::kAddress, s.library, opts);
    std::filesystem::resize_file(ckpt, len);
    util::CampaignStats stats;
    sim::CampaignOptions resume = opts;
    resume.stats = &stats;
    try {
      const sim::OnlineResult r = sim::run_online_detection(
          s.config, s.online, s.program, soc::BusKind::kAddress, s.library,
          resume);
      EXPECT_EQ(r.outcomes, ref.outcomes) << "len=" << len;
      EXPECT_EQ(stats.restored_from_checkpoint, 0u) << "len=" << len;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "header cut at byte " << len << " threw: " << e.what();
    }
  }
  std::remove(ckpt.c_str());
}

TEST(CheckpointPacing, FailedPeriodicFlushesArePacedInBothModes) {
  // With every checkpoint write failing, each live session's store counts
  // one failed periodic flush per checkpoint_every records in both modes
  // -- not a full rewrite attempt for every record after the first miss.
  spec::ScenarioSpec scn;
  scn.defect_count = 10;
  const auto sessions = scn.make_sessions();
  std::size_t live_sessions = 0;
  for (const auto& session : sessions)
    live_sessions += !session.program.tests.empty();
  ASSERT_GT(live_sessions, 1u);
  const auto lib = scn.make_library();
  soc::OnlineConfig online;
  online.enabled = true;
  InjectorGuard guard;
  for (const bool on_line : {false, true}) {
    const std::string ckpt =
        temp_checkpoint(on_line ? "pacing_online" : "pacing_offline");
    std::remove(ckpt.c_str());
    util::CampaignStats stats;
    sim::CampaignOptions opts;
    opts.parallel = {2};
    opts.stats = &stats;
    opts.checkpoint_path = ckpt;
    opts.checkpoint_every = 3;
    util::FaultInjector::global().configure("checkpoint.write%1");
    if (on_line)
      sim::run_online_detection_sessions(scn.system, online, sessions,
                                         scn.bus, lib, opts);
    else
      sim::run_detection_sessions(scn.system, sessions, scn.bus, lib, opts);
    util::FaultInjector::global().disarm();
    EXPECT_EQ(stats.flush_failures, live_sessions * (10 / 3))
        << (on_line ? "on-line" : "off-line");
    std::remove(ckpt.c_str());
  }
}

TEST(OnlineCampaign, StatsJsonRoundTripsOnlineCounters) {
  util::CampaignStats stats;
  stats.online_rounds = 7;
  stats.online_mmio_heartbeats = 42;
  stats.online_deadlines_late = 3;
  stats.online_deadlines_missed = 1;
  stats.online_detection_latency_cycles = 12345;
  stats.online_latency_samples = 9;
  util::CampaignStats parsed;
  ASSERT_TRUE(util::parse_stats_json(stats.json("campaign"), parsed));
  EXPECT_EQ(parsed.online_rounds, stats.online_rounds);
  EXPECT_EQ(parsed.online_mmio_heartbeats, stats.online_mmio_heartbeats);
  EXPECT_EQ(parsed.online_deadlines_late, stats.online_deadlines_late);
  EXPECT_EQ(parsed.online_deadlines_missed, stats.online_deadlines_missed);
  EXPECT_EQ(parsed.online_detection_latency_cycles,
            stats.online_detection_latency_cycles);
  EXPECT_EQ(parsed.online_latency_samples, stats.online_latency_samples);
}

}  // namespace
