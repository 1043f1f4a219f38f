// Serial-vs-parallel equivalence for the campaign engine.
//
// The contract under test: every campaign entry point returns *bitwise
// identical* results for any thread count, because defects are statically
// partitioned, every worker owns a private soc::System, and verdicts are
// written by defect index.  threads == 1 is the exact serial path, so
// comparing it against threads in {2, 4, 8} proves the parallel engine
// changes nothing but wall-clock time.

#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>

#include "hwbist/bist.h"
#include "hwbist/random_patterns.h"
#include "soc/control.h"
#include "spec/scenario.h"
#include "util/fault_injector.h"
#include "util/parallel.h"

namespace xtest::sim {
namespace {

constexpr std::uint64_t kSeed = 20010618;
const unsigned kThreadCounts[] = {2, 4, 8};

util::ParallelConfig serial() { return {1}; }

soc::BusKind all_buses[] = {soc::BusKind::kAddress, soc::BusKind::kData,
                            soc::BusKind::kControl};

TEST(ParallelCampaign, RunDetectionMatchesSerialOnEveryBus) {
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  for (soc::BusKind bus : all_buses) {
    const auto lib = make_defect_library(cfg, bus, 24, kSeed);
    const auto gold =
        run_detection(cfg, prog.program, bus, lib, 16, serial());
    for (unsigned t : kThreadCounts) {
      const auto par =
          run_detection(cfg, prog.program, bus, lib, 16, {t});
      EXPECT_EQ(gold, par) << "bus " << soc::to_string(bus) << " threads "
                           << t;
    }
  }
}

TEST(ParallelCampaign, RunDetectionSessionsMatchesSerialOnEveryBus) {
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  for (soc::BusKind bus : all_buses) {
    const auto lib = make_defect_library(cfg, bus, 12, kSeed);
    const auto gold =
        run_detection_sessions(cfg, sessions, bus, lib, 16, serial());
    for (unsigned t : kThreadCounts) {
      const auto par =
          run_detection_sessions(cfg, sessions, bus, lib, 16, {t});
      EXPECT_EQ(gold, par) << "bus " << soc::to_string(bus) << " threads "
                           << t;
    }
  }
}

TEST(ParallelCampaign, PerLineCoverageMatchesSerial) {
  const soc::SystemConfig cfg;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 10, kSeed);
  const PerLineCoverage gold = per_line_coverage(
      cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{}, 16,
      serial());
  for (unsigned t : kThreadCounts) {
    const PerLineCoverage par = per_line_coverage(
        cfg, soc::BusKind::kAddress, lib, sbst::GeneratorConfig{}, 16, {t});
    // Coverage fractions are ratios of per-defect verdict vectors; bitwise
    // identical verdicts mean exactly equal doubles, no tolerance needed.
    EXPECT_EQ(gold.individual, par.individual) << "threads " << t;
    EXPECT_EQ(gold.cumulative, par.cumulative) << "threads " << t;
    EXPECT_EQ(gold.tests_placed, par.tests_placed) << "threads " << t;
    EXPECT_EQ(gold.overall, par.overall) << "threads " << t;
    EXPECT_EQ(gold.library_size, par.library_size) << "threads " << t;
  }
}

TEST(ParallelCampaign, HwBistLibraryRunsMatchSerial) {
  const soc::SystemConfig cfg;
  const soc::System sys(cfg);
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 40, kSeed);

  const hwbist::HardwareBist bist(cpu::kDataBits, true);
  const auto bist_gold = bist.run_library(sys.nominal_data_network(),
                                          sys.data_model(), lib, serial());
  const hwbist::RandomPatternBist rnd(cpu::kDataBits, 64, kSeed);
  const auto rnd_gold = rnd.run_library(sys.nominal_data_network(),
                                        sys.data_model(), lib, serial());
  for (unsigned t : kThreadCounts) {
    EXPECT_EQ(bist_gold, bist.run_library(sys.nominal_data_network(),
                                          sys.data_model(), lib, {t}));
    EXPECT_EQ(rnd_gold, rnd.run_library(sys.nominal_data_network(),
                                        sys.data_model(), lib, {t}));
  }
}

TEST(ParallelCampaign, RepeatedRunsWithSameSeedAreIdentical) {
  // Determinism property: the whole pipeline (library generation from a
  // seed through parallel detection) is a pure function of its inputs.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  for (unsigned t : {1u, 4u}) {
    const auto lib_a =
        make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
    const auto lib_b =
        make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
    const auto det_a = run_detection(cfg, prog.program,
                                     soc::BusKind::kAddress, lib_a, 16, {t});
    const auto det_b = run_detection(cfg, prog.program,
                                     soc::BusKind::kAddress, lib_b, 16, {t});
    EXPECT_EQ(det_a, det_b) << "threads " << t;
  }
}

TEST(ParallelCampaign, StatsAreDeterministicAcrossThreadCounts) {
  // defects_simulated and simulated_cycles are pure functions of the
  // campaign inputs; wall_seconds and threads are the only host-dependent
  // fields.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 16, kSeed);

  util::CampaignStats serial_stats;
  run_detection(cfg, prog.program, soc::BusKind::kAddress, lib, 16, serial(),
                &serial_stats);
  EXPECT_EQ(serial_stats.defects_simulated, lib.size());
  EXPECT_EQ(serial_stats.threads, 1u);
  EXPECT_GT(serial_stats.simulated_cycles, 0u);
  EXPECT_GE(serial_stats.wall_seconds, 0.0);

  for (unsigned t : kThreadCounts) {
    util::CampaignStats s;
    run_detection(cfg, prog.program, soc::BusKind::kAddress, lib, 16, {t},
                  &s);
    EXPECT_EQ(s.defects_simulated, serial_stats.defects_simulated);
    EXPECT_EQ(s.simulated_cycles, serial_stats.simulated_cycles)
        << "threads " << t;
    EXPECT_EQ(s.threads, t);
  }
}

TEST(ParallelCampaign, StatsAccumulateAcrossSessions) {
  const soc::SystemConfig cfg;
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 8, kSeed);
  std::size_t live_sessions = 0;
  for (const auto& s : sessions) live_sessions += !s.program.tests.empty();

  util::CampaignStats stats;
  run_detection_sessions(cfg, sessions, soc::BusKind::kAddress, lib, 16,
                         serial(), &stats);
  EXPECT_EQ(stats.defects_simulated, live_sessions * lib.size());
}

TEST(ParallelCampaign, EveryBuiltinScenarioMatchesSerial) {
  // Each built-in's electricals and program set, off-line, at 1 and 4
  // threads and three library seeds: the verdicts, the breakdown, the
  // slot count and the simulated cycles are pure functions of the inputs.
  for (const std::string& name : spec::builtin_scenario_names()) {
    spec::ScenarioSpec s = spec::builtin_scenario(name);
    s.defect_count = 12;
    for (const std::uint64_t seed : {kSeed, kSeed + 7, std::uint64_t{424242}}) {
      s.seed = seed;
      const auto sessions = s.make_sessions();
      const auto lib = s.make_library();
      util::CampaignStats serial_stats;
      sim::CampaignOptions serial_opts = s.campaign_options(&serial_stats);
      serial_opts.parallel = serial();
      const std::vector<Verdict> reference =
          run_detection_sessions(s.system, sessions, s.bus, lib, serial_opts);

      util::CampaignStats stats;
      sim::CampaignOptions opts = s.campaign_options(&stats);
      opts.parallel = {4};
      const std::string where = name + " seed=" + std::to_string(seed);
      EXPECT_EQ(run_detection_sessions(s.system, sessions, s.bus, lib, opts),
                reference)
          << where;
      const auto pure = [](const util::CampaignStats& st) {
        return std::make_tuple(st.detected, st.detected_by_timeout,
                               st.undetected, st.sim_errors,
                               st.defects_simulated, st.simulated_cycles);
      };
      EXPECT_EQ(pure(stats), pure(serial_stats)) << where;
    }
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(ParallelCampaign, CheckpointBytesMatchAtEveryThreadCount) {
  // The final checkpoint of a multi-session campaign is written by slot
  // index, so its bytes do not depend on the order workers finished in.
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 48;
  const auto sessions = s.make_sessions();
  const auto lib = s.make_library();
  std::vector<Verdict> serial_det;
  std::string serial_bytes;
  for (const unsigned threads : {1u, 2u, 4u}) {
    const std::string path = std::string(::testing::TempDir()) +
                             "/xtest_ckpt_threads_" +
                             std::to_string(threads) + ".ckpt";
    std::remove(path.c_str());
    sim::CampaignOptions opts = s.campaign_options(nullptr);
    opts.parallel = {threads};
    opts.checkpoint_path = path;
    opts.checkpoint_key = default_checkpoint_key(s.bus, lib);
    const std::vector<Verdict> det =
        run_detection_sessions(s.system, sessions, s.bus, lib, opts);
    const std::string bytes = file_bytes(path);
    std::remove(path.c_str());
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      serial_det = det;
      serial_bytes = bytes;
      continue;
    }
    EXPECT_EQ(det, serial_det) << "threads=" << threads;
    EXPECT_EQ(bytes, serial_bytes) << "threads=" << threads;
  }
}

TEST(BatchScreenThreads,
     KillDuringTheScreenLeavesTheSameCheckpointAtEveryThreadCount) {
  // The kill used to land inside the batched screen's ordered completions.
  // With the screen gone it lands wherever the fan-out is, so the file a
  // kill leaves may differ by thread count; what must not is the resumed
  // verdicts and the checkpoint the finished campaign leaves, which equals
  // the one an uninterrupted run writes.
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm_on_exit;
  constexpr std::size_t kKillAt = 5;
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 96;
  const sbst::TestProgram program = s.make_sessions().front().program;
  const auto lib = s.make_library();
  const auto options_at = [&](unsigned threads, const std::string& path) {
    sim::CampaignOptions opts = s.campaign_options(nullptr);
    opts.parallel = {threads};
    opts.checkpoint_path = path;
    opts.checkpoint_key = default_checkpoint_key(s.bus, lib);
    opts.checkpoint_every = 2;
    return opts;
  };
  const auto path_for = [](const std::string& tag) {
    return std::string(::testing::TempDir()) + "/xtest_kill_threads_" + tag +
           ".ckpt";
  };

  const std::string ref_path = path_for("ref");
  std::remove(ref_path.c_str());
  const std::vector<Verdict> reference =
      run_detection(s.system, program, s.bus, lib, options_at(1, ref_path));
  const std::string reference_bytes = file_bytes(ref_path);
  std::remove(ref_path.c_str());
  ASSERT_FALSE(reference_bytes.empty());

  for (const unsigned threads : {1u, 4u}) {
    const std::string path = path_for("t" + std::to_string(threads));
    std::remove(path.c_str());
    sim::CampaignOptions opts = options_at(threads, path);
    util::FaultInjector::global().configure("campaign.kill@" +
                                            std::to_string(kKillAt));
    EXPECT_THROW(run_detection(s.system, program, s.bus, lib, opts),
                 CampaignInterrupted)
        << "threads=" << threads;
    util::FaultInjector::global().disarm();

    util::CampaignStats resumed_stats;
    opts.stats = &resumed_stats;
    EXPECT_EQ(run_detection(s.system, program, s.bus, lib, opts), reference)
        << "threads=" << threads;
    // Workers still in flight when the kill fires may record more, never
    // fewer.
    if (threads == 1) {
      EXPECT_EQ(resumed_stats.restored_from_checkpoint, kKillAt);
    } else {
      EXPECT_GE(resumed_stats.restored_from_checkpoint, kKillAt);
    }
    EXPECT_EQ(file_bytes(path), reference_bytes) << "threads=" << threads;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace xtest::sim
