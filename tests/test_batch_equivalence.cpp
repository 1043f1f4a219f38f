// The differential gate of the transition-major batched campaign: batched
// and per-defect evaluation must be *bitwise* interchangeable.
//
// Three layers, matching the three claims batch.h makes:
//   * DefectBatch gather/scatter is exact (original factors, not the
//     derived couplings, so no division rounding);
//   * BatchEvaluator::receive / screen are bit-identical to running
//     BusEvaluator on each lane's scattered defect alone, forced MAFs
//     included;
//   * whole campaigns -- every built-in scenario, at 1 and 4 threads, at
//     batch sizes 1 / 7 / 64 / whole-library, across library seeds --
//     produce verdict vectors and CampaignStats verdict counts identical
//     to the unbatched per-defect loop.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "sim/verdict.h"
#include "soc/system.h"
#include "spec/scenario.h"
#include "util/bitvec.h"
#include "util/fault_injector.h"
#include "util/parallel.h"
#include "xtalk/batch.h"
#include "xtalk/defect.h"
#include "xtalk/error_model.h"
#include "xtalk/fast_model.h"
#include "xtalk/maf.h"
#include "xtalk/rc_network.h"

namespace xtest {
namespace {

constexpr std::uint64_t kSeed = 20010618;

// ---------------------------------------------------------------------------
// SoA gather/scatter exactness.

xtalk::DefectLibrary random_library(std::mt19937_64& rng, unsigned width,
                                    std::size_t count, double sigma_pct) {
  std::uniform_real_distribution<double> factor(0.0, 3.0);
  const std::size_t npairs = static_cast<std::size_t>(width) *
                             (width - 1) / 2;
  std::vector<xtalk::Defect> defects;
  for (std::size_t d = 0; d < count; ++d) {
    std::vector<double> factors(npairs);
    for (double& f : factors) f = factor(rng);
    defects.emplace_back(width, std::move(factors));
  }
  xtalk::DefectConfig cfg;
  cfg.sigma_pct = sigma_pct;
  cfg.count = count;
  return xtalk::DefectLibrary::from_defects(cfg, defects);
}

xtalk::BusGeometry geometry_for(unsigned width) {
  xtalk::BusGeometry g;
  g.width = width;
  return g;
}

xtalk::MafFault random_fault(std::mt19937_64& rng, unsigned width) {
  const xtalk::MafType types[] = {
      xtalk::MafType::kPositiveGlitch, xtalk::MafType::kNegativeGlitch,
      xtalk::MafType::kRisingDelay, xtalk::MafType::kFallingDelay};
  return {static_cast<unsigned>(rng() % width), types[rng() % 4],
          rng() % 2 == 0 ? xtalk::BusDirection::kCpuToCore
                         : xtalk::BusDirection::kCoreToCpu};
}

TEST(DefectBatchSoA, GatherScatterRoundTripsEveryFieldExactly) {
  std::mt19937_64 rng(0xBA7C4);
  for (int trial = 0; trial < 24; ++trial) {
    const unsigned width = 2 + static_cast<unsigned>(rng() % 15);  // 2..16
    // Degenerate library sizes first: the empty and one-defect batches
    // must construct and round-trip like any other.
    const std::size_t count =
        trial == 0 ? 0 : trial == 1 ? 1 : 1 + rng() % 24;
    const double sigma = 5.0 + static_cast<double>(rng() % 100);
    const auto lib = random_library(rng, width, count, sigma);
    const xtalk::RcNetwork nominal(geometry_for(width));

    // Forced-MAF mix: roughly a third of the lanes pin an ideal MAF.
    std::vector<std::optional<xtalk::MafFault>> forced(count);
    for (std::size_t l = 0; l < count; ++l)
      if (rng() % 3 == 0) forced[l] = random_fault(rng, width);

    const xtalk::DefectBatch batch(nominal, lib, forced);
    ASSERT_EQ(batch.width(), width);
    ASSERT_EQ(batch.lanes(), count);
    for (std::size_t l = 0; l < count; ++l) {
      EXPECT_EQ(batch.source_index(l), l);
      const xtalk::Defect back = batch.scatter(l);
      ASSERT_EQ(back.width(), width);
      for (unsigned i = 0; i < width; ++i)
        for (unsigned j = i + 1; j < width; ++j)
          EXPECT_EQ(back.factor(i, j), lib[l].factor(i, j))
              << "trial=" << trial << " lane=" << l << " pair=(" << i << ","
              << j << ")";
      ASSERT_EQ(batch.forced(l).has_value(), forced[l].has_value());
      if (forced[l]) EXPECT_EQ(*batch.forced(l), *forced[l]);
    }
  }
}

TEST(DefectBatchSoA, SubsetGatherKeepsSourceIndices) {
  std::mt19937_64 rng(7);
  const unsigned width = 8;
  const auto lib = random_library(rng, width, 16, 50.0);
  const xtalk::RcNetwork nominal(geometry_for(width));
  const std::vector<std::size_t> indices = {13, 2, 7, 2};  // dups allowed
  const xtalk::DefectBatch batch(nominal, lib, indices);
  ASSERT_EQ(batch.lanes(), indices.size());
  for (std::size_t l = 0; l < indices.size(); ++l) {
    EXPECT_EQ(batch.source_index(l), indices[l]);
    const xtalk::Defect back = batch.scatter(l);
    for (unsigned i = 0; i < width; ++i)
      for (unsigned j = i + 1; j < width; ++j)
        EXPECT_EQ(back.factor(i, j), lib[indices[l]].factor(i, j));
  }
}

TEST(DefectBatchSoA, WidthMismatchThrowsNamingTheDefect) {
  const unsigned width = 6;
  std::mt19937_64 rng(11);
  auto defects = random_library(rng, width, 3, 50.0).defects();
  defects[1] = xtalk::Defect(4, std::vector<double>(6, 1.0));
  const auto lib =
      xtalk::DefectLibrary::from_defects(xtalk::DefectConfig{}, defects);
  const xtalk::RcNetwork nominal(geometry_for(width));
  try {
    const xtalk::DefectBatch batch(nominal, lib, {0, 1, 2});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("defect 1"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// BatchEvaluator vs BusEvaluator, per lane, bit for bit.

TEST(BatchEvaluatorBits, ReceiveMatchesPerDefectBusEvaluator) {
  std::mt19937_64 rng(0xFA57);
  for (const unsigned width : {3u, 8u, 12u}) {
    const xtalk::RcNetwork nominal(geometry_for(width));
    const xtalk::ErrorModelConfig config = xtalk::ErrorModelConfig::calibrated(
        nominal, xtalk::recommended_cth(nominal));
    const auto lib = random_library(rng, width, 24, 50.0);
    const xtalk::DefectBatch batch(nominal, lib);
    const xtalk::BatchEvaluator eval(batch, config);

    const std::uint64_t mask = util::BusWord::mask(width);
    for (std::size_t lane = 0; lane < lib.size(); ++lane) {
      const xtalk::BusEvaluator reference(lib[lane].apply(nominal), config);
      for (int t = 0; t < 64; ++t) {
        const std::uint64_t v1 = rng() & mask;
        const std::uint64_t v2 = rng() & mask;
        EXPECT_EQ(eval.receive(lane, v1, v2), reference.receive(v1, v2))
            << "width=" << width << " lane=" << lane << " v1=" << v1
            << " v2=" << v2;
      }
    }
  }
}

TEST(BatchEvaluatorBits, ScreenAgreesWithReceiveOnEveryLane) {
  std::mt19937_64 rng(0x5C12EE);
  const unsigned width = 12;
  const xtalk::RcNetwork nominal(geometry_for(width));
  const xtalk::ErrorModelConfig config = xtalk::ErrorModelConfig::calibrated(
      nominal, xtalk::recommended_cth(nominal));
  const auto lib = random_library(rng, width, 33, 50.0);
  const xtalk::DefectBatch batch(nominal, lib);
  xtalk::BatchEvaluator eval(batch, config);
  const xtalk::BusEvaluator gold(nominal, config);

  const std::uint64_t mask = util::BusWord::mask(width);
  for (int t = 0; t < 128; ++t) {
    const std::uint64_t v1 = rng() & mask;
    // Every eighth transition is quiet (v1 == v2): the screen's shortcut
    // path must agree with receive too.
    const std::uint64_t v2 = t % 8 == 0 ? v1 : rng() & mask;
    const std::uint64_t expected = gold.receive(v1, v2);
    std::vector<std::uint8_t> live(lib.size(), 1);
    const std::size_t alive =
        eval.screen(v1, v2, xtalk::BusDirection::kCpuToCore, expected,
                    live.data());
    std::size_t check = 0;
    for (std::size_t lane = 0; lane < lib.size(); ++lane) {
      const bool matches = eval.receive(lane, v1, v2) == expected;
      EXPECT_EQ(live[lane] != 0, matches) << "lane=" << lane << " t=" << t;
      check += matches;
    }
    EXPECT_EQ(alive, check);
  }
}

TEST(BatchEvaluatorBits, ForcedMafOverridesExactlyItsMaTest) {
  std::mt19937_64 rng(0xF0CED);
  const unsigned width = 12;
  const xtalk::RcNetwork nominal(geometry_for(width));
  const xtalk::ErrorModelConfig config = xtalk::ErrorModelConfig::calibrated(
      nominal, xtalk::recommended_cth(nominal));
  const auto lib = random_library(rng, width, 6, 50.0);

  const xtalk::MafFault fault{5, xtalk::MafType::kRisingDelay,
                              xtalk::BusDirection::kCpuToCore};
  std::vector<std::optional<xtalk::MafFault>> forced(lib.size());
  forced[2] = fault;
  const xtalk::DefectBatch plain(nominal, lib);
  const xtalk::DefectBatch pinned(nominal, lib, forced);
  const xtalk::BatchEvaluator plain_eval(plain, config);
  const xtalk::BatchEvaluator pinned_eval(pinned, config);

  const xtalk::VectorPair ma = xtalk::ma_test(width, fault);
  const std::uint64_t v1 = ma.v1.bits(), v2 = ma.v2.bits();

  // On the MA pair in the fault's direction, the pinned lane samples the
  // ideal faulty word; the wrong direction and every other lane fall back
  // to the electrical model.
  EXPECT_EQ(pinned_eval.receive(2, v1, v2, fault.direction),
            xtalk::faulty_v2(fault, ma).bits());
  EXPECT_EQ(pinned_eval.receive(2, v1, v2, xtalk::BusDirection::kCoreToCpu),
            plain_eval.receive(2, v1, v2, xtalk::BusDirection::kCoreToCpu));
  EXPECT_EQ(pinned_eval.receive(1, v1, v2, fault.direction),
            plain_eval.receive(1, v1, v2, fault.direction));
  // A non-MA transition never triggers the override.
  const std::uint64_t mask = util::BusWord::mask(width);
  for (int t = 0; t < 32; ++t) {
    const std::uint64_t a = rng() & mask, b = rng() & mask;
    if (a == v1 && b == v2) continue;
    EXPECT_EQ(pinned_eval.receive(2, a, b, fault.direction),
              plain_eval.receive(2, a, b, fault.direction));
  }
}

// ---------------------------------------------------------------------------
// Whole-campaign differential equivalence: the acceptance gate.

struct VerdictCounts4 {
  std::size_t detected, timeout, undetected, sim_errors;
  bool operator==(const VerdictCounts4&) const = default;
};

VerdictCounts4 counts_of(const util::CampaignStats& s) {
  return {s.detected, s.detected_by_timeout, s.undetected, s.sim_errors};
}

TEST(BatchEquivalence, EveryBuiltinScenarioMatchesPerDefectVerdictsExactly) {
  for (const std::string& name : spec::builtin_scenario_names()) {
    spec::ScenarioSpec base = spec::builtin_scenario(name);
    base.defect_count = 12;  // keep 6 scenarios x 3 seeds x 8 runs fast
    for (const std::uint64_t seed : {kSeed, kSeed + 7, std::uint64_t{424242}}) {
      base.seed = seed;
      const auto sessions = base.make_sessions();
      const auto lib = base.make_library();

      spec::ScenarioSpec ref = base;
      ref.batched = false;
      util::CampaignStats ref_stats;
      sim::CampaignOptions ref_opts = ref.campaign_options(&ref_stats);
      ref_opts.parallel = {1};
      const std::vector<sim::Verdict> reference = sim::run_detection_sessions(
          base.system, sessions, base.bus, lib, ref_opts);

      for (const unsigned threads : {1u, 4u}) {
        for (const std::size_t batch :
             {std::size_t{1}, std::size_t{7}, std::size_t{64}, lib.size()}) {
          spec::ScenarioSpec b = base;
          b.batched = true;
          b.batch_size = batch;
          util::CampaignStats stats;
          sim::CampaignOptions opts = b.campaign_options(&stats);
          opts.parallel = {threads};
          const std::vector<sim::Verdict> det = sim::run_detection_sessions(
              base.system, sessions, base.bus, lib, opts);
          EXPECT_EQ(det, reference)
              << name << " seed=" << seed << " threads=" << threads
              << " batch=" << batch;
          EXPECT_EQ(counts_of(stats), counts_of(ref_stats))
              << name << " seed=" << seed << " threads=" << threads
              << " batch=" << batch;
          // Screening replaces simulations one for one: the slot count and
          // the simulated-cycle total stay pure functions of the inputs.
          EXPECT_EQ(stats.defects_simulated, ref_stats.defects_simulated);
          EXPECT_EQ(stats.simulated_cycles, ref_stats.simulated_cycles);
        }
      }
    }
  }
}

TEST(BatchEquivalence, ScreenedDefectsAreCountedAndNeverChangeCoverage) {
  // slow-tester is the screen's best case (most delay defects escape in
  // most sessions): the batched run must report substantial screening AND
  // the exact unbatched verdicts.
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 24;
  const auto sessions = s.make_sessions();
  const auto lib = s.make_library();

  spec::ScenarioSpec ref = s;
  ref.batched = false;
  util::CampaignStats ref_stats;
  sim::CampaignOptions ref_opts = ref.campaign_options(&ref_stats);
  ref_opts.parallel = {1};
  const auto reference =
      sim::run_detection_sessions(s.system, sessions, s.bus, lib, ref_opts);
  EXPECT_EQ(ref_stats.batch_screened, 0u);
  EXPECT_EQ(ref_stats.batch_capacity, 0u);

  util::CampaignStats stats;
  sim::CampaignOptions opts = s.campaign_options(&stats);
  opts.parallel = {1};
  const auto det =
      sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
  EXPECT_EQ(det, reference);
  EXPECT_GT(stats.batch_screened, 0u);
  EXPECT_GT(stats.batched_transitions, 0u);
  EXPECT_GT(stats.batch_fill(), 0.0);
  EXPECT_LE(stats.batch_fill(), 1.0);
  EXPECT_LE(stats.batch_screened, stats.batch_lanes);
}

// ---------------------------------------------------------------------------
// The screen on threads: windows are screened in parallel, the screened
// defects completed serially in index order, so every observable output --
// verdicts, screen counters, checkpoint bytes, kill points -- is the same
// at every thread count.

std::string checkpoint_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("xtest_screen_threads_" + tag + ".ckpt"))
      .string();
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(BatchScreenThreads,
     VerdictsCountersAndCheckpointBytesMatchAtEveryThreadCount) {
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 96;
  const auto sessions = s.make_sessions();
  const auto lib = s.make_library();
  for (const std::size_t batch : {std::size_t{64}, std::size_t{7}}) {
    std::vector<sim::Verdict> serial;
    util::CampaignStats serial_stats;
    std::string serial_bytes;
    for (const unsigned threads : {1u, 2u, 4u}) {
      const std::string path = checkpoint_path(
          "b" + std::to_string(batch) + "_t" + std::to_string(threads));
      std::remove(path.c_str());
      util::CampaignStats stats;
      sim::CampaignOptions opts = s.campaign_options(&stats);
      opts.parallel = {threads};
      opts.batch_size = batch;
      opts.checkpoint_path = path;
      opts.checkpoint_key = sim::default_checkpoint_key(s.bus, lib);
      const std::vector<sim::Verdict> det =
          sim::run_detection_sessions(s.system, sessions, s.bus, lib, opts);
      const std::string bytes = file_bytes(path);
      std::remove(path.c_str());
      EXPECT_GT(stats.batch_screened, 0u);
      EXPECT_GT(stats.screen_seconds, 0.0);
      if (threads == 1) {
        serial = det;
        serial_stats = stats;
        serial_bytes = bytes;
        continue;
      }
      const std::string where =
          "batch=" + std::to_string(batch) +
          " threads=" + std::to_string(threads);
      EXPECT_EQ(det, serial) << where;
      EXPECT_EQ(stats.batch_screened, serial_stats.batch_screened) << where;
      EXPECT_EQ(stats.batched_transitions, serial_stats.batched_transitions)
          << where;
      EXPECT_EQ(stats.batch_lanes, serial_stats.batch_lanes) << where;
      EXPECT_EQ(bytes, serial_bytes) << where;
    }
  }
}

TEST(BatchScreenThreads,
     KillDuringTheScreenLeavesTheSameCheckpointAtEveryThreadCount) {
  struct Disarm {
    ~Disarm() { util::FaultInjector::global().disarm(); }
  } disarm_on_exit;
  constexpr std::size_t kKillAt = 5;
  spec::ScenarioSpec s = spec::builtin_scenario("slow-tester");
  s.defect_count = 96;
  const sbst::TestProgram program = s.make_sessions().front().program;
  const auto lib = s.make_library();

  util::CampaignStats ref_stats;
  sim::CampaignOptions ref_opts = s.campaign_options(&ref_stats);
  ref_opts.parallel = {1};
  ref_opts.batch_size = 7;
  const std::vector<sim::Verdict> reference =
      sim::run_detection(s.system, program, s.bus, lib, ref_opts);
  // The kill must land inside the screen's completions, which are the
  // same at every thread count (the fan-out's order is not).
  ASSERT_GT(ref_stats.batch_screened, kKillAt);

  std::map<unsigned, std::string> killed_bytes;
  for (const unsigned threads : {1u, 4u}) {
    const std::string path =
        checkpoint_path("kill_t" + std::to_string(threads));
    std::remove(path.c_str());
    sim::CampaignOptions opts = s.campaign_options(nullptr);
    opts.parallel = {threads};
    opts.batch_size = 7;
    opts.checkpoint_path = path;
    opts.checkpoint_key = sim::default_checkpoint_key(s.bus, lib);
    opts.checkpoint_every = 2;
    util::FaultInjector::global().configure("campaign.kill@" +
                                            std::to_string(kKillAt));
    EXPECT_THROW(sim::run_detection(s.system, program, s.bus, lib, opts),
                 sim::CampaignInterrupted)
        << "threads=" << threads;
    util::FaultInjector::global().disarm();
    killed_bytes[threads] = file_bytes(path);

    util::CampaignStats resumed_stats;
    opts.stats = &resumed_stats;
    EXPECT_EQ(sim::run_detection(s.system, program, s.bus, lib, opts),
              reference)
        << "threads=" << threads;
    EXPECT_EQ(resumed_stats.restored_from_checkpoint, kKillAt)
        << "threads=" << threads;
    std::remove(path.c_str());
  }
  EXPECT_FALSE(killed_bytes[1].empty());
  EXPECT_EQ(killed_bytes[4], killed_bytes[1]);
}

}  // namespace
}  // namespace xtest
