// The one execution tier: the reference interpreter drives every run, the
// old "decoded" and "jit" spellings still parse to it, and the default
// hot-path configuration (fast receive + transition cache) matches the
// seed evaluation path bitwise -- single runs, generated programs and
// whole campaigns on every built-in scenario.

#include "cpu/microcode.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sbst/generator.h"
#include "sim/campaign.h"
#include "soc/system.h"
#include "spec/scenario.h"
#include "util/parallel.h"

namespace xtest {
namespace {

using cpu::ExecTier;

/// The seed evaluation path end to end: reference error model, no memo.
soc::SystemConfig seed_config() {
  soc::SystemConfig c;
  c.fast_receive = false;
  c.transition_cache = false;
  return c;
}

/// Loads `image` into a fresh system built from `config` and runs it to
/// the budget.
struct TierRun {
  soc::RunResult result;
  cpu::Addr pc;
  std::uint8_t acc;
  std::array<std::uint8_t, cpu::kMemWords> memory;
};

TierRun run_with(const soc::SystemConfig& config, const cpu::MemoryImage& image,
                 cpu::Addr entry, std::uint64_t budget) {
  soc::System sys{config};
  sys.load_and_reset(image, entry);
  const soc::RunResult r = sys.run(budget);
  return {r, sys.processor().pc(), sys.processor().acc(), sys.memory().raw()};
}

void expect_same_run(const TierRun& a, const TierRun& b,
                     const std::string& label) {
  EXPECT_EQ(a.result.cycles, b.result.cycles) << label;
  EXPECT_EQ(a.result.halted, b.result.halted) << label;
  EXPECT_EQ(a.result.reason, b.result.reason) << label;
  EXPECT_EQ(a.pc, b.pc) << label;
  EXPECT_EQ(a.acc, b.acc) << label;
  EXPECT_EQ(a.memory, b.memory) << label;
}

TEST(ExecTier, NamesRoundTripAndUnknownSpellingsAreRejected) {
  EXPECT_EQ(cpu::to_string(ExecTier::kReference), "reference");
  for (const char* name : {"reference", "decoded", "jit"}) {
    const auto parsed = cpu::parse_exec_tier(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, ExecTier::kReference) << name;
  }
  EXPECT_FALSE(cpu::parse_exec_tier("interpreted").has_value());
  EXPECT_FALSE(cpu::parse_exec_tier("Decoded").has_value());
  EXPECT_FALSE(cpu::parse_exec_tier("").has_value());
}

TEST(ExecTier, RandomImagesRunIdenticallyAcrossAllTiers) {
  // Arbitrary byte soup exercises every decode path -- including illegal
  // opcodes, wild jumps and accidental self-stores.  Every accepted tier
  // spelling on the default configuration must agree with the seed path
  // on the full architectural outcome.
  std::mt19937_64 rng(20010618);
  std::uniform_int_distribution<unsigned> byte(0, 255);
  std::uniform_int_distribution<unsigned> addr(0, cpu::kMemWords - 1);
  for (int trial = 0; trial < 12; ++trial) {
    cpu::MemoryImage image;
    for (unsigned a = 0; a < cpu::kMemWords; ++a)
      image.set(static_cast<cpu::Addr>(a),
                static_cast<std::uint8_t>(byte(rng)));
    const auto entry = static_cast<cpu::Addr>(addr(rng));
    const TierRun reference = run_with(seed_config(), image, entry, 4000);
    for (const char* name : {"reference", "decoded", "jit"}) {
      soc::SystemConfig config;
      config.exec_tier = *cpu::parse_exec_tier(name);
      expect_same_run(run_with(config, image, entry, 4000), reference,
                      std::string(name) + " trial " + std::to_string(trial));
    }
  }
}

TEST(ExecTier, GeneratedProgramSignaturesMatchReference) {
  // The paper's own SBST program: every response cell (group signatures
  // plus data-bus write targets) must read back identically on the
  // default configuration and on the seed path.
  const auto gen = sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const sbst::TestProgram& prog = gen.program;
  const TierRun reference =
      run_with(seed_config(), prog.image, prog.entry, 1'000'000);
  const TierRun fast =
      run_with(soc::SystemConfig{}, prog.image, prog.entry, 1'000'000);
  ASSERT_TRUE(reference.result.halted);
  expect_same_run(fast, reference, "default config");
  for (const cpu::Addr cell : prog.response_cells)
    EXPECT_EQ(fast.memory[cell], reference.memory[cell]) << cell;
}

TEST(ExecTier, CampaignVerdictsMatchReferenceOnEveryBuiltinScenario) {
  // The acceptance property: for each built-in scenario (shrunk to a
  // test-sized library), campaign verdicts on the scenario's own
  // configuration (fast receive + transition cache) are bitwise equal to
  // the seed evaluation path at 1 and 4 threads.
  for (const std::string& name : spec::builtin_scenario_names()) {
    spec::ScenarioSpec scn = spec::builtin_scenario(name);
    scn.defect_count = 4;
    const auto sessions = scn.make_sessions();
    const auto lib = scn.make_library();
    soc::SystemConfig seed_cfg = scn.system;
    seed_cfg.fast_receive = false;
    seed_cfg.transition_cache = false;
    for (const unsigned threads : {1u, 4u}) {
      const util::ParallelConfig par{threads};
      const auto seed = sim::run_detection_sessions(
          seed_cfg, sessions, scn.bus, lib, scn.cycle_factor, par);
      const auto fast = sim::run_detection_sessions(
          scn.system, sessions, scn.bus, lib, scn.cycle_factor, par);
      EXPECT_EQ(fast, seed) << name << " threads=" << threads;
    }
  }
}

TEST(CampaignStats, JsonCarriesTierAndRunMemoCounters) {
  // The former tier and run-memo counters are always 0 now, but the
  // fields stay in the stats record for the consumers that read them.
  util::CampaignStats stats;
  stats.decode_cache_hits = 5;
  stats.jit_bailouts = 1;
  stats.run_reuses = 7;
  const std::string j = stats.json("tier");
  EXPECT_NE(j.find("\"decode_cache_hits\":5"), std::string::npos) << j;
  EXPECT_NE(j.find("\"jit_bailouts\":1"), std::string::npos) << j;
  EXPECT_NE(j.find("\"run_reuses\":7"), std::string::npos) << j;

  util::CampaignStats merged;
  merged.merge_from(stats);
  merged.merge_from(stats);
  EXPECT_EQ(merged.decode_cache_hits, 10u);
  EXPECT_EQ(merged.jit_bailouts, 2u);
  EXPECT_EQ(merged.run_reuses, 14u);
}

TEST(ExecTier, CampaignAccountsDecodeTraffic) {
  // There is no pre-decode and no run memo any more: a campaign reports
  // zero for their counters and simulates every defect.
  const soc::SystemConfig config;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const auto lib =
      sim::make_defect_library(config, soc::BusKind::kAddress, 5, 77);
  for (int pass = 0; pass < 2; ++pass) {
    util::CampaignStats stats;
    sim::CampaignOptions o;
    o.stats = &stats;
    sim::run_detection(config, prog.program, soc::BusKind::kAddress, lib, o);
    EXPECT_EQ(stats.decode_cache_hits, 0u) << pass;
    EXPECT_EQ(stats.jit_bailouts, 0u) << pass;
    EXPECT_EQ(stats.run_reuses, 0u) << pass;
    EXPECT_EQ(stats.defects_simulated, lib.size()) << pass;
  }
}

}  // namespace
}  // namespace xtest
