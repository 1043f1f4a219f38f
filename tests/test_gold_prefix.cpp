// The skip layers of an off-line campaign (DESIGN.md D17) against the raw
// interpreter.
//
// A defect simulation starts at its first diverging transfer (or is
// decided as gold's when none diverges), and System::run fast-forwards
// provably periodic loops.  Both must be invisible: per slot, the verdict,
// the cycle count and the response bytes equal those of the plain
// load_and_reset + Cpu::run(budget) on a reference-model system (no fast
// receive, no transition cache) -- on every bus, at two seeds, with and
// without the watchdog, at 1 and 4 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cpu/assembler.h"
#include "sim/campaign.h"
#include "soc/mmio.h"
#include "soc/system.h"
#include "util/fault_injector.h"

namespace xtest::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {20010618, 900913};
constexpr soc::BusKind kBuses[] = {soc::BusKind::kAddress,
                                   soc::BusKind::kData,
                                   soc::BusKind::kControl};
constexpr std::size_t kDefects = 40;
constexpr std::uint64_t kCycleFactor = 16;

soc::SystemConfig reference_config() {
  soc::SystemConfig ref;
  ref.fast_receive = false;
  ref.transition_cache = false;
  return ref;
}

/// The oracle: the raw interpreter, from the entry, to the cap.
ResponseSnapshot raw_run(soc::System& system, const sbst::TestProgram& program,
                         std::uint64_t budget) {
  system.load_and_reset(program.image, program.entry);
  cpu::Cpu& core = system.processor();
  core.run(budget);
  ResponseSnapshot snap;
  snap.completed =
      core.halted() && core.halt_reason() == cpu::HaltReason::kHltInstruction;
  snap.reason = core.halt_reason();
  snap.cycles = core.cycles();
  for (cpu::Addr a : program.response_cells)
    snap.values.push_back(system.memory().read(a));
  return snap;
}

void expect_same_run(const ResponseSnapshot& want, const ResponseSnapshot& got,
                     const std::string& where) {
  EXPECT_EQ(got.completed, want.completed) << where;
  EXPECT_EQ(got.reason, want.reason) << where;
  EXPECT_EQ(got.cycles, want.cycles) << where;
  EXPECT_EQ(got.values, want.values) << where;
}

TEST(SlotSkip, EverySlotMatchesTheRawInterpreter) {
  const soc::SystemConfig cfg;
  const soc::SystemConfig ref = reference_config();
  const auto program =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate().program;
  std::size_t timeouts = 0;
  std::size_t gold_equal = 0;
  std::size_t late_starts = 0;
  std::uint64_t loop_skipped = 0;
  for (const std::uint64_t seed : kSeeds) {
    for (const soc::BusKind bus : kBuses) {
      const std::string tag =
          "bus " + soc::to_string(bus) + " seed " + std::to_string(seed);
      const xtalk::DefectLibrary lib =
          make_defect_library(cfg, bus, kDefects, seed);

      soc::System oracle(ref);
      const ResponseSnapshot raw_gold = raw_run(oracle, program, 1'000'000);
      ASSERT_TRUE(raw_gold.completed) << tag;
      const std::uint64_t budget = raw_gold.cycles * kCycleFactor + 1000;
      std::vector<ResponseSnapshot> raw(lib.size());
      std::vector<Verdict> raw_verdicts(lib.size());
      std::uint64_t raw_cycles = raw_gold.cycles;
      for (std::size_t i = 0; i < lib.size(); ++i) {
        oracle.apply_defect(bus, lib[i]);
        raw[i] = raw_run(oracle, program, budget);
        oracle.clear_defects();
        raw_verdicts[i] = classify(raw_gold, raw[i]);
        raw_cycles += raw[i].cycles;
        timeouts += raw_verdicts[i] == Verdict::kDetectedByTimeout;
      }

      // The slot function itself, on the accelerated and the reference
      // receive path, plain and under the watchdog.
      for (const soc::SystemConfig& c : {cfg, ref}) {
        soc::System gold_system(c);
        const GoldRun gold = run_gold(gold_system, program, bus);
        expect_same_run(raw_gold, gold.responses, tag + " gold");
        soc::System system(c);
        for (std::size_t i = 0; i < lib.size(); ++i) {
          const std::string where = tag + " slot " + std::to_string(i);
          SlotSkip skip;
          expect_same_run(raw[i],
                          simulate_slot(system, bus, lib[i], program, gold,
                                        budget, 0, &skip),
                          where);
          expect_same_run(raw[i],
                          simulate_slot(system, bus, lib[i], program, gold,
                                        budget, 600'000),
                          where + " watchdog");
          gold_equal += skip.gold_equal;
          late_starts += !skip.gold_equal && skip.prefix_cycles > 0;
          if (skip.gold_equal) EXPECT_EQ(raw[i].cycles, raw_gold.cycles);
        }
        loop_skipped += system.loop_cycles_skipped();
      }

      // The campaign: verdicts and the cycle total at 1 and 4 threads,
      // with and without the watchdog.
      for (const unsigned threads : {1u, 4u}) {
        for (const std::uint64_t deadline : {std::uint64_t{0},
                                             std::uint64_t{600'000}}) {
          util::CampaignStats stats;
          CampaignOptions o;
          o.cycle_factor = kCycleFactor;
          o.parallel = {threads};
          o.defect_deadline_ms = deadline;
          o.stats = &stats;
          EXPECT_EQ(run_detection(cfg, program, bus, lib, o), raw_verdicts)
              << tag << " threads " << threads << " deadline " << deadline;
          EXPECT_EQ(stats.simulated_cycles, raw_cycles)
              << tag << " threads " << threads << " deadline " << deadline;
        }
      }
    }
  }
  // The matrix must reach every path it claims to cover.
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(gold_equal, 0u);
  EXPECT_GT(late_starts, 0u);
  EXPECT_GT(loop_skipped, 0u);
}

TEST(SlotSkip, CampaignCountsWhatItSkipped) {
  const soc::SystemConfig cfg;
  const auto program =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate().program;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kDefects, kSeeds[0]);
  util::CampaignStats serial;
  util::CampaignStats threaded;
  for (auto [threads, stats] : {std::pair{1u, &serial},
                                std::pair{4u, &threaded}}) {
    CampaignOptions o;
    o.parallel = {threads};
    o.stats = stats;
    run_detection(cfg, program, soc::BusKind::kAddress, lib, o);
  }
  EXPECT_GT(serial.prefix_cycles_skipped, 0u);
  EXPECT_GT(serial.gold_equal_slots, 0u);
  EXPECT_LE(serial.gold_equal_slots, serial.undetected);
  EXPECT_LT(serial.prefix_cycles_skipped + serial.loop_cycles_skipped,
            serial.simulated_cycles);
  // Pure functions of the campaign inputs, like the cycle total.
  EXPECT_EQ(threaded.prefix_cycles_skipped, serial.prefix_cycles_skipped);
  EXPECT_EQ(threaded.loop_cycles_skipped, serial.loop_cycles_skipped);
  EXPECT_EQ(threaded.gold_equal_slots, serial.gold_equal_slots);
}

TEST(SlotSkip, ResponseCaptureSiteFiresOncePerSlotOnEveryPath) {
  // Chaos tests key on hit counts: a gold-equal slot, which runs nothing,
  // still crosses "signature.capture" exactly once, like every other slot
  // and the gold run.
  struct Guard {
    ~Guard() { util::FaultInjector::global().disarm(); }
  } guard;
  util::FaultInjector& inj = util::FaultInjector::global();
  inj.configure("signature.capture@1000000");
  const soc::SystemConfig cfg;
  const auto program =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate().program;
  const auto lib =
      make_defect_library(cfg, soc::BusKind::kAddress, kDefects, kSeeds[0]);
  util::CampaignStats stats;
  CampaignOptions o;
  o.parallel = {2};
  o.stats = &stats;
  run_detection(cfg, program, soc::BusKind::kAddress, lib, o);
  ASSERT_GT(stats.gold_equal_slots, 0u);
  EXPECT_EQ(inj.hits("signature.capture"), lib.size() + 1);
}

TEST(SlotSkip, NominalRunNeverDiverges) {
  const auto program =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate().program;
  for (const soc::BusKind bus : kBuses) {
    soc::System system;
    const GoldRun gold = run_gold(system, program, bus);
    ASSERT_FALSE(gold.trace.transfers.empty());
    EXPECT_EQ(system.first_divergence(gold.trace), std::nullopt);
    // Boundary 0 is the loaded program at its entry.
    const soc::SliceState start = gold.trace.state_at(0);
    EXPECT_EQ(start.cpu.pc, program.entry);
    EXPECT_EQ(start.cpu.cycles, 0u);
    EXPECT_EQ(start.memory, program.image.raw());
  }
}

// ---------------------------------------------------------------------------
// System::run's loop fast-forward against stepping Cpu::run.

struct Machine {
  cpu::CpuState cpu;
  std::array<std::uint8_t, cpu::kMemWords> memory;

  bool operator==(const Machine& o) const {
    return cpu.pc == o.cpu.pc && cpu.acc == o.cpu.acc &&
           cpu.flags.mask() == o.cpu.flags.mask() &&
           cpu.reason == o.cpu.reason && cpu.cycles == o.cpu.cycles &&
           memory == o.memory;
  }
};

/// Runs `source` to `cap` on a fresh system through System::run (`skip`)
/// or the raw interpreter, and returns the final machine.
Machine run_to(const cpu::AsmResult& prog, std::uint64_t cap, bool skip,
               std::uint64_t* skipped = nullptr) {
  soc::System system;
  system.load_and_reset(prog.image, prog.entry);
  if (skip)
    system.run(cap);
  else
    system.processor().run(cap);
  if (skipped != nullptr) *skipped = system.loop_cycles_skipped();
  return {system.processor().state(), system.memory().raw()};
}

const cpu::AsmResult& jmp_to_self() {
  static const cpu::AsmResult prog = cpu::assemble(R"(
        .org 0x010
  loop: jmp loop
  )");
  return prog;
}

TEST(LoopSkip, JmpToSelfIsFastForwardedExactly) {
  std::uint64_t skipped = 0;
  const Machine got = run_to(jmp_to_self(), 1'000'003, true, &skipped);
  EXPECT_EQ(got, run_to(jmp_to_self(), 1'000'003, false));
  EXPECT_EQ(got.cpu.cycles, 1'000'004u);  // a JMP is 4 cycles
  EXPECT_GT(skipped, 990'000u);
}

TEST(LoopSkip, CapOnAPeriodBoundaryStopsThere) {
  for (const std::uint64_t cap : {4'000u, 4'004u, 3'999u, 4'001u}) {
    const Machine got = run_to(jmp_to_self(), cap, true);
    EXPECT_EQ(got, run_to(jmp_to_self(), cap, false)) << cap;
    EXPECT_EQ(got.cpu.cycles, (cap + 3) / 4 * 4) << cap;
  }
}

TEST(LoopSkip, ChangingStoreIsNotSkippedBeforeTheStateRepeats) {
  // x doubles every pass (0x01, 0x02, ... 0x80, 0x00) and then stays 0:
  // the loop's state repeats only once its STA stops changing memory.
  const cpu::AsmResult prog = cpu::assemble(R"(
        .org 0x010
  loop: lda x
        asl
        sta x
        jmp loop
        .org 0x380
  x:    .byte 0x01
  )");
  for (std::uint64_t cap = 1; cap <= 400; ++cap) {
    std::uint64_t skipped = 0;
    EXPECT_EQ(run_to(prog, cap, true, &skipped), run_to(prog, cap, false))
        << cap;
    // Nine passes of 16 cycles change memory; nothing repeats before.
    if (cap <= 9 * 16) EXPECT_EQ(skipped, 0u) << cap;
  }
  std::uint64_t skipped = 0;
  const Machine got = run_to(prog, 100'000, true, &skipped);
  EXPECT_EQ(got, run_to(prog, 100'000, false));
  EXPECT_EQ(got.memory[0x380], 0x00);
  EXPECT_GT(skipped, 90'000u);
}

TEST(LoopSkip, CounterBehindARepeatingCpuStateIsNeverSkipped) {
  // Every pass leaves PC, ACC, flags and the held words as the last one
  // did; only the stored counter moves.  The memory version keeps the
  // key from repeating, even when the counter wraps back to its start.
  const cpu::AsmResult prog = cpu::assemble(R"(
        .org 0x010
  loop: lda x
        inc
        sta x
        cla
        jmp loop
        .org 0x380
  x:    .byte 0x00
  )");
  for (const std::uint64_t cap : {100u, 5'000u, 20'003u}) {
    std::uint64_t skipped = 0;
    const Machine got = run_to(prog, cap, true, &skipped);
    EXPECT_EQ(got, run_to(prog, cap, false)) << cap;
    EXPECT_EQ(skipped, 0u) << cap;
  }
}

TEST(LoopSkip, MmioAttachedRunIsNeverSkipped) {
  soc::System system;
  soc::RegisterFileDevice device(4);
  system.attach_mmio(0xFF0, 4, &device);
  system.load_and_reset(jmp_to_self().image, jmp_to_self().entry);
  EXPECT_EQ(system.run(4'000).cycles, 4'000u);
  EXPECT_EQ(system.loop_cycles_skipped(), 0u);
}

TEST(LoopSkip, TracedRunIsNeverSkipped) {
  soc::System system;
  soc::BusTrace trace;
  system.set_trace(&trace);
  system.load_and_reset(jmp_to_self().image, jmp_to_self().entry);
  EXPECT_EQ(system.run(4'000).cycles, 4'000u);
  EXPECT_EQ(system.loop_cycles_skipped(), 0u);
  // 1000 JMPs, two fetches each, one transfer per bus per fetch.
  EXPECT_EQ(trace.size(), 1000u * 2 * 3);
}

TEST(LoopSkip, MemoryVersionMovesOnlyWhenABytechanges) {
  soc::Memory memory;
  const std::uint64_t v0 = memory.version();
  memory.write(0x100, 0x00);  // already 0
  EXPECT_EQ(memory.version(), v0);
  memory.write(0x100, 0x5A);
  EXPECT_GT(memory.version(), v0);
  const std::uint64_t v1 = memory.version();
  memory.restore_raw(memory.raw());
  EXPECT_GT(memory.version(), v1);
}

}  // namespace
}  // namespace xtest::sim
