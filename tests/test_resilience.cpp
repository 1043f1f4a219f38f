// Campaign resilience: verdict taxonomy, defect quarantine, and
// checkpoint/resume equivalence.

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/assembler.h"
#include "sim/campaign.h"
#include "sim/checkpoint.h"
#include "sim/signature.h"
#include "sim/verdict.h"
#include "util/fault_injector.h"

namespace xtest::sim {
namespace {

constexpr std::uint64_t kSeed = 20010618;

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---------------------------------------------------------------------------
// Verdict taxonomy.

TEST(Verdicts, ClassifyCoversAllThreeTesterOutcomes) {
  ResponseSnapshot gold;
  gold.completed = true;
  gold.values = {0x42, 0x17};

  ResponseSnapshot same = gold;
  EXPECT_EQ(classify(gold, same), Verdict::kUndetected);

  ResponseSnapshot mismatch = gold;
  mismatch.values[1] = 0x18;
  EXPECT_EQ(classify(gold, mismatch), Verdict::kDetected);

  // Never reached HLT: the tester times out -- even if the response cells
  // happen to hold the expected values.
  ResponseSnapshot hung = gold;
  hung.completed = false;
  EXPECT_EQ(classify(gold, hung), Verdict::kDetectedByTimeout);
}

TEST(Verdicts, CharCodesRoundTrip) {
  for (const Verdict v : {Verdict::kUndetected, Verdict::kDetected,
                          Verdict::kDetectedByTimeout, Verdict::kSimError}) {
    Verdict back = Verdict::kUndetected;
    ASSERT_TRUE(verdict_from_char(to_char(v), back));
    EXPECT_EQ(back, v);
  }
  Verdict unused;
  EXPECT_FALSE(verdict_from_char('x', unused));
  EXPECT_FALSE(verdict_from_char('.', unused));
}

TEST(Verdicts, MergePrefersStrongerEvidence) {
  using V = Verdict;
  EXPECT_EQ(merge_verdicts(V::kUndetected, V::kDetected), V::kDetected);
  EXPECT_EQ(merge_verdicts(V::kDetected, V::kDetectedByTimeout),
            V::kDetected);
  EXPECT_EQ(merge_verdicts(V::kUndetected, V::kDetectedByTimeout),
            V::kDetectedByTimeout);
  // A failed simulation must not be laundered into a clean pass.
  EXPECT_EQ(merge_verdicts(V::kSimError, V::kUndetected), V::kSimError);
  EXPECT_EQ(merge_verdicts(V::kSimError, V::kDetected), V::kDetected);
}

TEST(Verdicts, SimErrorIsNotCountedAsCoverage) {
  EXPECT_FALSE(is_detected(Verdict::kSimError));
  EXPECT_FALSE(is_detected(Verdict::kUndetected));
  EXPECT_TRUE(is_detected(Verdict::kDetected));
  EXPECT_TRUE(is_detected(Verdict::kDetectedByTimeout));
}

// ---------------------------------------------------------------------------
// Control-flow derailment is a timeout detection.

TEST(Resilience, DerailedJumpClassifiesAsDetectedByTimeout) {
  // A two-instruction program: JMP to a HLT.  The JMP's byte-2 fetch at v1
  // followed by the target fetch at v2 is exactly the MA test of a rising
  // delay on address line 5, so forcing that MAF corrupts the target
  // address: the victim bit stays low and the fetch lands at 0x000 in
  // undefined memory.  Undefined bytes read 0x00 = LDA, so the derailed
  // core executes an endless load sled and never reaches HLT -- the tester
  // sees a timeout, not a response mismatch.
  const xtalk::MafFault fault{5, xtalk::MafType::kRisingDelay,
                              xtalk::BusDirection::kCpuToCore};
  const xtalk::VectorPair pair = ma_test(cpu::kAddrBits, fault);
  const auto v1 = static_cast<cpu::Addr>(pair.v1.bits());
  const auto v2 = static_cast<cpu::Addr>(pair.v2.bits());

  sbst::TestProgram prog;
  prog.entry = static_cast<cpu::Addr>(v1 - 1);
  const auto jmp = cpu::encode_memref(cpu::Opcode::kJmp, v2);
  prog.image.set(prog.entry, jmp[0]);
  prog.image.set(v1, jmp[1]);
  prog.image.set(v2, cpu::encode_single(cpu::SingleOp::kHlt));
  prog.image.set(0x080, 0x42);
  prog.response_cells = {0x080};

  soc::System sys;
  const ResponseSnapshot gold = run_and_capture(sys, prog, 10'000);
  ASSERT_TRUE(gold.completed);
  ASSERT_EQ(gold.reason, cpu::HaltReason::kHltInstruction);

  sys.set_forced_maf(soc::ForcedMaf{soc::BusKind::kAddress, fault});
  const ResponseSnapshot hung =
      run_and_capture(sys, prog, gold.cycles * 16 + 1000);
  EXPECT_FALSE(hung.completed);
  EXPECT_EQ(hung.reason, cpu::HaltReason::kRunning);
  EXPECT_EQ(classify(gold, hung), Verdict::kDetectedByTimeout);
}

// ---------------------------------------------------------------------------
// Fault containment: a throwing defect is quarantined, not fatal.

xtalk::DefectLibrary poisoned_library(const xtalk::DefectLibrary& clean,
                                      std::size_t bad_index) {
  // A defect of the wrong bus width: constructible (4 wires, 6 factors),
  // but apply() on the 12-wire address bus throws -- deterministically, on
  // the first attempt and on the retry.
  std::vector<xtalk::Defect> defects = clean.defects();
  defects[bad_index] =
      xtalk::Defect(4, std::vector<double>(6, 1.0));
  return xtalk::DefectLibrary::from_defects(clean.config(), defects);
}

TEST(Resilience, ThrowingDefectIsQuarantinedAsSimError) {
  const soc::SystemConfig cfg;
  const auto clean_lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 12, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> clean =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, clean_lib);

  constexpr std::size_t kBad = 5;
  const auto lib = poisoned_library(clean_lib, kBad);

  for (const unsigned threads : {1u, 4u}) {
    util::CampaignStats stats;
    CampaignOptions options;
    options.parallel = {threads};
    options.stats = &stats;
    const std::vector<Verdict> det =
        run_detection(cfg, prog.program, soc::BusKind::kAddress, lib,
                      options);

    // The campaign completed with exactly one quarantined defect; every
    // other verdict is untouched by its neighbour's failure.
    ASSERT_EQ(det.size(), lib.size());
    EXPECT_EQ(count_verdicts(det).sim_errors, 1u) << "threads=" << threads;
    EXPECT_EQ(det[kBad], Verdict::kSimError);
    for (std::size_t i = 0; i < det.size(); ++i) {
      if (i != kBad) {
        EXPECT_EQ(det[i], clean[i]) << i;
      }
    }

    EXPECT_EQ(stats.retries, 1u);     // retried once, serially
    EXPECT_EQ(stats.sim_errors, 1u);  // ...and still failed
    ASSERT_EQ(stats.error_log.size(), 1u);
    EXPECT_NE(stats.error_log[0].find("defect 5"), std::string::npos)
        << stats.error_log[0];
  }
}

TEST(Resilience, NoRetrySkipsTheSecondAttempt) {
  const soc::SystemConfig cfg;
  const auto clean_lib =
      make_defect_library(cfg, soc::BusKind::kAddress, 8, kSeed);
  const auto lib = poisoned_library(clean_lib, 2);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  util::CampaignStats stats;
  CampaignOptions options;
  options.stats = &stats;
  options.retry_errors = false;
  const std::vector<Verdict> det =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, lib, options);
  EXPECT_EQ(det[2], Verdict::kSimError);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.error_log.size(), 1u);
}

// ---------------------------------------------------------------------------
// Checkpoint/resume.

TEST(Checkpoint, RecordsRestoreAndSurviveReopen) {
  const std::string path = temp_path("ckpt_roundtrip");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "unit-test-key", /*flush_every=*/2);
    auto slots = ck.restore("campaign", 4);
    ASSERT_EQ(slots.size(), 4u);
    for (const auto& s : slots) EXPECT_FALSE(s.has_value());
    ck.record("campaign", 1, Verdict::kDetected);
    ck.record("campaign", 3, Verdict::kDetectedByTimeout);
    ck.flush();
    EXPECT_EQ(ck.completed(), 2u);
  }
  {
    CampaignCheckpoint ck(path, "unit-test-key");
    const auto slots = ck.restore("campaign", 4);
    EXPECT_FALSE(slots[0].has_value());
    EXPECT_EQ(slots[1], Verdict::kDetected);
    EXPECT_FALSE(slots[2].has_value());
    EXPECT_EQ(slots[3], Verdict::kDetectedByTimeout);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsKeyMismatchAndGarbage) {
  const std::string path = temp_path("ckpt_mismatch");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "bus=addr count=10 seed=1");
    ck.restore("campaign", 10);
    ck.flush();
  }
  EXPECT_THROW(CampaignCheckpoint(path, "bus=data count=10 seed=1"),
               std::runtime_error);
  {
    std::ofstream f(path);
    f << "not a checkpoint at all\n";
  }
  EXPECT_THROW(CampaignCheckpoint(path, "bus=addr count=10 seed=1"),
               std::runtime_error);
  std::remove(path.c_str());
}

TEST(Resilience, ResumedCampaignIsBitwiseIdenticalToUninterrupted) {
  // Simulate a campaign killed halfway: the checkpoint holds the first
  // half of the verdicts, then a fresh run resumes from the file.  The
  // resumed verdict vector must be bitwise identical to an uninterrupted
  // run -- for every bus and at every thread count.
  const soc::SystemConfig cfg;
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  for (const soc::BusKind bus : {soc::BusKind::kAddress, soc::BusKind::kData,
                                 soc::BusKind::kControl}) {
    const auto lib = make_defect_library(cfg, bus, 10, kSeed);
    const std::vector<Verdict> uninterrupted =
        run_detection(cfg, prog.program, bus, lib);

    for (const unsigned threads : {1u, 4u}) {
      const std::string path =
          temp_path("ckpt_resume_" + soc::to_string(bus) + "_" +
                    std::to_string(threads));
      std::remove(path.c_str());
      {
        CampaignCheckpoint half(path, default_checkpoint_key(bus, lib));
        half.restore("campaign", lib.size());
        for (std::size_t i = 0; i < lib.size() / 2; ++i)
          half.record("campaign", i, uninterrupted[i]);
        half.flush();
      }

      util::CampaignStats stats;
      CampaignOptions options;
      options.parallel = {threads};
      options.stats = &stats;
      options.checkpoint_path = path;
      const std::vector<Verdict> resumed =
          run_detection(cfg, prog.program, bus, lib, options);

      EXPECT_EQ(resumed, uninterrupted)
          << soc::to_string(bus) << " threads=" << threads;
      EXPECT_EQ(stats.restored_from_checkpoint, lib.size() / 2);
      EXPECT_EQ(stats.defects_simulated, lib.size() - lib.size() / 2);

      // The finished checkpoint restores every slot.
      CampaignCheckpoint done(path, default_checkpoint_key(bus, lib));
      const auto slots = done.restore("campaign", lib.size());
      for (std::size_t i = 0; i < lib.size(); ++i)
        EXPECT_EQ(slots[i], uninterrupted[i]) << i;
      std::remove(path.c_str());
    }
  }
}

TEST(Resilience, SessionCampaignResumesWithPerSessionSections) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto sessions =
      sbst::TestProgramGenerator::generate_sessions(sbst::GeneratorConfig{});
  const std::vector<Verdict> uninterrupted =
      run_detection_sessions(cfg, sessions, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_sessions");
  std::remove(path.c_str());
  for (const unsigned threads : {1u, 4u}) {
    util::CampaignStats stats;
    CampaignOptions options;
    options.parallel = {threads};
    options.stats = &stats;
    options.checkpoint_path = path;
    const std::vector<Verdict> det = run_detection_sessions(
        cfg, sessions, soc::BusKind::kData, lib, options);
    EXPECT_EQ(det, uninterrupted) << "threads=" << threads;
  }
  // The second loop iteration restored every session section of the first.
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Checkpoint corruption matrix: every damaged file either salvages a valid
// prefix or restarts cleanly -- never an unhandled exception, and never a
// wrong verdict.

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

TEST(Checkpoint, TruncatedMidSectionSalvagesLongestValidPrefix) {
  const std::string path = temp_path("ckpt_truncate_mid");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "k");
    for (const char* s : {"s0", "s1", "s2"}) ck.restore(s, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      ck.record("s0", i, Verdict::kDetected);
      ck.record("s1", i, Verdict::kUndetected);
      ck.record("s2", i, Verdict::kDetectedByTimeout);
    }
    ck.flush();
  }
  const std::string full = read_file(path);
  const std::size_t cut = full.find("section s2");
  ASSERT_NE(cut, std::string::npos);
  write_file(path, full.substr(0, cut + 5));  // mid "section s2" header

  CampaignCheckpoint ck(path, "k");
  EXPECT_TRUE(ck.salvage().salvaged);
  EXPECT_EQ(ck.salvage().sections_kept, 2u);
  const auto s0 = ck.restore("s0", 4);
  const auto s2 = ck.restore("s2", 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s0[i], Verdict::kDetected) << i;
    EXPECT_FALSE(s2[i].has_value()) << i;  // lost tail re-simulates
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, FlippedVerdictCharFailsTheSectionCrc) {
  const std::string path = temp_path("ckpt_bitflip");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "k");
    ck.restore("campaign", 6);
    for (std::size_t i = 0; i < 6; ++i)
      ck.record("campaign", i, Verdict::kDetected);
    ck.flush();
  }
  // Flip one verdict char to another *valid* char: only the CRC can tell.
  std::string text = read_file(path);
  const std::size_t crc2 = text.rfind("crc ");
  ASSERT_NE(crc2, std::string::npos);
  const std::size_t slot0 = crc2 - 7;  // 6 slot chars + newline before it
  ASSERT_EQ(text[slot0], 'D');
  text[slot0] = 'U';
  write_file(path, text);

  CampaignCheckpoint ck(path, "k");
  EXPECT_TRUE(ck.salvage().salvaged);
  EXPECT_EQ(ck.salvage().sections_kept, 0u);
  // Every completed verdict in the damaged tail is counted as lost work.
  EXPECT_EQ(ck.salvage().dropped_slots, 6u);
  for (const auto& slot : ck.restore("campaign", 6))
    EXPECT_FALSE(slot.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptHeaderRestartsCleanlyInsteadOfMisreportingTheKey) {
  const std::string path = temp_path("ckpt_badheader");
  std::remove(path.c_str());
  {
    CampaignCheckpoint ck(path, "key-one");
    ck.restore("campaign", 4);
    ck.record("campaign", 0, Verdict::kDetected);
    ck.flush();
  }
  std::string text = read_file(path);
  const std::size_t crc_digit = text.find("\ncrc ") + 5;
  text[crc_digit] = text[crc_digit] == '0' ? '1' : '0';
  write_file(path, text);

  // A corrupt header means the stored key is unverifiable: even a
  // *different* campaign key must restart cleanly, not throw "mismatch"
  // against garbage.
  for (const char* key : {"key-one", "key-two"}) {
    CampaignCheckpoint ck(path, key);
    EXPECT_TRUE(ck.salvage().salvaged) << key;
    EXPECT_EQ(ck.salvage().sections_kept, 0u) << key;
    EXPECT_EQ(ck.completed(), 0u) << key;
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptyFileStartsFresh) {
  const std::string path = temp_path("ckpt_empty");
  write_file(path, "");
  CampaignCheckpoint ck(path, "k");
  EXPECT_FALSE(ck.salvage().salvaged);
  EXPECT_EQ(ck.completed(), 0u);
  for (const auto& slot : ck.restore("campaign", 3))
    EXPECT_FALSE(slot.has_value());
  std::remove(path.c_str());
}

TEST(Checkpoint, LegacyV1FileLoadsAndTheNextFlushUpgradesToV2) {
  const std::string path = temp_path("ckpt_v1");
  write_file(path,
             "xtest-checkpoint v1\n"
             "key k\n"
             "section campaign 4\n"
             "UD..\n");
  {
    CampaignCheckpoint ck(path, "k");
    EXPECT_FALSE(ck.salvage().salvaged);
    const auto slots = ck.restore("campaign", 4);
    EXPECT_EQ(slots[0], Verdict::kUndetected);
    EXPECT_EQ(slots[1], Verdict::kDetected);
    EXPECT_FALSE(slots[2].has_value());
    ck.flush();
  }
  const std::string text = read_file(path);
  EXPECT_EQ(text.rfind("xtest-checkpoint v2\n", 0), 0u) << text;
  {
    CampaignCheckpoint ck(path, "k");
    const auto slots = ck.restore("campaign", 4);
    EXPECT_EQ(slots[1], Verdict::kDetected);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, V1KeyMismatchStillThrows) {
  const std::string path = temp_path("ckpt_v1_mismatch");
  write_file(path, "xtest-checkpoint v1\nkey k\n");
  EXPECT_THROW(CampaignCheckpoint(path, "other"), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Both record formats of the one checkpoint store.

OnlineOutcome outcome(Verdict v, std::uint64_t latency, std::uint64_t rounds,
                      std::uint64_t heartbeats, std::uint64_t late,
                      std::uint64_t missed) {
  OnlineOutcome o;
  o.verdict = v;
  o.detection_latency_cycles = latency;
  o.rounds = rounds;
  o.heartbeats = heartbeats;
  o.deadlines_late = late;
  o.deadlines_missed = missed;
  return o;
}

struct FixtureSlot {
  std::string section;
  std::size_t index;
  OnlineOutcome record;  // kVerdicts keeps only the verdict
};

/// A completed set per format and its exact on-disk bytes.  The fixture
/// texts pin both formats: files written before the two formats shared
/// one store must keep loading, and new files must stay readable by them.
struct FormatCase {
  CheckpointFormat format;
  std::string key;
  std::vector<std::string> sections;  // registration order
  std::size_t slots_per_section;
  std::vector<FixtureSlot> completed;
  std::string fixture;
};

FormatCase format_case(CheckpointFormat format) {
  if (format == CheckpointFormat::kVerdicts)
    return {format,
            "fixture bus=data count=5",
            {"session0", "session1"},
            5,
            {{"session0", 0, outcome(Verdict::kDetected, 0, 0, 0, 0, 0)},
             {"session0", 1, outcome(Verdict::kUndetected, 0, 0, 0, 0, 0)},
             {"session0", 3,
              outcome(Verdict::kDetectedByTimeout, 0, 0, 0, 0, 0)},
             {"session1", 2, outcome(Verdict::kSimError, 0, 0, 0, 0, 0)},
             {"session1", 4, outcome(Verdict::kDetected, 0, 0, 0, 0, 0)}},
            "xtest-checkpoint v2\n"
            "key fixture bus=data count=5\n"
            "crc 5f99c31a\n"
            "section session0 5\n"
            "DU.T.\n"
            "crc 528b6e15\n"
            "section session1 5\n"
            "..E.D\n"
            "crc b077e660\n"};
  // Sections registered out of name order: the on-line codec renders in
  // (section name, index) order, so "session10" sorts before "session2".
  return {format,
          "fixture bus=addr count=4 online slice=64",
          {"session0", "session2", "session10"},
          4,
          {{"session2", 1, outcome(Verdict::kDetected, 1234, 7, 3, 1, 0)},
           {"session10", 0,
            outcome(Verdict::kDetectedByTimeout, 99999, 42, 10, 2, 5)},
           {"session0", 3, outcome(Verdict::kUndetected, 0, 12, 4, 0, 0)},
           {"session0", 0, outcome(Verdict::kSimError, 0, 0, 0, 0, 0)}},
          "xtest-online-checkpoint v1\n"
          "key fixture bus=addr count=4 online slice=64\n"
          "crc 13dc5129\n"
          "slot session0 0 E 0 0 0 0 0 d417ec2e\n"
          "slot session0 3 U 0 12 4 0 0 f400553b\n"
          "slot session10 0 T 99999 42 10 2 5 d34d1eba\n"
          "slot session2 1 D 1234 7 3 1 0 c1a4b9e0\n"};
}

/// Restores every section of `c` from `ck` as full records (verdict-only
/// records for kVerdicts), keyed "<section>/<index>".
std::map<std::string, OnlineOutcome> restore_all(CampaignCheckpoint& ck,
                                                 const FormatCase& c) {
  std::map<std::string, OnlineOutcome> out;
  for (const std::string& section : c.sections) {
    if (c.format == CheckpointFormat::kVerdicts) {
      const auto slots = ck.restore(section, c.slots_per_section);
      for (std::size_t i = 0; i < slots.size(); ++i)
        if (slots[i])
          out[section + "/" + std::to_string(i)] =
              outcome(*slots[i], 0, 0, 0, 0, 0);
    } else {
      const auto slots = ck.restore_outcomes(section, c.slots_per_section);
      for (std::size_t i = 0; i < slots.size(); ++i)
        if (slots[i]) out[section + "/" + std::to_string(i)] = *slots[i];
    }
  }
  return out;
}

}  // namespace

// gtest names the parameterized cases through PrintTo, which it finds by
// argument-dependent lookup in the parameter type's namespace.
void PrintTo(CheckpointFormat format, std::ostream* os) {
  *os << (format == CheckpointFormat::kVerdicts ? "Verdicts"
                                                 : "OnlineOutcomes");
}

namespace {

class CheckpointFormats : public ::testing::TestWithParam<CheckpointFormat> {
 protected:
  std::string path(const std::string& name) const {
    return temp_path(name + (GetParam() == CheckpointFormat::kVerdicts
                                 ? "_verdicts"
                                 : "_online"));
  }
};

TEST_P(CheckpointFormats, WritesTheFixtureBytesAndRestoresThem) {
  const FormatCase c = format_case(GetParam());
  const std::string file = path("ckpt_fixture");
  std::remove(file.c_str());
  {
    CampaignCheckpoint ck(file, c.key, 1000, "", c.format);
    for (const std::string& section : c.sections)
      ck.restore(section, c.slots_per_section);
    for (const FixtureSlot& s : c.completed) {
      if (c.format == CheckpointFormat::kVerdicts)
        ck.record(s.section, s.index, s.record.verdict);
      else
        ck.record(s.section, s.index, s.record);
    }
    ck.flush();
  }
  EXPECT_EQ(read_file(file), c.fixture);

  // A file holding the fixture bytes restores exactly its records.
  write_file(file, c.fixture);
  CampaignCheckpoint ck(file, c.key, 1000, "", c.format);
  EXPECT_FALSE(ck.salvage().salvaged);
  EXPECT_EQ(ck.completed(), c.completed.size());
  std::map<std::string, OnlineOutcome> want;
  for (const FixtureSlot& s : c.completed)
    want[s.section + "/" + std::to_string(s.index)] = s.record;
  EXPECT_EQ(restore_all(ck, c), want);
  std::remove(file.c_str());
}

TEST_P(CheckpointFormats, TruncationAtEveryByteOffsetSalvagesOrRestartsNeverThrows) {
  // The acceptance bar of the resilience layer: cut a valid file at *any*
  // byte offset -- inside the magic line, the key line, a CRC, a slot --
  // and reopening must yield a usable checkpoint whose every restored
  // record matches what was recorded: a slot is allowed to be forgotten
  // (re-simulated on resume), never wrong.
  const FormatCase c = format_case(GetParam());
  std::map<std::string, OnlineOutcome> want;
  for (const FixtureSlot& s : c.completed)
    want[s.section + "/" + std::to_string(s.index)] = s.record;
  const std::string cut_path = path("ckpt_everyoffset");
  for (std::size_t len = 0; len <= c.fixture.size(); ++len) {
    write_file(cut_path, c.fixture.substr(0, len));
    try {
      CampaignCheckpoint ck(cut_path, c.key, 32, "", c.format);
      for (const auto& [slot, record] : restore_all(ck, c)) {
        ASSERT_TRUE(want.count(slot)) << "len=" << len << " slot=" << slot;
        EXPECT_EQ(record, want.at(slot)) << "len=" << len << " " << slot;
      }
      if (len + 1 < c.fixture.size()) {
        // A real truncation (more than the trailing newline) always cuts
        // the last record's CRC: something is salvaged or dropped.
        EXPECT_TRUE(ck.salvage().salvaged ||
                    ck.completed() < c.completed.size())
            << "len=" << len;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "truncation at byte " << len
                    << " threw: " << e.what();
    }
  }
  std::remove(cut_path.c_str());
}

TEST_P(CheckpointFormats, StaleTmpOfACrashedWriteIsRemovedOnOpen) {
  const FormatCase c = format_case(GetParam());
  const std::string file = path("ckpt_stale_tmp");
  const std::string stale = file + ".tmp.99999";
  write_file(stale, "half-written");
  CampaignCheckpoint ck(file, c.key, 32, "", c.format);
  EXPECT_FALSE(std::ifstream(stale).good()) << stale;
  std::remove(file.c_str());
}

INSTANTIATE_TEST_SUITE_P(Checkpoint, CheckpointFormats,
                         ::testing::Values(CheckpointFormat::kVerdicts,
                                           CheckpointFormat::kOnlineOutcomes));

TEST(Checkpoint, ConcurrentRecordsAndFlushesStaySerializable) {
  const std::string path = temp_path("ckpt_concurrent");
  std::remove(path.c_str());
  constexpr std::size_t kSlots = 64;
  {
    CampaignCheckpoint ck(path, "k", /*flush_every=*/5);
    ck.restore("a", kSlots);
    ck.restore("b", kSlots);
    // Two recorders plus a flusher hammering the same file -- the model of
    // a signal-triggered final flush racing in-flight workers.
    std::thread ra([&] {
      for (std::size_t i = 0; i < kSlots; ++i)
        ck.record("a", i, Verdict::kDetected);
    });
    std::thread rb([&] {
      for (std::size_t i = 0; i < kSlots; ++i)
        ck.record("b", i, Verdict::kUndetected);
    });
    std::thread fl([&] {
      for (int i = 0; i < 25; ++i) ck.flush();
    });
    ra.join();
    rb.join();
    fl.join();
    ck.flush();
    EXPECT_EQ(ck.completed(), 2 * kSlots);
  }
  CampaignCheckpoint ck(path, "k");
  EXPECT_FALSE(ck.salvage().salvaged);
  const auto a = ck.restore("a", kSlots);
  const auto b = ck.restore("b", kSlots);
  for (std::size_t i = 0; i < kSlots; ++i) {
    EXPECT_EQ(a[i], Verdict::kDetected) << i;
    EXPECT_EQ(b[i], Verdict::kUndetected) << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deterministic fault injection through the campaign layers.

/// Disarms the process-wide injector even when a test fails mid-way:
/// leaked injector state would poison every later test in this binary.
struct GlobalInjectorGuard {
  ~GlobalInjectorGuard() { util::FaultInjector::global().disarm(); }
};

TEST(Resilience, InjectedWorkerFaultIsRetriedAndRecovers) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> clean =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  // The 5th simulation body throws once; the serial retry on a fresh
  // simulator must absorb it without a trace in the verdicts.
  util::FaultInjector::global().configure("parallel.item@5");
  util::CampaignStats stats;
  CampaignOptions options;
  options.parallel = {1u};
  options.stats = &stats;
  const std::vector<Verdict> det =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(det, clean);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.sim_errors, 0u);
  EXPECT_TRUE(stats.error_log.empty());
}

TEST(Resilience, InjectedFaultWithoutRetryQuarantinesAsSimError) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 6, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  util::FaultInjector::global().configure("parallel.item@2");
  util::CampaignStats stats;
  CampaignOptions options;
  options.parallel = {1u};
  options.stats = &stats;
  options.retry_errors = false;
  const std::vector<Verdict> det =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(det[1], Verdict::kSimError);
  ASSERT_EQ(stats.error_log.size(), 1u);
  EXPECT_NE(stats.error_log[0].find("injected fault at parallel.item"),
            std::string::npos)
      << stats.error_log[0];
}

TEST(Resilience, GracefulKillFlushesACheckpointAndResumeMatches) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 10, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_graceful_kill");
  std::remove(path.c_str());
  CampaignOptions options;
  options.parallel = {1u};
  options.checkpoint_path = path;

  util::FaultInjector::global().configure("campaign.kill@3");
  try {
    run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("checkpoint flushed"),
              std::string::npos)
        << e.what();
  }
  util::FaultInjector::global().disarm();

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.restored_from_checkpoint, 3u);
  std::remove(path.c_str());
}

TEST(Resilience, HardCrashKeepsOnlyPeriodicallyFlushedVerdicts) {
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 10, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_hard_crash");
  std::remove(path.c_str());
  CampaignOptions options;
  options.parallel = {1u};
  options.checkpoint_path = path;
  options.checkpoint_every = 2;

  // Crash after the 5th new verdict: records 1-4 were flushed in pairs,
  // record 5 lived only in memory and dies with the "process".
  util::FaultInjector::global().configure("campaign.crash@5");
  try {
    run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
    FAIL() << "expected CampaignInterrupted";
  } catch (const CampaignInterrupted& e) {
    EXPECT_NE(std::string(e.what()).find("simulated crash"),
              std::string::npos)
        << e.what();
  }
  util::FaultInjector::global().disarm();

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_EQ(stats.restored_from_checkpoint, 4u);
  std::remove(path.c_str());
}

TEST(Resilience, BatchedKillAndCrashResumeBitwiseIdenticalAtOddBatchSize) {
  // This chain once ran through 7-lane windows of the batched screen;
  // with the screen gone, the odd window is the checkpoint interval.
  // A graceful kill and then a hard crash, each landing exactly on a flush
  // boundary of a checkpoint interval (3) that does not divide the library
  // (20), then a drain: the chain must converge to the uninterrupted
  // verdicts at 1 and 4 threads.  Serially the restore counts are exact;
  // at 4 threads workers still in flight when the kill fires may record
  // more, never less.
  GlobalInjectorGuard guard;
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kAddress, 20, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, lib);

  for (const unsigned threads : {1u, 4u}) {
    const std::string path =
        temp_path("ckpt_kill_chain_t" + std::to_string(threads));
    std::remove(path.c_str());
    CampaignOptions options;
    options.parallel = {threads};
    options.checkpoint_path = path;
    options.checkpoint_every = 3;

    // Kill after 6 new verdicts, then crash after 9 more: both are
    // multiples of 3, so every completed verdict was flushed.
    for (const char* site : {"campaign.kill@6", "campaign.crash@9"}) {
      util::FaultInjector::global().configure(site);
      EXPECT_THROW(run_detection(cfg, prog.program, soc::BusKind::kAddress,
                                 lib, options),
                   CampaignInterrupted)
          << site << " threads=" << threads;
      util::FaultInjector::global().disarm();
    }

    util::CampaignStats stats;
    options.stats = &stats;
    const std::vector<Verdict> resumed =
        run_detection(cfg, prog.program, soc::BusKind::kAddress, lib, options);
    EXPECT_EQ(resumed, reference) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(stats.restored_from_checkpoint, 15u);
      EXPECT_EQ(stats.defects_simulated, 5u);
    } else {
      EXPECT_GE(stats.restored_from_checkpoint, 15u);
    }
    std::remove(path.c_str());
  }
}

TEST(Resilience, CancelFlagStopsTheCampaignBeforeNewWork) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 6, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  std::atomic<bool> cancel{true};
  util::CampaignStats stats;
  CampaignOptions options;
  options.stats = &stats;
  options.cancel = &cancel;
  EXPECT_THROW(
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options),
      CampaignInterrupted);
  EXPECT_EQ(stats.defects_simulated, 0u);
}

TEST(Resilience, SalvagedCheckpointResumeIsBitwiseIdentical) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 8, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> reference =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib);

  const std::string path = temp_path("ckpt_salvage_resume");
  std::remove(path.c_str());
  CampaignOptions options;
  options.checkpoint_path = path;
  run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);

  // Chop the tail off the finished checkpoint: the resumed campaign must
  // notice, report the loss, re-simulate the dropped slots, and land on
  // the exact same verdicts.
  const std::string full = read_file(path);
  write_file(path, full.substr(0, full.size() - 4));

  util::CampaignStats stats;
  options.stats = &stats;
  const std::vector<Verdict> resumed =
      run_detection(cfg, prog.program, soc::BusKind::kData, lib, options);
  EXPECT_EQ(resumed, reference);
  EXPECT_GT(stats.dropped_slots, 0u);
  ASSERT_FALSE(stats.error_log.empty());
  EXPECT_NE(stats.error_log[0].find("salvaged"), std::string::npos)
      << stats.error_log[0];
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Per-defect watchdog.

sbst::TestProgram program_of(const char* source) {
  const cpu::AsmResult a = cpu::assemble(source);
  sbst::TestProgram prog;
  prog.image = a.image;
  prog.entry = a.entry;
  prog.response_cells = {0x080};
  return prog;
}

/// JMP to self: never reaches HLT, and System::run fast-forwards it to
/// the cycle budget (DESIGN.md D17).
sbst::TestProgram endless_program() {
  return program_of(R"(
        .org 0x010
  loop: jmp loop
        .org 0x080
        .byte 0x42
  )");
}

/// Never reaches HLT and never repeats a state: every pass stores a new
/// counter value, so each STA moves Memory::version() and no loop is
/// skipped.  Only the watchdog ends it before the budget.
sbst::TestProgram wedged_program() {
  return program_of(R"(
        .org 0x010
  loop: inc
        sta c
        jmp loop
        .org 0x080
  c:    .byte 0x42
  )");
}

TEST(Resilience, WatchdogDeadlineSiteFiresDeterministically) {
  GlobalInjectorGuard guard;
  util::FaultInjector::global().configure("campaign.deadline@1");
  soc::System sys;
  // Huge wall-clock budget: only the injection site can trip the check,
  // at the first poll.
  EXPECT_THROW(run_and_capture(sys, wedged_program(), 1'000'000, 10'000),
               DeadlineExceeded);
}

TEST(Resilience, WatchdogConvertsAWedgedSimulationIntoAnException) {
  soc::System sys;
  EXPECT_THROW(run_and_capture(sys, wedged_program(), 200'000'000, 1),
               DeadlineExceeded);
}

TEST(Resilience, WatchedRunKeepsTheLoopSkip) {
  // The watchdog polls inside the one System::run, so a spinning run is
  // fast-forwarded to its budget long before a 1 ms deadline.
  soc::System sys;
  const ResponseSnapshot snap =
      run_and_capture(sys, endless_program(), 200'000'000, 1);
  EXPECT_FALSE(snap.completed);
  EXPECT_GE(snap.cycles, 200'000'000u);
  EXPECT_GT(sys.loop_cycles_skipped(), 0u);
}

TEST(Resilience, ZeroDeadlineDisablesTheWatchdog) {
  soc::System sys;
  const ResponseSnapshot snap =
      run_and_capture(sys, endless_program(), 10'000, 0);
  EXPECT_FALSE(snap.completed);
  EXPECT_GE(snap.cycles, 10'000u);
}

TEST(Resilience, CampaignDeadlineOptionPreservesVerdicts) {
  // The watched run must be cycle-for-cycle identical to the plain one
  // when nothing times out.
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kAddress, 8, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();
  const std::vector<Verdict> plain =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, lib);

  CampaignOptions options;
  options.defect_deadline_ms = 100'000;
  const std::vector<Verdict> guarded =
      run_detection(cfg, prog.program, soc::BusKind::kAddress, lib, options);
  EXPECT_EQ(guarded, plain);
}

// ---------------------------------------------------------------------------
// FaultEnv: tolerant checks CI runs with $XTEST_FAULTS exported (ambient
// probabilistic injection, plus ASan/UBSan).  They assert survival
// invariants -- no crash, no wrong verdict, bounded retries -- rather than
// exact outcomes, so they pass under any injected-fault schedule and
// trivially when the injector is disarmed.

TEST(FaultEnv, CampaignCompletesUnderAmbientInjection) {
  const soc::SystemConfig cfg;
  const auto lib = make_defect_library(cfg, soc::BusKind::kData, 12, kSeed);
  const auto prog =
      sbst::TestProgramGenerator(sbst::GeneratorConfig{}).generate();

  const std::string path = temp_path("ckpt_faultenv");
  std::remove(path.c_str());
  util::CampaignStats stats;
  CampaignOptions options;
  options.stats = &stats;
  options.checkpoint_path = path;
  options.checkpoint_every = 4;

  std::vector<Verdict> det;
  bool completed = false;
  for (int attempt = 0; attempt < 50 && !completed; ++attempt) {
    try {
      det = run_detection(cfg, prog.program, soc::BusKind::kData, lib,
                          options);
      completed = true;
    } catch (const CampaignInterrupted&) {
      // ambient campaign.kill/crash: resume from the checkpoint
    } catch (const util::InjectedFault&) {
      // ambient fault outside the quarantine (e.g. the gold run): retry
    }
  }
  ASSERT_TRUE(completed) << "campaign never completed in 50 attempts";
  ASSERT_EQ(det.size(), lib.size());
  for (const Verdict v : det) {
    Verdict roundtrip;
    EXPECT_TRUE(verdict_from_char(to_char(v), roundtrip));
  }
  std::remove(path.c_str());
}

TEST(FaultEnv, CheckpointNeverRestoresAWrongVerdictUnderInjection) {
  const std::string path = temp_path("ckpt_faultenv_record");
  std::remove(path.c_str());
  constexpr std::size_t kSlots = 24;
  {
    CampaignCheckpoint ck(path, "k", /*flush_every=*/1);
    ck.restore("campaign", kSlots);
    for (std::size_t i = 0; i < kSlots; ++i)
      ck.record("campaign", i, Verdict::kDetected);  // failed flushes defer
    try {
      ck.flush();
    } catch (const std::exception&) {
      // an injected flush failure loses durability, nothing else
    }
    EXPECT_EQ(ck.completed(), kSlots);  // in-memory state is never lost
  }
  // Whatever subset of flushes survived, a restored slot is either still
  // pending or holds exactly the recorded verdict.
  std::ifstream exists(path);
  if (!exists.good()) return;  // every flush failed: a fresh start is fine
  CampaignCheckpoint ck(path, "k");
  for (const auto& slot : ck.restore("campaign", kSlots)) {
    if (slot) {
      EXPECT_EQ(*slot, Verdict::kDetected);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace xtest::sim
